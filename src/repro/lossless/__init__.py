"""Lossless de-redundancy encoders.

Four encoders live here, each matching a role from the paper:

* :mod:`repro.lossless.gle` — "GPU Lossless Encoder", the stand-in for
  NVIDIA Bitcomp-lossless (§VI-B): a pattern-canceling pass over already
  entropy-coded bytes (word run-length + per-block bit-width reduction),
  built from scan/compact primitives that map 1:1 onto GPU kernels.
* :mod:`repro.lossless.orchestrator` — the segment-aware layer above it:
  each container stream gets its own backend (zlib up to 16 KiB, GLE
  above, stored when the encode does not shrink it) instead of one codec
  for the whole archive. Registered as ``"auto"``, the pipeline
  default.
* :mod:`repro.lossless.bitshuffle` — the bit-transpose stage of FZ-GPU.
* :mod:`repro.lossless.zstd_like` — zlib wrapper standing in for the Zstd
  stage of the CPU compressors (SZ3/QoZ).

All expose ``compress_bytes`` / ``decompress_bytes`` and are registered by
name for pipeline configuration.
"""

from repro.lossless.gle import GLECodec, gle_compress, gle_decompress
from repro.lossless.bitshuffle import bitshuffle, bitunshuffle
from repro.lossless.zstd_like import ZlibCodec
from repro.lossless.orchestrator import (OrchestratorCodec,
                                         orchestrate_compress,
                                         orchestrate_decompress)

from repro.common.errors import ConfigError


class _Passthrough:
    """No-op lossless stage (the "without Bitcomp" pipeline variant)."""

    name = "none"

    def compress_bytes(self, data: bytes) -> bytes:
        return bytes(data)

    def decompress_bytes(self, blob: bytes) -> bytes:
        return bytes(blob)


_CODECS = {
    "none": _Passthrough,
    "gle": GLECodec,
    "zlib": ZlibCodec,
    "auto": OrchestratorCodec,
}


def get_lossless(name: str, **kwargs):
    """Instantiate a registered lossless codec by name.

    ``kwargs`` forward to the codec constructor (e.g. the orchestrator's
    ``workers=`` knob, ``ZlibCodec(level=...)``).
    """
    try:
        cls = _CODECS[name]
    except KeyError:
        raise ConfigError(
            f"unknown lossless codec {name!r}; choose from "
            f"{sorted(_CODECS)}")
    return cls(**kwargs)


__all__ = [
    "GLECodec",
    "gle_compress",
    "gle_decompress",
    "OrchestratorCodec",
    "orchestrate_compress",
    "orchestrate_decompress",
    "bitshuffle",
    "bitunshuffle",
    "ZlibCodec",
    "get_lossless",
]
