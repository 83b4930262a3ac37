"""Outer de-redundancy framing (paper §VI-B).

The paper applies Bitcomp-lossless to the *entire* compressed archive (and,
for fairness in Table III, to every baseline's output too). This module
provides that outer pass: a tiny frame recording which lossless codec
wrapped the container, so any blob remains self-describing.

Frame layout: ``b"RPW1" | u8 codec-name length | codec name | payload``.
A frame with codec ``none`` keeps the payload verbatim, so the wrap is
uniform across pipeline variants.
"""

from __future__ import annotations

import struct

from repro import telemetry
from repro.common.container import parse_container
from repro.common.errors import ContainerError
from repro.lossless import get_lossless

__all__ = ["wrap_lossless", "unwrap_lossless", "framed_codec",
           "peek_codec"]

_MAGIC = b"RPW1"

#: codec instances reused across wrap/unwrap calls. Stateful codecs rely
#: on this: the orchestrator's plan cache only pays off when successive
#: containers in a slab loop hit the *same* instance.
_INSTANCES: dict[str, object] = {}


def _codec_for(name: str):
    codec = _INSTANCES.get(name)
    if codec is None:
        codec = _INSTANCES[name] = get_lossless(name)
    return codec


def wrap_lossless(container: bytes, lossless: str) -> bytes:
    """Apply the named lossless pass over a container blob and frame it."""
    codec = _codec_for(lossless)
    with telemetry.span("lossless.wrap", codec=codec.name,
                        bytes_in=len(container)) as sp:
        payload = codec.compress_bytes(container)
        name = codec.name.encode("utf-8")
        blob = _MAGIC + struct.pack("<B", len(name)) + name + payload
        sp.set(bytes_out=len(blob))
    return blob


def _read_frame(blob: bytes) -> tuple[str, int]:
    """The codec name of a wrap frame and the offset of its payload."""
    if len(blob) < 5 or blob[:4] != _MAGIC:
        raise ContainerError("missing lossless wrap frame")
    nlen = blob[4]
    if len(blob) < 5 + nlen:
        raise ContainerError("truncated lossless wrap frame")
    return blob[5:5 + nlen].decode("utf-8"), 5 + nlen


def framed_codec(blob: bytes) -> str:
    """Name of the lossless codec that wrapped ``blob``."""
    return _read_frame(blob)[0]


def unwrap_lossless(blob: bytes) -> bytes:
    """Undo :func:`wrap_lossless`, returning the inner container bytes."""
    name, start = _read_frame(blob)
    codec = _codec_for(name)
    with telemetry.span("lossless.unwrap", codec=name,
                        bytes_in=len(blob)) as sp:
        inner = codec.decompress_bytes(blob[start:])
        sp.set(bytes_out=len(inner))
    return inner


def peek_codec(blob: bytes) -> str:
    """Read the inner container's codec name without full decode."""
    inner = unwrap_lossless(blob)
    codec, _meta, _segs = parse_container(inner)
    return codec
