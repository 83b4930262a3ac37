"""Shared base for the CPU interpolation references (SZ3 / QoZ).

Both reuse the exact multilevel interpolation engine behind G-Interp but
with the CPU-side geometry the paper contrasts against (§VII-C.2):
*global* interpolation (no shared-window confinement) and much larger
anchor spacing — whole-array for SZ3, 64 for QoZ — plus the Zstd-role
de-redundancy pass (zlib stand-in) on the archive. This is what gives the
CPU compressors their residual ratio advantage over cuSZ-i in Fig. 7a.
"""

from __future__ import annotations

import numpy as np

from repro.common.arrayutils import validate_field
from repro.common.container import build_container, parse_container
from repro.common.errors import CodecError
from repro.common.lossless_wrap import unwrap_lossless, wrap_lossless
from repro.common.quantizer import DEFAULT_RADIUS, LinearQuantizer
from repro.core.ginterp.autotune import autotune
from repro.core.ginterp.engine import (InterpSpec, check_stream_geometry,
                                       check_stream_header,
                                       check_stream_values, interp_compress,
                                       interp_decompress)
from repro.core.ginterp.plans import get_plan
from repro.core.pipeline import resolve_eb
from repro.huffman import (FORMAT_KEY, FORMAT_VERSION, huffman_decode,
                           huffman_encode, read_stream)

__all__ = ["InterpCPUBase", "pow2ceil"]


def pow2ceil(n: int) -> int:
    """Smallest power of two >= n (and >= 2)."""
    return 1 << max(1, (int(n) - 1).bit_length())


class InterpCPUBase:
    """Template-method base: subclasses define name + spec policy."""

    name = "interp-cpu"
    lossless_default = "zlib"

    def __init__(self, eb: float = 1e-3, mode: str = "rel",
                 lossless: str | None = None,
                 radius: int = DEFAULT_RADIUS, tune: bool = True):
        self.eb = float(eb)
        self.mode = mode
        self.lossless = lossless if lossless is not None \
            else self.lossless_default
        self.radius = int(radius)
        self.tune = bool(tune)

    # -- policy hooks -------------------------------------------------------

    def _anchor_stride(self, shape: tuple[int, ...]) -> int:
        raise NotImplementedError

    def _level_params(self, rel_eb: float) -> tuple[float, float]:
        """Return (alpha, beta) for the level-wise error bounds."""
        raise NotImplementedError

    # -- shared pipeline ----------------------------------------------------

    def _build_spec(self, data: np.ndarray, abs_eb: float) -> InterpSpec:
        rng = float(data.max() - data.min())
        rel_eb = abs_eb / rng if rng > 0 else 1.0
        alpha, beta = self._level_params(rel_eb)
        if self.tune:
            report = autotune(data, abs_eb)
            cubic, order = report.cubic_variant, report.axis_order
        else:
            cubic, order = (), ()
        spec = InterpSpec(anchor_stride=self._anchor_stride(data.shape),
                          window_shape=None, cubic_variant=cubic,
                          axis_order=order, alpha=alpha, beta=beta)
        return spec.resolved(data.ndim)

    def compress(self, data: np.ndarray) -> bytes:
        data = validate_field(data)
        abs_eb = resolve_eb(data, self.eb, self.mode)
        quantizer = LinearQuantizer(self.radius, value_dtype=data.dtype)
        spec = self._build_spec(data, abs_eb)
        # CPU references share the same plan LRU as the GPU-path codec:
        # spec differences (stride, no window) key separate entries
        plan = get_plan(data.shape, spec)
        result = interp_compress(data, spec, abs_eb, quantizer, plan=plan)
        stream = huffman_encode(result.codes, quantizer.n_codes)
        meta = {
            "shape": list(data.shape),
            "dtype": data.dtype.name,
            "abs_eb": abs_eb,
            "radius": self.radius,
            "n_outliers": int(result.outliers.size),
            "spec": spec.to_meta(),
            FORMAT_KEY: FORMAT_VERSION,
        }
        segments = {
            "huffman": stream.to_bytes(),
            "outliers": result.outliers.tobytes(),
            "anchors": result.anchors.tobytes(),
        }
        inner = build_container(self.name, meta, segments)
        return wrap_lossless(inner, self.lossless)

    def decompress(self, blob: bytes) -> np.ndarray:
        inner = unwrap_lossless(blob)
        codec, meta, segments = parse_container(inner)
        if codec != self.name:
            raise CodecError(f"blob codec {codec!r} is not {self.name!r}")
        stream = read_stream(segments["huffman"], meta)
        dtype, abs_eb, radius, spec = check_stream_header(
            meta, stream.alphabet_size)
        shape = tuple(meta["shape"])
        quantizer = LinearQuantizer(radius, value_dtype=dtype)
        anchor_shape = check_stream_geometry(
            shape, shape, spec.anchor_stride, len(segments["anchors"]),
            dtype.itemsize, stream.n_symbols)
        codes = huffman_decode(stream)
        outliers = np.frombuffer(segments["outliers"], dtype=dtype)
        anchors = np.frombuffer(segments["anchors"],
                                dtype=dtype).reshape(anchor_shape)
        check_stream_values(anchors, outliers, abs_eb, radius, spec)
        plan = get_plan(shape, spec.resolved(len(shape)))
        work = interp_decompress(shape, spec, abs_eb, codes, outliers,
                                 anchors, quantizer, plan=plan)
        return work.astype(dtype)
