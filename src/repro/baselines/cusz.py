"""cuSZ baseline: dual-quant Lorenzo + outlier compaction + chunked Huffman
(paper §II item 1, §III-A).

This is the strongest pre-existing GPU compressor in the paper's comparison
and the design basis of cuSZ-i — identical pipeline shape, with the Lorenzo
predictor where cuSZ-i puts G-Interp, and no de-redundancy pass by default
(the paper's cuSZ has Huffman only; Table III's right half applies the
extra pass to every compressor's output for fairness, which ``lossless=``
reproduces here).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.lorenzo import (lorenzo_delta, lorenzo_prequantize,
                                     lorenzo_reconstruct, merge_outliers,
                                     split_outliers)
from repro.common.arrayutils import validate_field
from repro.common.container import build_container, parse_container
from repro.common.errors import CodecError
from repro.common.lossless_wrap import unwrap_lossless, wrap_lossless
from repro.common.quantizer import DEFAULT_RADIUS
from repro.core.pipeline import resolve_eb
from repro.huffman import (FORMAT_KEY, FORMAT_VERSION, huffman_decode,
                           huffman_encode, read_stream)
from repro.registry import register

__all__ = ["CuSZ"]


@register
class CuSZ:
    """The cuSZ compressor (Lorenzo + Huffman)."""

    name = "cusz"

    def __init__(self, eb: float = 1e-3, mode: str = "rel",
                 lossless: str = "none", radius: int = DEFAULT_RADIUS):
        self.eb = float(eb)
        self.mode = mode
        self.lossless = lossless
        self.radius = int(radius)

    def compress(self, data: np.ndarray) -> bytes:
        data = validate_field(data)
        abs_eb = resolve_eb(data, self.eb, self.mode)
        prequant = lorenzo_prequantize(data, abs_eb)
        delta = lorenzo_delta(prequant)
        codes, outliers = split_outliers(delta, self.radius)
        stream = huffman_encode(codes, 2 * self.radius)
        meta = {
            "shape": list(data.shape),
            "dtype": data.dtype.name,
            "abs_eb": abs_eb,
            "radius": self.radius,
            "n_outliers": int(outliers.size),
            FORMAT_KEY: FORMAT_VERSION,
        }
        segments = {
            "huffman": stream.to_bytes(),
            "outliers": outliers.astype(np.int64).tobytes(),
        }
        inner = build_container(self.name, meta, segments)
        return wrap_lossless(inner, self.lossless)

    def decompress(self, blob: bytes) -> np.ndarray:
        inner = unwrap_lossless(blob)
        codec, meta, segments = parse_container(inner)
        if codec != self.name:
            raise CodecError(f"blob codec {codec!r} is not {self.name!r}")
        shape = tuple(meta["shape"])
        dtype = np.dtype(meta["dtype"])
        abs_eb = float(meta["abs_eb"])
        radius = int(meta["radius"])
        codes = huffman_decode(read_stream(segments["huffman"], meta))
        outliers = np.frombuffer(segments["outliers"], dtype=np.int64)
        if outliers.size != int(meta["n_outliers"]):
            raise CodecError("outlier segment size mismatch")
        delta = merge_outliers(codes, outliers, radius).reshape(shape)
        recon = lorenzo_reconstruct(delta, abs_eb)
        return recon.astype(dtype)
