"""SZ1.4-style classic CPU Lorenzo compressor (the paper's "CPU-Lorenzo").

Unlike cuSZ's dual-quant variant, classic SZ predicts each sample from the
already-*reconstructed* neighbors and quantizes the prediction error — a
loop-carried dependency in all dimensions. The GPU papers cite exactly this
dependency as the reason Lorenzo had to be redesigned (dual-quant) for
parallel hardware; implementing the classic form is what lets Fig. 6
include the CPU-Lorenzo series.

Vectorization here uses the *wavefront* (anti-diagonal) order: all samples
with equal index sum ``i+j+k`` depend only on strictly smaller sums, so the
traversal runs one diagonal plane at a time with vectorized gathers — the
classic way to parallelize a first-order recurrence without changing its
semantics.
"""

from __future__ import annotations

import numpy as np

from repro.common.arrayutils import validate_field
from repro.common.container import build_container, parse_container
from repro.common.errors import CodecError
from repro.common.lossless_wrap import unwrap_lossless, wrap_lossless
from repro.common.quantizer import DEFAULT_RADIUS, LinearQuantizer
from repro.core.pipeline import resolve_eb
from repro.huffman import (FORMAT_KEY, FORMAT_VERSION, huffman_decode,
                           huffman_encode, read_stream)
from repro.registry import register

__all__ = ["SZ14", "wavefront_planes"]


def wavefront_planes(shape: tuple[int, ...]):
    """Yield (flat indices, neighbor flat index arrays) per diagonal.

    For each anti-diagonal ``s = sum(coords)`` (ascending), returns the
    flat indices of its samples plus, per Lorenzo stencil term, the flat
    indices of the (already processed) neighbors with out-of-domain terms
    marked by -1.
    """
    ndim = len(shape)
    coords = np.indices(shape).reshape(ndim, -1)
    sums = coords.sum(axis=0)
    order = np.argsort(sums, kind="stable")
    strides = [1] * ndim
    for ax in range(ndim - 2, -1, -1):
        strides[ax] = strides[ax + 1] * shape[ax + 1]
    strides_arr = np.asarray(strides)
    flat_all = (coords * strides_arr[:, None]).sum(axis=0)

    # Lorenzo stencil: every nonempty subset of axes offset by -1, sign
    # (+1 for odd subsets, -1 for even) — the inclusion-exclusion corner sum
    subsets = []
    for mask in range(1, 1 << ndim):
        axes = [ax for ax in range(ndim) if mask >> ax & 1]
        sign = 1.0 if len(axes) % 2 == 1 else -1.0
        subsets.append((axes, sign))

    boundaries = np.searchsorted(sums[order],
                                 np.arange(int(sums.max()) + 2))
    for s in range(int(sums.max()) + 1):
        sel = order[boundaries[s]:boundaries[s + 1]]
        pts = coords[:, sel]
        neighbor_flats = []
        signs = []
        for axes, sign in subsets:
            moved = pts.copy()
            ok = np.ones(sel.size, dtype=bool)
            for ax in axes:
                moved[ax] = moved[ax] - 1
                ok &= moved[ax] >= 0
            nflat = (moved * strides_arr[:, None]).sum(axis=0)
            nflat[~ok] = -1
            neighbor_flats.append(nflat)
            signs.append(sign)
        yield flat_all[sel], neighbor_flats, signs


@register
class SZ14:
    """Classic (error-feedback) Lorenzo compressor, SZ1.4 style."""

    name = "sz14"

    def __init__(self, eb: float = 1e-3, mode: str = "rel",
                 lossless: str = "zlib", radius: int = DEFAULT_RADIUS):
        self.eb = float(eb)
        self.mode = mode
        self.lossless = lossless
        self.radius = int(radius)

    def _traverse(self, shape, work_flat, quantizer, abs_eb,
                  orig_flat=None, codes=None, outliers=None):
        """Shared wavefront traversal; compresses when ``orig_flat`` given,
        decompresses otherwise. Returns (codes, outliers) when compressing.
        """
        compressing = orig_flat is not None
        out_codes = [] if compressing else None
        out_vals = [] if compressing else None
        cursor = 0
        out_cursor = 0
        for flat, neighbor_flats, signs in wavefront_planes(shape):
            pred = np.zeros(flat.size, dtype=np.float64)
            for nflat, sign in zip(neighbor_flats, signs):
                safe = np.maximum(nflat, 0)
                vals = work_flat[safe]
                vals = np.where(nflat >= 0, vals, 0.0)
                pred += sign * vals
            if compressing:
                res = quantizer.quantize(orig_flat[flat], pred, abs_eb)
                work_flat[flat] = res.reconstructed
                out_codes.append(res.codes)
                out_vals.append(res.outlier_values)
            else:
                pass_codes = codes[cursor:cursor + flat.size]
                cursor += flat.size
                recon, out_cursor = quantizer.dequantize(
                    pass_codes, pred, abs_eb, outliers, out_cursor)
                work_flat[flat] = recon
        if compressing:
            return (np.concatenate(out_codes),
                    np.concatenate(out_vals) if out_vals else
                    np.empty(0, np.float32))
        return None

    def compress(self, data: np.ndarray) -> bytes:
        data = validate_field(data)
        abs_eb = resolve_eb(data, self.eb, self.mode)
        quantizer = LinearQuantizer(self.radius, value_dtype=data.dtype)
        work = np.zeros(data.size, dtype=np.float64)
        codes, outliers = self._traverse(data.shape, work, quantizer,
                                         abs_eb,
                                         orig_flat=data.astype(
                                             np.float64).ravel())
        stream = huffman_encode(codes, quantizer.n_codes)
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
            "outliers": outliers.tobytes(),
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
        quantizer = LinearQuantizer(int(meta["radius"]), value_dtype=dtype)
        codes = huffman_decode(read_stream(segments["huffman"], meta))
        outliers = np.frombuffer(segments["outliers"], dtype=dtype)
        if outliers.size != int(meta["n_outliers"]):
            raise CodecError("outlier segment size mismatch")
        work = np.zeros(int(np.prod(shape)), dtype=np.float64)
        self._traverse(shape, work, quantizer, abs_eb, codes=codes,
                       outliers=outliers)
        return work.reshape(shape).astype(dtype)
