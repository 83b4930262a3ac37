"""Dual-quantization Lorenzo prediction (cuSZ's predictor; paper §III-A).

cuSZ's key GPU trick ("dual-quant") removes the loop-carried dependency of
classic Lorenzo prediction: samples are first *pre-quantized* onto the
integer lattice ``round(x / 2eb)``, then the Lorenzo prediction error
becomes an exact integer finite difference — fully parallel in both
directions, since decompression is just an inclusive scan (cumulative sum)
per axis. The reconstruction ``2eb * p`` is within ``eb`` of the original
by construction.

The same primitive backs cuSZ, FZ-GPU, and (in 1D blocked form) cuSZp.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError
from repro.common.quantizer import check_error_bound

__all__ = ["lorenzo_prequantize", "lorenzo_delta", "lorenzo_reconstruct",
           "split_outliers", "merge_outliers"]


def lorenzo_prequantize(data: np.ndarray, abs_eb: float) -> np.ndarray:
    """Pre-quantize onto the ``2*eb`` integer lattice (int64)."""
    check_error_bound(abs_eb)
    return np.rint(data.astype(np.float64) / (2.0 * abs_eb)).astype(np.int64)


def lorenzo_delta(prequant: np.ndarray) -> np.ndarray:
    """N-dimensional Lorenzo prediction error of the pre-quantized lattice.

    Separable: one first difference per axis (zero boundary), the integer
    form of the 1/2/3D Lorenzo stencil.
    """
    delta = prequant
    for ax in range(prequant.ndim):
        delta = np.diff(delta, axis=ax, prepend=0)
    return delta


def lorenzo_reconstruct(delta: np.ndarray, abs_eb: float) -> np.ndarray:
    """Invert :func:`lorenzo_delta` and undo pre-quantization.

    One inclusive scan per axis (the GPU decompression kernel), then scale
    back to values. Returns float64.
    """
    check_error_bound(abs_eb)
    p = delta
    for ax in range(delta.ndim):
        p = np.cumsum(p, axis=ax)
    return p.astype(np.float64) * (2.0 * abs_eb)


def split_outliers(delta: np.ndarray, radius: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Map deltas to the Huffman alphabet with outlier compaction.

    In-alphabet deltas become ``delta + radius`` in ``[1, 2*radius)``; the
    rest get the reserved code 0 and their exact int64 value is compacted
    (cuSZ's outlier side channel). Returns ``(codes uint32, outliers
    int64)``.
    """
    flat = delta.ravel()
    bad = np.abs(flat) >= radius
    codes = np.zeros(flat.size, dtype=np.uint32)
    good = ~bad
    codes[good] = (flat[good] + radius).astype(np.uint32)
    return codes, flat[bad].astype(np.int64)


def merge_outliers(codes: np.ndarray, outliers: np.ndarray,
                   radius: int) -> np.ndarray:
    """Invert :func:`split_outliers` back to the int64 delta stream."""
    codes = np.asarray(codes, dtype=np.int64).ravel()
    delta = codes - radius
    is_out = codes == 0
    n_out = int(is_out.sum())
    if n_out != outliers.size:
        raise ConfigError("outlier count mismatch")
    if n_out:
        delta[is_out] = outliers
    return delta
