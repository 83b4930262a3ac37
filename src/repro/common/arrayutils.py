"""Array helpers shared by the predictors and codecs.

The interpolation predictors operate on grids padded so that every axis
length is ``k * anchor_stride + 1`` (an anchor sits on both the first and
last sample of every axis). Padding replicates the edge sample, which keeps
the padded region maximally predictable and therefore nearly free after
entropy coding.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import DataError

__all__ = [
    "validate_field",
    "validate_layout",
    "finite_bounds",
    "pad_to_grid",
    "crop_to_shape",
    "value_range",
    "as_f64",
    "blocks_along",
]


def validate_field(data: np.ndarray, *, max_ndim: int = 3) -> np.ndarray:
    """Validate a scientific field for compression.

    Accepts float32/float64 arrays of 1..``max_ndim`` dimensions; returns a
    C-contiguous view (copying only when needed). Raises
    :class:`~repro.common.errors.DataError` for anything a compressor cannot
    consume (empty arrays, NaNs/Infs, unsupported dtypes).
    """
    data = validate_layout(data, max_ndim=max_ndim)
    finite_bounds(data)
    return data


def validate_layout(data: np.ndarray, *, max_ndim: int = 3) -> np.ndarray:
    """:func:`validate_field` without its scan of the values, for a
    caller that scans them once itself with :func:`finite_bounds`."""
    if not isinstance(data, np.ndarray):
        raise DataError(f"expected numpy.ndarray, got {type(data).__name__}")
    if data.ndim < 1 or data.ndim > max_ndim:
        raise DataError(f"expected 1..{max_ndim}D data, got {data.ndim}D")
    if data.size == 0:
        raise DataError("cannot compress an empty array")
    if data.dtype not in (np.float32, np.float64):
        raise DataError(f"unsupported dtype {data.dtype}; use float32/float64")
    return np.ascontiguousarray(data)


def finite_bounds(data: np.ndarray) -> tuple[np.floating, np.floating]:
    """``(min, max)`` of a non-empty field, as scalars of its dtype.

    One NaN-propagating min/max serves as the finiteness check: any NaN
    makes both NaN and any ±Inf reaches one of them, so a field with a
    non-finite value raises :class:`~repro.common.errors.DataError`.
    ``float(hi - lo)`` is :func:`value_range`, bit for bit.
    """
    lo, hi = data.min(), data.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        bad = int(data.size - np.isfinite(data).sum())
        raise DataError(f"input contains {bad} non-finite value(s) "
                        f"(NaN/Inf); error-bounded compression requires "
                        f"finite data")
    return lo, hi


def pad_to_grid(data: np.ndarray, stride: int) -> np.ndarray:
    """Pad every axis of ``data`` up to ``k * stride + 1`` samples.

    Edge values are replicated. If an axis already has length
    ``k * stride + 1`` it is left untouched.
    """
    if stride < 1:
        raise DataError(f"stride must be >= 1, got {stride}")
    pads = []
    for n in data.shape:
        # smallest m >= n with m % stride == 1 (and m >= stride + 1)
        rem = (n - 1) % stride
        pads.append((0, 0 if rem == 0 else stride - rem))
    if all(p == (0, 0) for p in pads):
        return data
    return np.pad(data, pads, mode="edge")


def crop_to_shape(data: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Crop a padded array back to its original ``shape``."""
    if len(shape) != data.ndim:
        raise DataError("crop shape rank mismatch")
    slices = tuple(slice(0, n) for n in shape)
    return data[slices]


def value_range(data: np.ndarray) -> float:
    """Value range (max - min) of the field, as a Python float."""
    return float(data.max() - data.min())


def as_f64(data: np.ndarray) -> np.ndarray:
    """Upcast to float64 working precision (copy iff needed).

    Compressor and decompressor run identical float64 arithmetic so that
    reconstructions replay bit-exactly on both sides.
    """
    return data.astype(np.float64, copy=False)


def blocks_along(n: int, block: int) -> int:
    """Number of ``block``-sized tiles covering ``n`` samples (ceil div)."""
    return -(-n // block)
