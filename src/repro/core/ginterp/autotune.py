"""Profiling-based auto-tuning of G-Interp (paper §V-C).

A lightweight profiling kernel decides three things before compression:

1. **alpha** — the level-wise error-bound reduction factor, from the
   piecewise-linear map of the value-range-relative error bound (Eq. 1);
2. **per-axis cubic variant** — for each axis, sampled cubic interpolation
   errors pick not-a-knot vs natural;
3. **axis order** — axes are interpolated least-smooth-first (largest
   profiled error first), so the smoothest axis absorbs the most
   interpolations (§V-C.2, after [SZ3]).

The chosen configuration travels in the stream header: decompression must
replay the same traversal without access to the original data.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.telemetry import caches
from repro.common.errors import DataError
from repro.core.ginterp.splines import (CUBIC_NAK, CUBIC_NAT,
                                        SPLINE_WEIGHTS)

__all__ = ["alpha_from_eb", "profile_cubic_errors", "autotune",
           "TuneReport", "field_fingerprint", "clear_autotune_cache",
           "autotune_cache_stats", "set_autotune_cache_limit"]

#: sampled sub-grid extent per axis (paper: "e.g. a 4^3 sub-grid")
PROFILE_SAMPLES = 4

#: fields whose profiling outcome is remembered; keys are content digests,
#: so recompressing the same field at a new error bound skips the pass
_CACHE_SIZE = 32

_cache_lock = threading.Lock()
#: digest -> (value_range, profiled (ndim, 2) error matrix)
_profile_cache: OrderedDict[bytes, tuple[float, np.ndarray]] = OrderedDict()
_cache_stats = {"hits": 0, "misses": 0, "evictions": 0}
#: running bytes held by ``_profile_cache`` (per entry: SHA-1 key +
#: value-range float + error matrix), so a registry snapshot never walks
#: the entries
_cache_bytes = 0


def _entry_nbytes(errors: np.ndarray) -> int:
    return 20 + 8 + errors.nbytes


def _evict_over_limit() -> None:
    """Drop least-recently-used profiles past the limit (lock held)."""
    global _cache_bytes
    while len(_profile_cache) > _CACHE_SIZE:
        _, (_rng, evicted) = _profile_cache.popitem(last=False)
        _cache_bytes -= _entry_nbytes(evicted)
        _cache_stats["evictions"] += 1


def clear_autotune_cache() -> None:
    """Drop the content-keyed profiling cache (mainly for tests)."""
    global _cache_bytes
    with _cache_lock:
        _profile_cache.clear()
        _cache_bytes = 0
        _cache_stats["hits"] = 0
        _cache_stats["misses"] = 0
        _cache_stats["evictions"] = 0


def autotune_cache_stats() -> dict[str, int]:
    """Snapshot of the profiling cache hit/miss counters and occupancy."""
    with _cache_lock:
        return {**_cache_stats, "size": len(_profile_cache),
                "limit": _CACHE_SIZE, "size_bytes": _cache_bytes}


def set_autotune_cache_limit(limit: int) -> int:
    """Resize the profiling LRU (returns the previous limit).

    Pool workers raise this to the pool-configured worker cache limit so
    long-lived daemons stop thrashing on many-field batches."""
    global _CACHE_SIZE
    if limit < 1:
        raise DataError(f"autotune cache limit must be >= 1, got {limit}")
    with _cache_lock:
        old = _CACHE_SIZE
        _CACHE_SIZE = int(limit)
        _evict_over_limit()
    return old


caches.register("ginterp.autotune", autotune_cache_stats)


#: evenly spaced blocks hashed by the sampled fingerprint, and the bytes
#: taken from each; fields at or below the product are hashed in full
_FINGERPRINT_BLOCKS = 16
_FINGERPRINT_BLOCK_BYTES = 4096


def _content_key(data: np.ndarray, samples: int) -> bytes:
    """Sampled fingerprint of the field: shape, dtype, byte count, and
    16 evenly spaced 4 KiB blocks of the buffer.

    Full-buffer hashing made the fingerprint itself a large share of the
    cold ``tune`` stage (SHA-1 at memory bandwidth over the whole field,
    paid again on every eb retune before the cache could answer). The
    sampled key cuts that to ~64 KiB regardless of field size. The
    tradeoff is a nonzero (though practically negligible — two fields
    must agree on shape, dtype, byte count, *and* all sampled blocks)
    collision risk, and it is a *ratio-only* risk: the tuning decision
    always travels in the stream header, so a mistuned field decompresses
    correctly, just with a suboptimal code.
    """
    h = hashlib.sha1()
    h.update(str((data.shape, data.dtype.str, samples,
                  data.nbytes)).encode())
    buf = np.ascontiguousarray(data).view(np.uint8).ravel()
    span = _FINGERPRINT_BLOCKS * _FINGERPRINT_BLOCK_BYTES
    if buf.size <= span:
        h.update(buf.tobytes())
    else:
        starts = np.linspace(0, buf.size - _FINGERPRINT_BLOCK_BYTES,
                             _FINGERPRINT_BLOCKS).astype(np.int64)
        for s in starts:
            h.update(buf[s:s + _FINGERPRINT_BLOCK_BYTES].tobytes())
    return h.digest()


#: hex digits of the public fingerprint (64 bits of the SHA-1 digest):
#: short enough to be a Prometheus label / cohort key, long enough that
#: accidental collisions across a fleet of fields are negligible
_FINGERPRINT_HEX_DIGITS = 16


def field_fingerprint(data: np.ndarray,
                      samples: int = PROFILE_SAMPLES) -> str:
    """The sampled content fingerprint of a field, as a short hex id.

    This is the same digest the autotune profiling cache keys on
    (:func:`_content_key`), truncated to 64 bits of hex — stable across
    runs and processes for identical content, and cheap (~64 KiB hashed
    regardless of field size). The flight recorder stamps it into
    ``attrs["fingerprint"]`` so ledger analytics can cohort runs by
    field class (:mod:`repro.telemetry.analytics`).
    """
    return _content_key(data, samples).hex()[:_FINGERPRINT_HEX_DIGITS]


def alpha_from_eb(rel_eb: float) -> float:
    """Eq. 1: piecewise-linear map from relative error bound to alpha."""
    e = float(rel_eb)
    if e >= 1e-1:
        return 2.0
    if e >= 1e-2:
        return 1.75 + 0.25 * (e - 1e-2) / (1e-1 - 1e-2)
    if e >= 1e-3:
        return 1.5 + 0.25 * (e - 1e-3) / (1e-2 - 1e-3)
    if e >= 1e-4:
        return 1.25 + 0.25 * (e - 1e-4) / (1e-3 - 1e-4)
    if e >= 1e-5:
        return 1.0 + 0.25 * (e - 1e-5) / (1e-4 - 1e-5)
    return 1.0


@dataclass
class TuneReport:
    """Outcome of the profiling kernel."""

    alpha: float
    cubic_variant: tuple[int, ...]   # per-axis winning cubic class id
    axis_order: tuple[int, ...]      # least-smooth-first
    profiled_errors: tuple[float, ...]  # per-axis best-spline error sums
    value_range: float
    fingerprint: str | None = None   # sampled content id (cohort key)


def profile_cubic_errors(data: np.ndarray,
                         samples: int = PROFILE_SAMPLES) -> np.ndarray:
    """Accumulated |prediction error| per (axis, cubic variant).

    Uniformly samples up to ``samples`` positions per axis (keeping 3
    samples of margin so all four cubic neighbors exist) and evaluates both
    cubic splines along every axis — ``2 * ndim`` tests per sampled point,
    as in §V-C.1. Returns an ``(ndim, 2)`` array of error sums indexed by
    (axis, {not-a-knot, natural}).
    """
    ndim = data.ndim
    errors = np.zeros((ndim, 2), dtype=np.float64)
    margin = 3
    coords = []
    for n in data.shape:
        lo, hi = margin, n - 1 - margin
        if hi < lo:  # axis too short to profile; sample its midpoint
            coords.append(np.array([n // 2], dtype=np.int64))
        else:
            coords.append(np.unique(np.linspace(lo, hi, samples)
                                    .astype(np.int64)))
    grids = np.meshgrid(*coords, indexing="ij")
    flat_pts = np.stack([g.ravel() for g in grids], axis=1)
    values = data[tuple(flat_pts.T)].astype(np.float64)

    weights_nak = SPLINE_WEIGHTS[CUBIC_NAK]
    weights_nat = SPLINE_WEIGHTS[CUBIC_NAT]
    offsets = np.array([-3, -1, 1, 3], dtype=np.int64)
    for ax in range(ndim):
        n = data.shape[ax]
        pos = flat_pts[:, ax]
        ok = (pos + 3 <= n - 1) & (pos - 3 >= 0)
        if not np.any(ok):
            continue
        pts = flat_pts[ok]
        vals = values[ok]
        # one advanced-index gather for all four neighbors: every axis
        # index broadcasts as a (1, npts) row except the profiled axis,
        # which fans out to the (4, npts) offset grid — no per-offset
        # coordinate copies
        idx = [pts[:, d][None, :] for d in range(ndim)]
        idx[ax] = pts[:, ax][None, :] + offsets[:, None]
        neigh = np.ascontiguousarray(
            data[tuple(idx)].T).astype(np.float64)
        errors[ax, 0] = np.abs(neigh @ weights_nak - vals).sum()
        errors[ax, 1] = np.abs(neigh @ weights_nat - vals).sum()
    return errors


def autotune(data: np.ndarray, abs_eb: float,
             samples: int = PROFILE_SAMPLES) -> TuneReport:
    """Run the full §V-C profiling-and-auto-tuning kernel.

    The data-dependent parts (value range, sampled cubic errors) are
    memoized per field content; only the cheap ``abs_eb``-dependent alpha
    map reruns when the same field is compressed at a new error bound.

    Non-finite fields are rejected up front: a NaN/Inf sample makes the
    value range (hence ``rel_eb`` and alpha) NaN and poisons the sampled
    spline errors, silently mistuning the whole traversal.
    """
    global _cache_bytes
    if not np.isfinite(data).all():
        bad = int(data.size - np.isfinite(data).sum())
        raise DataError(
            f"autotune input contains {bad} non-finite value(s) "
            f"(NaN/Inf); mask or filter them before tuning")
    key = _content_key(data, samples)
    with _cache_lock:
        cached = _profile_cache.get(key)
        if cached is not None:
            _profile_cache.move_to_end(key)
            _cache_stats["hits"] += 1
    if cached is not None:
        rng, errors = cached
    else:
        rng = float(data.max() - data.min())
        errors = profile_cubic_errors(data, samples)
        errors.setflags(write=False)
        with _cache_lock:
            _cache_stats["misses"] += 1
            # a racing miss on the same key replaces the entry it inserted
            old = _profile_cache.pop(key, None)
            if old is not None:
                _cache_bytes -= _entry_nbytes(old[1])
            _profile_cache[key] = (rng, errors)
            _cache_bytes += _entry_nbytes(errors)
            _evict_over_limit()
    rel_eb = abs_eb / rng if rng > 0 else 1.0
    alpha = alpha_from_eb(rel_eb)
    variants = tuple(CUBIC_NAK if errors[ax, 0] <= errors[ax, 1]
                     else CUBIC_NAT for ax in range(data.ndim))
    best = errors.min(axis=1)
    # least smooth (largest error) first; ties resolved by axis index for
    # determinism
    order = tuple(int(ax) for ax in
                  np.argsort(-best, kind="stable"))
    return TuneReport(alpha=alpha, cubic_variant=variants, axis_order=order,
                      profiled_errors=tuple(float(b) for b in best),
                      value_range=rng,
                      fingerprint=key.hex()[:_FINGERPRINT_HEX_DIGITS])
