"""Huffman tree construction with length limiting.

The codebook is built on the CPU (paper §VI-A: with G-Interp's concentrated
histograms, a GPU tree build is not worthwhile; cuSZ-i moves it host-side at
~200 us end-to-end). We build the optimal tree with a two-queue merge
(the leaves sorted by weight, and a FIFO of internal nodes), which makes
the same merges a heap would, in linear time after the sort. Code
lengths are then limited to :data:`repro.huffman.canonical.MAX_CODE_LEN`
so every codeword fits one 16-bit decode window — the standard trick of
clamping and then restoring the Kraft inequality by lengthening the
cheapest (least frequent) short codes, one cumsum per sweep over them.
The heap version is kept as the test oracle
(``tests/oracles.py::code_lengths_heap``).

:func:`fingerprint_code_lengths` layers a **quantized-fingerprint cache**
on top: the histogram is reduced to its support plus quarter-``log2``
frequency magnitudes, and the tree is built from *representative*
frequencies reconstructed from that fingerprint. Two histograms with the
same fingerprint — an eb-retune of the same field, successive timesteps
of a stream — then share one tree build. Because the lengths are a pure
function of the fingerprint (never of raw counts or of cache history),
every execution path emits byte-identical streams for byte-identical
inputs, warm or cold, serial or pooled.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

from repro.telemetry import caches
from repro.common.errors import CodecError

__all__ = ["code_lengths", "fingerprint_code_lengths",
           "histogram_fingerprint", "clear_fingerprint_cache",
           "fingerprint_cache_stats"]

#: quarter-log2 frequency resolution of the histogram fingerprint: counts
#: within ~19% of each other collapse into the same bucket, which is far
#: below what a length-limited Huffman code can distinguish
_FP_LOG_SCALE = 4.0

#: distinct fingerprints remembered; timestep streams reuse one entry,
#: multi-field runs a handful
_FP_CACHE_SIZE = 64

_fp_lock = threading.Lock()
_fp_cache: OrderedDict[bytes, np.ndarray] = OrderedDict()
_fp_stats = {"hits": 0, "misses": 0, "evictions": 0}
#: running bytes (keys and length vectors) held by ``_fp_cache``, so a
#: registry snapshot never walks its entries
_fp_bytes = 0


def _tree_lengths(freqs: np.ndarray) -> np.ndarray:
    """Unrestricted optimal code lengths for the nonzero-frequency symbols.

    Two-queue merge: the leaves sorted stably by weight, and a FIFO of
    internal nodes, whose weights never decrease in creation order. Each
    step merges the two lightest queue fronts, the leaf winning a weight
    tie. A heap keyed on ``(weight, counter)`` with leaves counted first,
    in symbol order, pops nodes in exactly this order, so the lengths
    (and every stream byte) match it. Each merge records only the
    children's parent; depths follow from one reverse sweep over the
    internal nodes (a parent is always created after its children). The
    merge and the sweep run on Python lists: a NumPy scalar per step
    costs more than the step.
    """
    sym = np.flatnonzero(freqs)
    lengths = np.zeros(freqs.size, dtype=np.int64)
    if sym.size == 0:
        return lengths
    if sym.size == 1:
        lengths[sym[0]] = 1  # a lone symbol still needs one bit per element
        return lengths
    m = sym.size
    order = np.argsort(freqs[sym], kind="stable")
    # node ids: leaves 0..m-1 in sorted order, internal nodes m.. in
    # creation order; ``parent`` holds the parent's creation index k
    # (node m + k). An infinite weight closes each queue, so neither
    # front needs a bounds check (two live nodes remain at every merge)
    leaf_w = freqs[sym[order]].tolist() + [math.inf]
    node_w = [math.inf] * (m - 1)   # internal node m + k weighs node_w[k]
    parent = [0] * (2 * m - 1)
    i = j = 0
    for k in range(m - 1):
        if node_w[j] < leaf_w[i]:   # the leaf wins a weight tie
            a = node_w[j]
            parent[m + j] = k
            j += 1
        else:
            a = leaf_w[i]
            parent[i] = k
            i += 1
        if node_w[j] < leaf_w[i]:
            a += node_w[j]
            parent[m + j] = k
            j += 1
        else:
            a += leaf_w[i]
            parent[i] = k
            i += 1
        node_w[k] = a
    depth = [0] * (m - 1)           # internal node m + k at depth[k]
    for k in range(m - 3, -1, -1):
        depth[k] = depth[parent[m + k]] + 1
    lengths[sym[order]] = np.take(depth, parent[:m]) + 1
    return lengths


def code_lengths(freqs: np.ndarray, max_len: int) -> np.ndarray:
    """Length-limited Huffman code lengths per symbol (0 = unused symbol).

    Builds the optimal tree, clamps any over-long codes to ``max_len``, then
    repairs the Kraft sum by incrementing the lengths of the least frequent
    symbols until the code is realizable. Guaranteed to terminate whenever
    the alphabet fits in ``max_len`` bits.
    """
    freqs = np.asarray(freqs, dtype=np.int64).ravel()
    if np.any(freqs < 0):
        raise CodecError("negative frequency")
    n_used = int(np.count_nonzero(freqs))
    if n_used > (1 << max_len):
        raise CodecError(
            f"{n_used} symbols cannot fit in {max_len}-bit codes")
    lengths = _tree_lengths(freqs)
    if n_used == 0:
        return lengths
    over = lengths > max_len
    if not np.any(over):
        return lengths
    lengths[over] = max_len

    # Kraft sum in units of 2^-max_len; must come down to <= 2^max_len.
    unit = 1 << max_len
    kraft = int(np.sum(unit >> lengths[lengths > 0]))
    # lengthen least-frequent symbols first, one sweep over them at a
    # time; each +1 on a symbol of length l releases 2^(max_len - l - 1)
    # units, and a sweep stops at the first symbol that brings the sum
    # down to the limit (one cumsum finds it)
    order = np.flatnonzero(freqs)
    order = order[np.argsort(freqs[order], kind="stable")]
    while kraft > unit:
        live = order[lengths[order] < max_len]
        if not live.size:  # pragma: no cover - guarded by n_used check
            raise CodecError("cannot satisfy Kraft inequality")
        released = np.cumsum(unit >> (lengths[live] + 1))
        stop = int(np.searchsorted(released, kraft - unit)) + 1
        lengths[live[:stop]] += 1
        kraft -= int(released[min(stop, live.size) - 1])
    return lengths


# -- quantized-fingerprint codebook cache ------------------------------------

def histogram_fingerprint(freqs: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Reduce a histogram to ``(key, representative frequencies)``.

    The key is the nonzero support plus each count's quarter-``log2``
    magnitude bucket; the representative counts are reconstructed **from
    the buckets**, so any two histograms sharing a key also share the
    exact representative vector — and therefore the exact tree. The
    largest bucket is normalized to ``2**40`` so weight sums stay well
    inside int64 for any alphabet a 16-bit code can hold.
    """
    freqs = np.asarray(freqs, dtype=np.int64).ravel()
    nz = np.flatnonzero(freqs > 0)
    if nz.size == 0:
        return (freqs.size.to_bytes(8, "little"),
                np.zeros(freqs.size, dtype=np.int64))
    qlog = np.rint(np.log2(freqs[nz].astype(np.float64))
                   * _FP_LOG_SCALE).astype(np.int64)
    key = (freqs.size.to_bytes(8, "little")
           + nz.astype(np.int64).tobytes() + qlog.tobytes())
    rep = np.zeros(freqs.size, dtype=np.int64)
    scaled = 2.0 ** ((qlog - qlog.max()) / _FP_LOG_SCALE + 40.0)
    rep[nz] = np.maximum(np.rint(scaled).astype(np.int64), 1)
    return key, rep


def fingerprint_code_lengths(freqs: np.ndarray, max_len: int, *,
                             prewarm_lut: bool = False) -> np.ndarray:
    """:func:`code_lengths` behind the quantized-fingerprint LRU.

    Misses build the tree from the fingerprint's representative counts
    (not the raw ones) so a later hit on the same fingerprint returns the
    identical length vector — stream bytes are a pure function of the
    input histogram, independent of cache state.

    ``prewarm_lut=True`` additionally kicks off an off-thread probe-LUT
    build on a cache *hit*: a recurring codebook predicts a near-future
    decode of the same stream family, so its decode surface is built
    while the encode is still running instead of inside that decode.
    """
    global _fp_bytes
    key, rep = histogram_fingerprint(freqs)
    key = max_len.to_bytes(2, "little") + key
    with _fp_lock:
        hit = _fp_cache.get(key)
        if hit is not None:
            _fp_cache.move_to_end(key)
            _fp_stats["hits"] += 1
    if hit is not None:
        if prewarm_lut:
            from repro.huffman.canonical import prewarm_lut_async
            prewarm_lut_async(hit)
        return hit
    lengths = code_lengths(rep, max_len)
    lengths.setflags(write=False)
    with _fp_lock:
        _fp_stats["misses"] += 1
        # a racing miss on the same key replaces the entry it inserted
        old = _fp_cache.pop(key, None)
        if old is not None:
            _fp_bytes -= len(key) + old.nbytes
        _fp_cache[key] = lengths
        _fp_bytes += len(key) + lengths.nbytes
        while len(_fp_cache) > _FP_CACHE_SIZE:
            k, evicted = _fp_cache.popitem(last=False)
            _fp_bytes -= len(k) + evicted.nbytes
            _fp_stats["evictions"] += 1
    return lengths


def clear_fingerprint_cache() -> None:
    """Drop the fingerprint LRU and reset its counters (tests)."""
    global _fp_bytes
    with _fp_lock:
        _fp_cache.clear()
        _fp_bytes = 0
        for k in _fp_stats:
            _fp_stats[k] = 0


def fingerprint_cache_stats() -> dict[str, int]:
    """Registry-shaped snapshot of the fingerprint cache counters."""
    with _fp_lock:
        return {**_fp_stats, "size": len(_fp_cache),
                "limit": _FP_CACHE_SIZE,
                "size_bytes": _fp_bytes}


caches.register("huffman.fingerprint", fingerprint_cache_stats)
