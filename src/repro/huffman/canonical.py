"""Canonical code assignment and the table-driven decode surfaces.

Canonical Huffman codes are fully determined by the per-symbol code
*lengths*, so only the length array travels in the compressed stream.
Both sides expand it through one helper, :func:`canonical_order`: the
used symbols in canonical order (shortest first, ties by symbol index),
their lengths, and each codeword's *left-justified start* — its value
shifted to ``MAX_CODE_LEN`` bits. In that order the codewords tile
``[0, end)`` of the ``2**MAX_CODE_LEN`` windows without gaps, so

* the encoder's per-symbol codewords are the starts shifted back down
  (:func:`canonical_codebook`);
* the codeword a window opens with is one ``searchsorted`` over the
  starts, and a window at or past ``end`` opens no codeword — the
  decoder's rare fallback for a codeword wider than its probe;
* the **multi-symbol LUT** (:func:`build_lut_tables`) — ``2**K`` entries
  (``K`` = probe width, chosen per stream by the decoder) mapping the
  next ``K`` bits to *every complete codeword inside the probe*:
  ``(symbols[:count], cumulative bits)`` — is built from a first-codeword
  table at width ``K`` alone: the codes no wider than ``K`` fill a
  prefix of the ``2**K`` windows, so two ``np.repeat`` calls lay it
  out. One gather decodes up to ``K`` symbols, which is what lets the
  chunk-parallel decode loop in :mod:`repro.huffman.codec` consume tens
  of bits per 64-bit window instead of one codeword per table lookup.

No surface spans all ``2**MAX_CODE_LEN`` windows: a cold decode pays
only for the widths it probes at.

Both surfaces are pure functions of the length array, and static
codebooks (:mod:`repro.huffman.static`) reuse the same handful of length
vectors across every chunk-stream of a run, so each is memoized in an LRU
cache keyed on the length bytes. The LUT cache is additionally
**byte-budgeted** (its entries are 100s of KiB each). Both caches keep
running byte totals, so a registry snapshot reads them without walking
entries. Cached arrays are returned read-only so one caller cannot
corrupt another's view.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from repro import telemetry
from repro.telemetry import caches
from repro.common.errors import CodecError

__all__ = ["canonical_codebook", "canonical_order", "CanonicalCode",
           "build_lut_tables", "lut_cached", "MAX_CODE_LEN",
           "clear_codebook_caches", "codebook_cache_stats",
           "warm_lengths", "warm_tables",
           "prewarm_lut_async", "drain_lut_prewarm"]

#: Code lengths are bounded so every codeword fits one 16-bit window;
#: 16 bits supports the 1024-symbol quant alphabet with room to spare.
#: It is also the widest (and default) probe of the multi-symbol LUT: a
#: full-width probe can never meet a codeword it cannot finish, so decode
#: never needs the wide-codeword fallback, at the price of the largest
#: build (~3 MiB, 10-16 ms). Narrower probes build far faster and decode
#: somewhat slower; :func:`repro.huffman.codec.choose_probe_bits` picks
#: one per stream (see docs/PERFORMANCE.md for the measured table).
MAX_CODE_LEN = 16

#: distinct length vectors kept per cache; static families have < 10 members
#: and dynamic codebooks are per-field, so a few dozen covers real runs
_CACHE_SIZE = 64

#: byte budget of the probe-LUT cache (the codebook cache stays
#: count-bounded: its entries are a few KiB). A full-width probe LUT is
#: ~3 MiB, so the budget holds the whole static family plus several
#: dynamic codebooks — enough for real multi-field runs — while bounding
#: worst-case growth.
LUT_CACHE_BYTES = 24 << 20

_cache_lock = threading.Lock()
_codebook_cache: OrderedDict[bytes, "CanonicalCode"] = OrderedDict()
_lut_cache: OrderedDict[tuple, tuple] = OrderedDict()
_cache_stats = {"codebook_hits": 0, "codebook_misses": 0,
                "codebook_evictions": 0,
                "lut_hits": 0, "lut_misses": 0, "lut_evictions": 0}
#: running byte totals (keys and values) of each cache, kept by every
#: insert, replace, eviction and clear so registry snapshots are O(1)
_cache_bytes = {"codebook": 0, "lut": 0}

_BYTE_BUDGETS = {"lut": LUT_CACHE_BYTES}


def clear_codebook_caches() -> None:
    """Drop both LRU caches (tests; long-lived processes never
    need to)."""
    with _cache_lock:
        _codebook_cache.clear()
        _lut_cache.clear()
        for k in _cache_stats:
            _cache_stats[k] = 0
        for k in _cache_bytes:
            _cache_bytes[k] = 0


def codebook_cache_stats() -> dict[str, int]:
    """Snapshot of hit/miss counters for both caches."""
    with _cache_lock:
        return dict(_cache_stats)


def _entry_nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    return sum(v.nbytes for v in value if isinstance(v, np.ndarray))


def _footprint(key, value) -> int:
    """Bytes an entry holds against its cache's running total: key plus
    value, the ``size_bytes`` the registry reports, so a cache the
    eviction loop keeps within budget never reads as over it."""
    return _key_nbytes(key) + _entry_nbytes(value)


def _cache_get(cache: OrderedDict, key, kind: str):
    with _cache_lock:
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            _cache_stats[f"{kind}_hits"] += 1
            return hit
        _cache_stats[f"{kind}_misses"] += 1
        return None


def _cache_put(cache: OrderedDict, key, value, kind: str) -> None:
    """Insert under the count cap and, where declared, the byte budget.

    Byte-budgeted kinds evict least-recently-used entries until the new
    total fits — the eviction pressure ``repro doctor`` watches via the
    registry's ``size_bytes`` / ``byte_limit`` gauges.
    """
    budget = _BYTE_BUDGETS.get(kind)
    with _cache_lock:
        # a racing build (background prewarm vs foreground) may insert
        # the same key twice: replace, and stop counting the old bytes
        old = cache.pop(key, None)
        cache[key] = value
        if old is not None:
            _cache_bytes[kind] -= _footprint(key, old)
        _cache_bytes[kind] += _footprint(key, value)
        while len(cache) > _CACHE_SIZE or (
                budget is not None and _cache_bytes[kind] > budget
                and len(cache) > 1):
            k, evicted = cache.popitem(last=False)
            _cache_bytes[kind] -= _footprint(k, evicted)
            _cache_stats[f"{kind}_evictions"] += 1


def _registry_stats(cache: OrderedDict, kind: str) -> dict[str, int]:
    with _cache_lock:
        stats = {"hits": _cache_stats[f"{kind}_hits"],
                 "misses": _cache_stats[f"{kind}_misses"],
                 "evictions": _cache_stats[f"{kind}_evictions"],
                 "size": len(cache), "limit": _CACHE_SIZE,
                 "size_bytes": _cache_bytes[kind]}
        budget = _BYTE_BUDGETS.get(kind)
        if budget is not None:
            stats["byte_limit"] = budget
        return stats


def _key_nbytes(key) -> int:
    if isinstance(key, bytes):
        return len(key)
    return sum(len(k) if isinstance(k, bytes) else 8 for k in key)


caches.register("huffman.codebook",
                lambda: _registry_stats(_codebook_cache, "codebook"))
caches.register("huffman.lut",
                lambda: _registry_stats(_lut_cache, "lut"))


def _length_key(lengths: np.ndarray) -> bytes:
    """Cache key: the raw length bytes (validated to fit uint8 first)."""
    if lengths.size and (int(lengths.max()) > MAX_CODE_LEN
                         or int(lengths.min()) < 0):
        raise CodecError(f"code length outside [0, {MAX_CODE_LEN}]")
    return lengths.astype(np.uint8).tobytes()


class CanonicalCode(NamedTuple):
    """A length vector expanded into its canonical code.

    ``order`` lists the used symbols in canonical order (shortest code
    first, ties by symbol index), ``lens`` their code lengths, and
    ``starts`` each codeword left-justified to ``MAX_CODE_LEN`` bits. In
    that order the codewords tile ``[0, end)`` of the
    ``2**MAX_CODE_LEN`` windows without gaps: codeword ``i`` owns
    ``[starts[i], starts[i] + 2**(MAX_CODE_LEN - lens[i]))``. ``codes``
    is the per-symbol codeword the encoder emits (valid only where the
    symbol's length is nonzero).
    """

    codes: np.ndarray
    order: np.ndarray
    lens: np.ndarray
    starts: np.ndarray
    end: int


def canonical_order(lengths: np.ndarray) -> CanonicalCode:
    """The canonical code of ``lengths``, memoized per length vector.

    Codes are assigned shortest-first, ties broken by symbol index — the
    canonical convention, reproducible on both sides from lengths alone.
    Raises :class:`CodecError` on lengths outside ``[0, MAX_CODE_LEN]``
    or lengths that violate the Kraft inequality. All arrays are
    read-only.
    """
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    key = _length_key(lengths)
    cached = _cache_get(_codebook_cache, key, "codebook")
    if cached is not None:
        return cached
    code = _canonical_uncached(lengths)
    for arr in code[:4]:
        arr.setflags(write=False)
    _cache_put(_codebook_cache, key, code, "codebook")
    return code


def canonical_codebook(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codewords given per-symbol lengths.

    Returns a read-only uint32 array of codewords (valid only where
    ``lengths > 0``), the ``codes`` of :func:`canonical_order`.
    """
    return canonical_order(lengths).codes


def _canonical_uncached(lengths: np.ndarray) -> CanonicalCode:
    """Vectorized canonical assignment: in canonical order each
    left-justified start is the previous one plus the previous
    codeword's span, so one cumulative sum lays out every codeword."""
    used = np.flatnonzero(lengths)
    # stable: equal lengths keep ascending symbol order
    order = used[np.argsort(lengths[used], kind="stable")]
    lens = lengths[order]
    span = np.int64(1) << (MAX_CODE_LEN - lens)
    ends = np.cumsum(span)
    end = int(ends[-1]) if ends.size else 0
    if end > 1 << MAX_CODE_LEN:
        raise CodecError("length array violates the Kraft inequality")
    starts = ends - span
    codes = np.zeros(lengths.size, dtype=np.uint32)
    codes[order] = starts >> (MAX_CODE_LEN - lens)
    return CanonicalCode(codes=codes, order=order.astype(np.uint32),
                         lens=lens.astype(np.uint8),
                         starts=starts.astype(np.uint32), end=end)


def lut_cached(lengths: np.ndarray, probe_bits: int = MAX_CODE_LEN) -> bool:
    """Whether the ``probe_bits`` LUT of ``lengths`` is cached. A pure
    membership test: it touches neither the LRU order nor the hit/miss
    counters, so a decoder can pick its width before it fetches."""
    key = (_length_key(np.asarray(lengths, dtype=np.int64).ravel()),
           int(probe_bits))
    with _cache_lock:
        return key in _lut_cache


def build_lut_tables(lengths: np.ndarray,
                     probe_bits: int = MAX_CODE_LEN
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand code lengths into the multi-symbol probe LUT.

    Returns ``(count, cum_bits, syms)``, all read-only, indexed by the
    next ``probe_bits`` payload bits (MSB-first):

    * ``count[w]`` — how many *complete* codewords the probe window ``w``
      contains (0 means the first codeword overruns the probe: the
      decoder resolves it from :func:`canonical_order`'s starts);
    * ``syms[w, :count[w]]`` — the decoded symbols, in stream order;
    * ``cum_bits[w, j]`` — total bits consumed after emitting the first
      ``j`` symbols, with ``cum_bits[w, 0] == 0``: the decode loop
      advances its bit cursor by ``cum_bits[w, emit]`` without masking
      out zero-emit lanes, and any prefix is directly addressable when
      the chunk ends mid-entry.

    Construction chains first-codeword lookups at the probe width per
    row, vectorized across all ``2**probe_bits`` rows at once (the
    table is built at width ``probe_bits`` directly, never at
    ``MAX_CODE_LEN``). A codeword only counts
    when it fits *entirely* inside the probe's real bits — the low-order
    zero padding introduced by the row shift is never interpreted — so a
    LUT probe can never mis-decode across the probe boundary.
    """
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    if not 1 <= probe_bits <= MAX_CODE_LEN:
        raise CodecError(
            f"probe width {probe_bits} outside [1, {MAX_CODE_LEN}]")
    key = (_length_key(lengths), int(probe_bits))
    cached = _cache_get(_lut_cache, key, "lut")
    if cached is not None:
        return cached
    entry = _expand_lut(lengths, probe_bits)
    _put_lut(key, entry)
    return entry


def _put_lut(key: tuple, entry: tuple) -> None:
    """Cache a LUT. A full-width entry first retires the narrower LUTs of
    the same lengths: once it is cached a decoder only picks a narrow
    width when pinned, so they would just hold LUT budget."""
    if key[1] == MAX_CODE_LEN:
        with _cache_lock:
            for width in range(1, MAX_CODE_LEN):
                narrow = (key[0], width)
                old = _lut_cache.pop(narrow, None)
                if old is not None:
                    _cache_bytes["lut"] -= _footprint(narrow, old)
    _cache_put(_lut_cache, key, entry, "lut")


def _first_codeword_table(lengths: np.ndarray, probe_bits: int
                          ) -> tuple[np.ndarray, np.ndarray]:
    """``(symbols, lens)`` of the codeword each ``probe_bits``-bit window
    opens with, length 0 where it opens none that fits the window (a
    wider codeword, or no codeword at all).

    In canonical order the codes no wider than the probe come first and
    fill a prefix of the ``2**probe_bits`` windows, each spanning
    ``2**(probe_bits - length)`` of them, so two ``np.repeat`` calls lay
    the table out.
    """
    code = canonical_order(lengths)
    size = 1 << probe_bits
    fits = int(np.searchsorted(code.lens, probe_bits, side="right"))
    span = np.int64(1) << (probe_bits - code.lens[:fits].astype(np.int64))
    filled = int(span.sum())
    symbols = np.zeros(size, dtype=np.uint32)
    lens = np.zeros(size, dtype=np.int32)
    symbols[:filled] = np.repeat(code.order[:fits], span)
    lens[:filled] = np.repeat(code.lens[:fits], span)
    return symbols, lens


def _expand_lut(lengths: np.ndarray, probe_bits: int) -> tuple:
    """The uncached LUT construction behind :func:`build_lut_tables`."""
    table_syms, lens32 = _first_codeword_table(lengths, probe_bits)
    size = 1 << probe_bits
    mask = np.int32(size - 1)
    count = np.zeros(size, dtype=np.uint8)
    cum = np.zeros((size, probe_bits + 1), dtype=np.uint8)
    # uint16 symbol slots halve the dominant LUT plane whenever the
    # alphabet allows it (a MAX_CODE_LEN=16 code admits at most 2**16
    # codewords, so only sparse oversized alphabets need uint32)
    sym_dtype = np.uint16 if lengths.size <= (1 << 16) else np.uint32
    syms = np.zeros((size, probe_bits), dtype=sym_dtype)
    # rows drop out of `live` once their next codeword overruns the
    # probe, so iteration j only touches rows with >= j+1 symbols; with
    # int32 row state the whole build runs at a fraction of the naive
    # all-rows-every-iteration cost (it is the cold-decode hot path)
    live = np.arange(size, dtype=np.int32)
    consumed = np.zeros(size, dtype=np.int32)
    for j in range(probe_bits):
        idx = (live << consumed) & mask
        ln = lens32[idx]
        fit = (ln > 0) & (consumed + ln <= probe_bits)
        live = live[fit]
        if live.size == 0:
            break
        consumed = consumed[fit] + ln[fit]
        syms[live, j] = table_syms[idx[fit]]
        cum[live, j + 1] = consumed
        count[live] += 1
    smax = max(int(count.max()), 1)
    cum = np.ascontiguousarray(cum[:, :smax + 1])
    syms = np.ascontiguousarray(syms[:, :smax])
    for arr in (count, cum, syms):
        arr.setflags(write=False)
    return count, cum, syms


# -- encode-side LUT prewarm -------------------------------------------------
#
# A recurring codebook (the encode fingerprint cache hitting, or the
# decoder reusing a narrow LUT) predicts a near-future decode of the same
# codebook; building its ~3 MiB full-width probe LUT *now*, off-thread,
# means that warm decode never pays the build wall.

_prewarm_lock = threading.Lock()
#: the one build in flight, process-wide: each build is a few ms of
#: NumPy work, so concurrent builds would compete with the foreground
#: decode for the host's cores. A codebook skipped while a build runs is
#: promoted again on its next reuse.
_prewarm_thread: threading.Thread | None = None


def prewarm_lut_async(lengths: np.ndarray) -> bool:
    """Build the full-width (``MAX_CODE_LEN``) probe LUT for ``lengths``
    on a daemon thread if it is not already cached and no other prewarm
    is in flight. Returns whether a build started.

    The build is pure (read-only inputs, idempotent cache insert), so a
    rare race with a foreground :func:`build_lut_tables` only costs one
    redundant build, never a wrong table. A prewarm fills the cache
    without looking it up, so it counts as neither hit nor miss: the
    cache statistics (and the ``repro doctor`` warm-hit check over them)
    see only the lookups of real decodes.
    """
    global _prewarm_thread
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    try:
        key = (_length_key(lengths), MAX_CODE_LEN)
    except CodecError:
        return False
    with _cache_lock:
        if key in _lut_cache:
            return False
    with _prewarm_lock:
        if _prewarm_thread is not None:
            return False

        def _build():
            global _prewarm_thread
            try:
                _put_lut(key, _expand_lut(lengths, MAX_CODE_LEN))
            except CodecError:  # pragma: no cover - key pre-validated
                pass
            finally:
                with _prewarm_lock:
                    _prewarm_thread = None

        thread = _prewarm_thread = threading.Thread(
            target=_build, daemon=True, name="repro-lut-prewarm")
    thread.start()
    telemetry.incr("huffman.lut_prewarm")
    return True


def drain_lut_prewarm() -> int:
    """Join the in-flight prewarm build, if any (tests and the bench need
    a deterministic cold/warm boundary). Returns how many were joined."""
    with _prewarm_lock:
        thread = _prewarm_thread
    if thread is None:
        return 0
    thread.join()
    return 1


def warm_lengths(limit: int = 8) -> list[bytes]:
    """Raw length vectors (uint8 bytes) of the most-recently-used
    codebooks, newest first — the parent ships these to persistent shm
    workers so their LUTs are built before the first pooled request
    instead of on it."""
    with _cache_lock:
        keys = list(_codebook_cache.keys())
    return keys[::-1][:max(0, int(limit))]


def warm_tables(length_blobs) -> int:
    """Prebuild the full-width probe LUT for each raw length vector
    (as produced by :func:`warm_lengths`). Invalid blobs are skipped —
    a stale warm hint must never fail a worker. Returns how many
    codebooks were warmed."""
    warmed = 0
    for blob in length_blobs:
        try:
            lengths = np.frombuffer(blob, dtype=np.uint8).astype(np.int64)
            if lengths.size == 0:
                continue
            build_lut_tables(lengths)
            warmed += 1
        except (CodecError, ValueError):
            continue
    return warmed

