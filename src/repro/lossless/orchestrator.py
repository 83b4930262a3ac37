"""Segment-aware lossless orchestration (the Bitcomp-synergy stage).

The paper pairs Huffman with a repeated-pattern-canceling lossless pass
(§VI-B); "Boosting Scientific Error-Bounded Lossy Compression through
Optimized Synergistic Lossy-Lossless Orchestration" shows the treatment
should be chosen *per stream*, not once per archive: the Huffman payload,
the chunk table, the anchor grid and the outlier list have wildly
different statistics, and a codec that pays for one wastes time (or
ratio) on another.

This module is that orchestration layer:

* a **backend registry** — ``store``, ``gle``, ``gle-rle``, ``gle-pack``,
  ``zlib``, and ``gle-blocks`` (the block-parallel GLE route for
  oversized streams) — every backend a plain ``encode(bytes) -> bytes`` /
  ``decode(bytes) -> bytes`` pair;
* a **sampling cost model** — byte entropy, word-run mass, top-word
  concentration and per-block width mass over a bounded prefix sample —
  that predicts each backend's output size and picks the cheapest one
  that clears its speed gate, *without* trial-encoding losers;
* a **container-aware splitter** that breaks an ``RPRC`` container into
  its framing header, the Huffman stream's (head, chunk table,
  payload) parts and the side segments; any non-container input is
  orchestrated as a single ``raw`` stream;
* a **self-describing frame** (``ORC1``) recording the per-stream backend
  choices, with a whole-payload CRC32, whose decoder also accepts every
  pre-orchestrator single-codec blob (bare GLE frames, zlib streams,
  stored containers) for backward compatibility.

Reassembly is pure ordered concatenation, so a round trip is
byte-identical to the input container by construction — the lossy layers
above never observe the orchestration.
"""

from __future__ import annotations

import json
import struct
import threading
import weakref
import zlib

import numpy as np

from repro import telemetry
from repro.telemetry import caches, recorder
from repro.common.bitpack import bit_length
from repro.common.errors import ConfigError, CorruptStreamError
from repro.huffman.codec import section_bounds
from repro.lossless.gle import (MIN_RUN, PACK_BLOCK, _as_bytes_view,
                                gle_compress, gle_decompress)

__all__ = ["OrchestratorCodec", "orchestrate_compress",
           "orchestrate_decompress", "split_streams", "stream_stats",
           "choose_backend", "backend_names", "StreamStats",
           "plan_cache_stats", "never_expand_trips",
           "SAMPLE_CAP", "PARALLEL_MIN_BYTES", "PARALLEL_BLOCK"]

_MAGIC = b"ORC1"
# magic, version, flags, crc32, n_streams
_FRAME_HDR = struct.Struct("<4sBBIB")
_VERSION = 1
_STREAM_HDR = struct.Struct("<BQ")     # backend id, encoded length
#: frame flag: the input is an ``RPRC`` container whose own CRC32 (it
#: covers every byte after the 10-byte container prologue) carries the
#: integrity check; the frame's crc field is 0 and the decoder verifies
#: the container checksum instead of paying for a second one on encode.
_ORC_FLAG_EXTCRC = 1

#: bytes of each stream the cost model actually looks at
SAMPLE_CAP = 16384
#: below this size a stream is stored outright — no model, no backend
MIN_MODEL_BYTES = 64
#: ``zlib`` is only considered up to this size per profile (it is an
#: order of magnitude slower than GLE; past the cap the model must pick a
#: scan/pack backend or store)
ZLIB_CAP = {"fast": 0, "balanced": 4096, "ratio": None}
#: projected size fraction zlib must clear per profile. ``balanced``
#: demands a ~2x crunch: deflate is the slowest backend in the registry,
#: and shaving a couple hundred bytes off a small side stream costs more
#: wall time than the entire scan family spends on the payload.
_ZLIB_GATE = {"fast": 0.0, "balanced": 0.5, "ratio": 0.95}
#: deflate effort per profile; ``balanced`` takes level 1 — on the small
#: side streams zlib is allowed to touch, level 6 costs ~2x the time for
#: a few tens of bytes
_ZLIB_LEVEL = {"fast": 1, "balanced": 1, "ratio": 6}
#: plan-cache entries kept per codec instance (distinct segment layouts)
_PLAN_CACHE_MAX = 8
#: streams at least this large take the block-parallel GLE route
PARALLEL_MIN_BYTES = 32 * 1024 * 1024
#: block size of the parallel route (one pool task per block)
PARALLEL_BLOCK = 4 * 1024 * 1024
#: block size used to estimate the bit-width-pack saving from a sample
_PACK_EST_BLOCK = PACK_BLOCK
#: a backend must project at most this size fraction to beat "store" —
#: a projected saving under ~5% is not worth an encode pass
_STORE_BIAS = 0.95


# -- introspection (unified cache registry + doctor counters) ---------------

#: reentrant: a dead codec's :meth:`PlanCache.release` runs from the
#: garbage collector, which may fire inside a holder of this lock
_stats_lock = threading.RLock()
#: header-fingerprint plan-cache counters and occupancy, aggregated
#: across every live codec instance (the caches themselves stay
#: per-instance); occupancy is kept as entries come and go, so a registry
#: snapshot walks no instance's entries
_plan_stats = {"hits": 0, "misses": 0, "evictions": 0,
               "size": 0, "size_bytes": 0}
#: times the never-expand guard replaced a mispredicted backend by store
_never_expand = 0


def _note_plan(event: str) -> None:
    with _stats_lock:
        _plan_stats[event] += 1


def plan_cache_stats() -> dict[str, int]:
    """Aggregate hit/miss/eviction counters and occupancy of every live
    instance's header-fingerprint plan cache."""
    with _stats_lock:
        return {**_plan_stats, "limit": _PLAN_CACHE_MAX}


def _plan_nbytes(entry: tuple) -> int:
    """Bytes one plan-cache entry holds: its header probes, segment
    spans and framed stream names."""
    probes, spans, _plan, names = entry
    return (sum(len(pb) for _off, pb in probes) + 16 * len(spans)
            + sum(len(nm) + 8 for nm in names))


class PlanCache:
    """One codec instance's header-fingerprint plan cache: at most
    ``_PLAN_CACHE_MAX`` entries, oldest evicted first. Every insert,
    replacement and eviction updates the process-wide occupancy in
    ``_plan_stats``; :meth:`release` takes a dead codec's entries out
    of it."""

    def __init__(self):
        self._entries: dict = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        return self._entries.get(key)

    def put(self, key, entry: tuple) -> None:
        with _stats_lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._account(old, -1)
            elif len(self._entries) >= _PLAN_CACHE_MAX:
                self._account(self._entries.pop(next(iter(self._entries))),
                              -1)
                _plan_stats["evictions"] += 1
            self._entries[key] = entry
            self._account(entry, 1)

    def release(self) -> None:
        with _stats_lock:
            for entry in self._entries.values():
                self._account(entry, -1)
            self._entries.clear()

    @staticmethod
    def _account(entry: tuple, sign: int) -> None:
        _plan_stats["size"] += sign
        _plan_stats["size_bytes"] += sign * _plan_nbytes(entry)


def never_expand_trips() -> int:
    """How often the never-expand guard overrode a mispredicted backend."""
    with _stats_lock:
        return _never_expand


def _note_never_expand() -> None:
    global _never_expand
    with _stats_lock:
        _never_expand += 1
    recorder.count("lossless.never_expand")


caches.register("lossless.orchestrator_plan", plan_cache_stats)


# -- backend registry -------------------------------------------------------

def _store_encode(view, checksum):
    return view


def _blocks_encode(view, checksum, workers=None):
    """Block-parallel GLE: fixed blocks, ordered reassembly.

    The sub-frame is deterministic in the block split, so the bytes are
    identical whether the blocks were encoded serially or on a pool.
    """
    n = len(view)
    bounds = range(0, n, PARALLEL_BLOCK)
    blocks = [view[s:s + PARALLEL_BLOCK] for s in bounds]
    from repro.runtime.pool import resolve_workers, run_batch
    nworkers = resolve_workers(workers if workers is not None else "auto")
    if nworkers > 1 and len(blocks) > 1:
        encoded = run_batch(_gle_block_task, blocks, nworkers)
    else:
        encoded = [gle_compress(b, checksum=False) for b in blocks]
    parts = [struct.pack("<I", len(encoded))]
    parts += [struct.pack("<Q", len(e)) for e in encoded]
    return b"".join(parts) + b"".join(encoded)


def _gle_block_task(block: bytes) -> bytes:
    return gle_compress(block, checksum=False)


def _blocks_decode(blob):
    if len(blob) < 4:
        raise CorruptStreamError("truncated GLE block table")
    (n_blocks,) = struct.unpack_from("<I", blob, 0)
    pos = 4
    if len(blob) < pos + 8 * n_blocks:
        raise CorruptStreamError("truncated GLE block table")
    lens = struct.unpack_from(f"<{n_blocks}Q", blob, pos)
    pos += 8 * n_blocks
    out = []
    for length in lens:
        if len(blob) < pos + length:
            raise CorruptStreamError("truncated GLE block payload")
        out.append(gle_decompress(blob[pos:pos + length]))
        pos += length
    if pos != len(blob):
        raise CorruptStreamError("trailing bytes after GLE blocks")
    return b"".join(out)


#: id -> (name, encode(view, checksum), decode(blob)); ids are wire format.
_BACKENDS = {
    0: ("store", _store_encode, bytes),
    1: ("gle", lambda v, c: gle_compress(v, checksum=c), gle_decompress),
    2: ("gle-rle", lambda v, c: gle_compress(v, pack=False, checksum=c),
        gle_decompress),
    3: ("gle-pack", lambda v, c: gle_compress(v, rle=False, checksum=c),
        gle_decompress),
    4: ("zlib", lambda v, c: zlib.compress(v, 6), zlib.decompress),
    5: ("gle-blocks", _blocks_encode, _blocks_decode),
}
_BACKEND_IDS = {name: bid for bid, (name, _, _) in _BACKENDS.items()}


def backend_names() -> list[str]:
    """The registered per-segment backend names."""
    return [name for name, _, _ in _BACKENDS.values()]


# -- container-aware stream splitting ---------------------------------------

_CONTAINER_MAGIC = b"RPRC"


def _split_huffman(name: str, view: memoryview, meta):
    """Split a chunked-Huffman segment at its fixed internal boundaries:
    header+code lengths, the chunk table, the payload."""
    bounds = section_bounds(view, meta)
    if bounds is None:
        return [(name, view)]
    head_end, table_end = bounds
    return [(f"{name}.head", view[:head_end]),
            (f"{name}.chunks", view[head_end:table_end]),
            (f"{name}.payload", view[table_end:])]


def split_streams(data) -> list[tuple[str, memoryview]]:
    """Break input bytes into independently-treatable streams.

    An ``RPRC`` container yields its framing header plus one stream per
    segment (the Huffman segment further split into head / chunk
    table / payload); anything else is one ``raw`` stream. Concatenating
    the stream views always reproduces the input bytes exactly.
    """
    view = memoryview(data)
    if len(view) < 10 or bytes(view[:4]) != _CONTAINER_MAGIC:
        return [("raw", view)]
    try:
        # walk the container layout far enough to find payload offsets;
        # full validation (CRC, JSON) stays with parse_container
        pos = 10                       # magic, version, crc32
        (clen,) = struct.unpack_from("<B", view, pos)
        pos += 1 + clen
        (mlen,) = struct.unpack_from("<I", view, pos)
        meta = json.loads(bytes(view[pos + 4:pos + 4 + mlen]))
        pos += 4 + mlen
        (nseg,) = struct.unpack_from("<H", view, pos)
        pos += 2
        table = []
        for _ in range(nseg):
            (nlen,) = struct.unpack_from("<B", view, pos)
            name = bytes(view[pos + 1:pos + 1 + nlen]).decode("utf-8")
            pos += 1 + nlen
            (slen,) = struct.unpack_from("<Q", view, pos)
            pos += 8
            table.append((name, slen))
        streams = [("header", view[:pos])]
        for name, slen in table:
            if pos + slen > len(view):
                raise ValueError("truncated segment")
            seg = view[pos:pos + slen]
            pos += slen
            if name == "huffman":
                streams.extend(_split_huffman(name, seg, meta))
            else:
                streams.append((name, seg))
        if pos != len(view):
            raise ValueError("trailing bytes")
        return streams
    except (struct.error, ValueError, UnicodeDecodeError):
        return [("raw", view)]


# -- sampling cost model ----------------------------------------------------

class StreamStats:
    """Statistics of a bounded prefix sample of one stream."""

    __slots__ = ("n", "entropy_bits", "run_frac", "top_word_frac",
                 "pack_frac")

    def __init__(self, n, entropy_bits, run_frac, top_word_frac, pack_frac):
        self.n = n
        self.entropy_bits = entropy_bits      # bits/byte over the sample
        self.run_frac = run_frac              # word mass inside long runs
        self.top_word_frac = top_word_frac    # most common word's share
        self.pack_frac = pack_frac            # est. packed size fraction

    def __repr__(self):
        return (f"StreamStats(n={self.n}, H={self.entropy_bits:.2f}, "
                f"runs={self.run_frac:.2f}, top={self.top_word_frac:.2f}, "
                f"pack={self.pack_frac:.2f})")


#: power-of-two bin edges turning a block max byte into its bit width
_WIDTH_BINS = 2 ** np.arange(8)


def _entropy_bits(sample: np.ndarray) -> float:
    """Shannon entropy (bits/byte) of a byte sample."""
    counts = np.bincount(sample, minlength=256)
    p = counts[counts > 0] / sample.size
    return float(-(p * np.log2(p)).sum())


def _run_frac(words: np.ndarray) -> float:
    """Fraction of words inside runs of length >= ``MIN_RUN``.

    Pure reductions — a run of length ``L`` covers ``L - MIN_RUN + 1``
    positions of the ANDed shifted-equality mask plus ``MIN_RUN - 1`` per
    rising edge, so two ``count_nonzero`` calls recover the exact mass
    without compacting segment boundaries.
    """
    n = words.size
    if n < MIN_RUN:
        return 0.0
    eq = words[1:] == words[:-1]
    m = n - MIN_RUN + 1
    runm = eq[:m].copy()
    for k in range(1, MIN_RUN - 1):
        runm &= eq[k:m + k]
    inside = int(np.count_nonzero(runm))
    if not inside:
        return 0.0
    blocks = int(np.count_nonzero(runm[1:] & ~runm[:-1])) + int(runm[0])
    return float((inside + (MIN_RUN - 1) * blocks) / n)


def _top_word_frac(words: np.ndarray) -> float:
    """Most common word's share over a small sub-sample (unique sorts)."""
    sub = words[:1024]
    if sub.size == 0:
        return 0.0
    _, sub_counts = np.unique(sub, return_counts=True)
    return float(sub_counts.max() / sub.size)


def _pack_frac(sample: np.ndarray) -> float:
    """Estimated bit-width-pack size fraction: mean block width / 8."""
    nb = sample.size // _PACK_EST_BLOCK
    if nb:
        block_max = sample[:nb * _PACK_EST_BLOCK] \
            .reshape(nb, _PACK_EST_BLOCK).max(axis=1)
        return float(np.digitize(block_max, _WIDTH_BINS).mean() / 8.0)
    return int(sample.max()).bit_length() / 8.0


def stream_stats(data, sample_cap: int = SAMPLE_CAP) -> StreamStats:
    """Measure every cost-model signal over a bounded prefix sample.

    The encode hot path computes these lazily (a signal the decision tree
    never reaches is never measured); this eager variant backs tests,
    diagnostics and the benchmark's per-segment report.
    """
    view = memoryview(data)
    n = len(view)
    sample = np.frombuffer(view[:min(n, sample_cap)], dtype=np.uint8)
    if sample.size == 0:
        return StreamStats(n, 8.0, 0.0, 0.0, 1.0)
    words = sample[:sample.size - (sample.size % 4)].view(np.uint32)
    return StreamStats(n, _entropy_bits(sample), _run_frac(words),
                       _top_word_frac(words), _pack_frac(sample))


def _zlib_est(entropy_bits: float) -> float:
    """Projected deflate size fraction from byte entropy.

    The 1.03 factor and the constant calibrate deflate's literal-coding
    overhead: near-incompressible streams (anchors) land *above* the
    entropy bound and must fail the store bias rather than waste the
    slowest encode in the registry on a ~4% saving.
    """
    return entropy_bits / 8.0 * 1.03 + 0.03


def _pick(n, run_frac, pack_frac, top_word_frac, entropy_bits, profile):
    """Shared two-tier decision tree over lazily-supplied signals.

    Every signal argument is a zero-argument callable, evaluated only on
    the branches that consult it — the encode hot path passes closures
    over the sample, the eager :func:`choose_backend` passes precomputed
    stats.

    Below the profile's zlib cap, deflate (with its own Huffman stage)
    dominates the scan/pack family on ratio at negligible absolute cost,
    so byte entropy alone decides store-vs-zlib. Above the cap only the
    GPU-style scan backends are admissible (plus zlib at any size for
    the ``ratio`` profile, which opts into the speed hit).
    """
    cap = ZLIB_CAP[profile]
    if cap is not None and n <= cap:
        return "zlib" if _zlib_est(entropy_bits()) <= _ZLIB_GATE[profile] \
            else "store"
    candidates = {"store": 1.0}
    rf = run_frac()
    if rf >= 0.05:
        est_rle = 1.0 - max(0.0, rf - 2.0 * MIN_RUN / n)
        # pack the RLE residue too when the sample says literals are
        # narrow or one word dominates (its removal leaves low widths)
        pf = pack_frac()
        if pf < 0.95 or top_word_frac() >= 0.75:
            candidates["gle"] = est_rle * min(pf + 1.0 / 512.0, 1.0)
        else:
            candidates["gle-rle"] = est_rle
    else:
        est_pack = pack_frac() + 1.0 / 512.0
        if est_pack < 0.97:
            candidates["gle-pack"] = est_pack
    if cap is None:
        candidates["zlib"] = _zlib_est(entropy_bits())
    best = min(candidates, key=lambda k: (candidates[k], k != "store"))
    if candidates[best] > _STORE_BIAS:
        return "store"          # projected saving too thin for a pass
    if best in ("gle", "gle-rle", "gle-pack") and n >= PARALLEL_MIN_BYTES:
        return "gle-blocks"
    return best


def choose_backend(stats: StreamStats, profile: str = "balanced") -> str:
    """Pick a backend from the sampled signals — no trial encodes.

    The decision minimizes the *estimated* output size among the backends
    whose speed class the profile admits, with a store bias: a backend
    must promise a real saving to be worth its pass.
    """
    if profile not in ZLIB_CAP:
        raise ConfigError(f"unknown orchestrator profile {profile!r}; "
                          f"choose from {sorted(ZLIB_CAP)}")
    if stats.n < MIN_MODEL_BYTES:
        return "store"
    return _pick(stats.n, lambda: stats.run_frac, lambda: stats.pack_frac,
                 lambda: stats.top_word_frac, lambda: stats.entropy_bits,
                 profile)


def _decide(view: memoryview, profile: str) -> str:
    """Hot-path backend choice: sample once, measure signals lazily.

    Decision-equivalent to ``choose_backend(stream_stats(view), profile)``
    but a signal the tree never reaches is never measured — small streams
    pay only the entropy histogram, large streams never pay it (in the
    default profile) because zlib is capped out at their size.
    """
    n = len(view)
    if n < MIN_MODEL_BYTES:
        return "store"
    sample = np.frombuffer(view[:min(n, SAMPLE_CAP)], dtype=np.uint8)
    words = sample[:sample.size - (sample.size % 4)].view(np.uint32)
    return _pick(n, lambda: _run_frac(words), lambda: _pack_frac(sample),
                 lambda: _top_word_frac(words),
                 lambda: _entropy_bits(sample), profile)


# -- frame encode / decode --------------------------------------------------

def orchestrate_compress(data, *, profile: str = "balanced",
                         workers=None, plan_cache: PlanCache | None = None)\
        -> bytes:
    """Compress ``data`` with a per-stream backend choice (``ORC1`` frame).

    ``data`` may be ``bytes``, ``memoryview`` or a NumPy buffer. For an
    ``RPRC`` container input, integrity rides on the container's own
    CRC32 (re-verified by the decoder); anything else gets a whole-input
    CRC32 in the frame. Per-stream GLE frames always skip their own
    checksums.

    ``plan_cache`` (managed by :class:`OrchestratorCodec`) remembers, per
    distinct container shape, both the backend choices and the segment
    spans. A warm hit is validated by fingerprint — the container's
    framing header plus a small probe of each Huffman sub-header must
    match byte-for-byte — which pins the segment table, so repeated
    compressions of same-shaped containers (slab loops, timestep sweeps)
    skip the split *and* the sampling pass. Any layout change misses the
    fingerprint and re-samples; the never-expand guard below keeps a
    stale plan safe at worst suboptimal.
    """
    if profile not in ZLIB_CAP:
        raise ConfigError(f"unknown orchestrator profile {profile!r}; "
                          f"choose from {sorted(ZLIB_CAP)}")
    view = memoryview(_as_bytes_view(data))
    plan = names = None
    key = None
    if plan_cache is not None:
        key = ("fp", len(view), profile)
        hit = plan_cache.get(key)
        if hit is not None:
            probes, spans, plan, names = hit
            if all(view[off:off + len(pb)] == pb for off, pb in probes):
                streams = [(None, view[s:e]) for s, e in spans]
                flags, crc = _ORC_FLAG_EXTCRC, 0
            else:
                plan = names = None
    cached = plan is not None
    if plan_cache is not None:
        _note_plan("hits" if cached else "misses")
    if not cached:
        streams = split_streams(view)
        if len(view) >= 10 and view[:4] == _CONTAINER_MAGIC \
                and streams[0][0] != "raw":
            flags, crc = _ORC_FLAG_EXTCRC, 0
        else:
            flags, crc = 0, zlib.crc32(view)
    with telemetry.span("lossless.orchestrate", profile=profile,
                        n_streams=len(streams), bytes_in=len(view),
                        plan_cached=cached) as root:
        if not cached:
            plan = [_decide(sv, profile) for _, sv in streams]
            names = []
            for name, _ in streams:
                nb = name.encode("utf-8")
                names.append(struct.pack("<B", len(nb)) + nb)
            if plan_cache is not None and flags & _ORC_FLAG_EXTCRC:
                # fingerprint: the framing header determines the segment
                # table; the Huffman sub-split additionally depends on the
                # header and code lengths of each huffman segment, so probe
                # those too. A probe mismatch just falls back to a cold
                # pass — and even a hypothetical stale split stays
                # byte-correct, because decode is ordered concatenation.
                spans = []
                pos = 0
                probes = [(0, bytes(streams[0][1]))]
                for name, sv in streams:
                    spans.append((pos, pos + len(sv)))
                    if name.endswith(".head"):
                        probes.append((pos, bytes(sv)))
                    pos += len(sv)
                plan_cache.put(key, (probes, spans, plan, names))
        zlevel = _ZLIB_LEVEL[profile]
        table: list[bytes] = []
        payloads = []
        used: list[str] = []
        for i, (name, sv) in enumerate(streams):
            backend = plan[i]
            # per-segment spans ride only on the sampling pass; the warm
            # plan-hit path keeps just counters and the root span
            sp = cm = None
            if not cached:
                cm = telemetry.span("lossless.segment", segment=name,
                                    backend=backend, bytes_in=len(sv))
                sp = cm.__enter__()
            bid = _BACKEND_IDS[backend]
            if backend == "gle-blocks":
                enc = _blocks_encode(sv, False, workers)
            elif backend == "zlib":
                enc = zlib.compress(sv, zlevel)
            else:
                enc = _BACKENDS[bid][1](sv, False)
            if len(enc) >= len(sv) and backend != "store":
                # the model mispredicted; never ship an expansion
                backend, bid, enc = "store", 0, sv
                _note_never_expand()
                if sp is not None:
                    sp.set(backend="store")
            if cm is not None:
                sp.set(bytes_out=len(enc))
                cm.__exit__(None, None, None)
            telemetry.incr(f"lossless.backend.{backend}")
            used.append(backend)
            table.append(names[i] + _STREAM_HDR.pack(bid, len(enc)))
            payloads.append(enc)
        out = b"".join(
            [_FRAME_HDR.pack(_MAGIC, _VERSION, flags, crc, len(streams))]
            + table + payloads)
        root.set(bytes_out=len(out))
    # flight-recorder context propagation: the enclosing pipeline run (if
    # any) records which per-segment plan this lossless pass chose
    recorder.annotate(lossless_profile=profile, lossless_plan=used,
                      lossless_plan_cached=cached)
    return out


def _decode_legacy(blob: bytes) -> bytes:
    """Decode a pre-orchestrator single-codec blob.

    Pipelines before the per-segment frame wrapped the whole container
    with exactly one codec; those blobs are recognized by their own
    magic: a bare GLE frame, a stored ``RPRC`` container, or a zlib
    stream.
    """
    if blob[:4] == b"GLE1":
        return gle_decompress(blob)
    if blob[:4] == _CONTAINER_MAGIC:
        return bytes(blob)
    try:
        return zlib.decompress(blob)
    except zlib.error:
        raise CorruptStreamError(
            "not an orchestrated frame nor a known single-codec blob")


#: frames at or below this size take the dispatch-free decode path: on
#: tiny containers (the 64**3 single-field case) the per-segment span
#: bookkeeping and name decodes cost more than the byte decoding itself,
#: which is how orchestrated decode previously lost to bare GLE
_SMALL_DECODE_BYTES = 1 << 16


def orchestrate_decompress(blob) -> bytes:
    """Invert :func:`orchestrate_compress`; accepts legacy blobs too."""
    blob = bytes(blob)
    if blob[:4] != _MAGIC:
        return _decode_legacy(blob)
    if len(blob) < _FRAME_HDR.size:
        raise CorruptStreamError("truncated orchestrator frame")
    _, version, flags, crc, n_streams = _FRAME_HDR.unpack_from(blob, 0)
    if version != _VERSION:
        raise CorruptStreamError(
            f"unsupported orchestrator frame version {version}")
    pos = _FRAME_HDR.size
    table = []
    for _ in range(n_streams):
        if pos + 1 > len(blob):
            raise CorruptStreamError("truncated orchestrator stream table")
        nlen = blob[pos]
        pos += 1
        raw_name = blob[pos:pos + nlen]     # decoded to str lazily: only
        pos += nlen                         # spans and errors need text
        if pos + _STREAM_HDR.size > len(blob):
            raise CorruptStreamError("truncated orchestrator stream table")
        bid, enc_len = _STREAM_HDR.unpack_from(blob, pos)
        pos += _STREAM_HDR.size
        if bid not in _BACKENDS:
            raise CorruptStreamError(
                f"unknown orchestrator backend id {bid}")
        table.append((raw_name, bid, enc_len))
    if len(blob) <= _SMALL_DECODE_BYTES:
        # small-frame fast path: identical decoding and CRC verification,
        # no per-segment span setup or name decoding
        telemetry.incr("lossless.small_decode")
        parts = []
        for raw_name, bid, enc_len in table:
            if pos + enc_len > len(blob):
                raise CorruptStreamError(
                    "truncated orchestrator stream "
                    f"{raw_name.decode('utf-8', 'replace')!r}")
            try:
                parts.append(_BACKENDS[bid][2](blob[pos:pos + enc_len]))
            except zlib.error as exc:
                raise CorruptStreamError(
                    f"stream {raw_name.decode('utf-8', 'replace')!r} "
                    f"failed to decode: {exc}")
            pos += enc_len
        return _finish_frame(parts, pos, blob, flags, crc)
    parts = []
    with telemetry.span("lossless.orchestrate_decode",
                        n_streams=n_streams, bytes_in=len(blob)) as root:
        for raw_name, bid, enc_len in table:
            name = raw_name.decode("utf-8", "replace")
            if pos + enc_len > len(blob):
                raise CorruptStreamError(
                    f"truncated orchestrator stream {name!r}")
            bname, _, decode = _BACKENDS[bid]
            with telemetry.span("lossless.segment", segment=name,
                                backend=bname, bytes_in=enc_len) as sp:
                try:
                    parts.append(decode(blob[pos:pos + enc_len]))
                except zlib.error as exc:
                    raise CorruptStreamError(
                        f"stream {name!r} failed to decode: {exc}")
                sp.set(bytes_out=len(parts[-1]))
            pos += enc_len
        out = _finish_frame(parts, pos, blob, flags, crc)
        root.set(bytes_out=len(out))
    return out


def _finish_frame(parts: list, pos: int, blob: bytes, flags: int,
                  crc: int) -> bytes:
    """Shared frame-tail validation: exact length, then payload CRC."""
    if pos != len(blob):
        raise CorruptStreamError(
            "trailing bytes after orchestrator streams")
    out = b"".join(parts)
    if flags & _ORC_FLAG_EXTCRC:
        # integrity was delegated to the container's own checksum
        if (len(out) < 10 or out[:4] != _CONTAINER_MAGIC
                or zlib.crc32(out[10:])
                != struct.unpack_from("<I", out, 6)[0]):
            raise CorruptStreamError(
                "orchestrator payload checksum mismatch "
                "(container CRC, corrupt frame)")
    elif zlib.crc32(out) != crc:
        raise CorruptStreamError(
            "orchestrator payload checksum mismatch (corrupt frame)")
    return out


class OrchestratorCodec:
    """Lossless-codec-protocol wrapper (registered as ``"auto"``).

    Parameters
    ----------
    profile:
        ``"fast"`` (GLE family only), ``"balanced"`` (zlib admitted for
        small streams — the default), ``"ratio"`` (zlib considered at any
        size).
    workers:
        Worker knob for the block-parallel route on oversized streams
        (``None`` lets the runtime decide; the frame bytes do not depend
        on it).
    plan_cache:
        Reuse backend choices across compressions whose segment layout
        (stream names and lengths) repeats — the slab-loop case, where
        sampling every container again buys nothing. Layout changes
        re-sample; the never-expand guard bounds a stale plan's cost at
        a suboptimal pick. ``False`` samples every call.
    """

    name = "auto"

    def __init__(self, profile: str = "balanced", workers=None,
                 plan_cache: bool = True):
        if profile not in ZLIB_CAP:
            raise ConfigError(f"unknown orchestrator profile {profile!r}; "
                              f"choose from {sorted(ZLIB_CAP)}")
        self.profile = profile
        self.workers = workers
        self._plan_cache: PlanCache | None = None
        if plan_cache:
            self._plan_cache = PlanCache()
            weakref.finalize(self, self._plan_cache.release)

    def compress_bytes(self, data) -> bytes:
        return orchestrate_compress(data, profile=self.profile,
                                    workers=self.workers,
                                    plan_cache=self._plan_cache)

    def decompress_bytes(self, blob) -> bytes:
        return orchestrate_decompress(blob)
