"""Segment-aware lossless orchestration (the Bitcomp-synergy stage).

The paper pairs Huffman with a repeated-pattern-canceling lossless pass
(§VI-B); "Boosting Scientific Error-Bounded Lossy Compression through
Optimized Synergistic Lossy-Lossless Orchestration" shows the treatment
should be chosen *per stream*, not once per archive: the Huffman payload,
the chunk table, the anchor grid and the outlier list have wildly
different statistics, and a codec that pays for one wastes time (or
ratio) on another.

This module is that orchestration layer:

* a **container-aware splitter** that breaks an ``RPRC`` container into
  its framing header, the Huffman stream's (head, chunk table,
  payload) parts and the side segments; any non-container input is
  orchestrated as a single ``raw`` stream;
* **one backend rule**: a stream of up to ``ZLIB_MAX_BYTES`` (16 KiB) is
  deflated at level 1, a larger one takes GLE (``gle-blocks``, the
  block-parallel GLE route, from ``PARALLEL_MIN_BYTES`` on), and the
  encode is kept only if it is smaller than the stream; otherwise the
  stream is stored. Nothing is sampled or predicted;
* a **self-describing frame** (``ORC1``) recording the per-stream backend
  ids, with a whole-payload CRC32, whose decoder reads every backend id
  ever written (``store``, ``gle``, ``gle-rle``, ``gle-pack``, ``zlib``,
  ``gle-blocks``) and every pre-orchestrator single-codec blob (bare GLE
  frames, zlib streams, stored containers).

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

from repro import telemetry
from repro.telemetry import caches, recorder
from repro.common.errors import CorruptStreamError
from repro.huffman.codec import section_bounds
from repro.lossless.gle import _as_bytes_view, gle_compress, gle_decompress

__all__ = ["OrchestratorCodec", "orchestrate_compress",
           "orchestrate_decompress", "split_streams", "backend_names",
           "plan_cache_stats", "never_expand_trips", "ZLIB_MAX_BYTES",
           "PARALLEL_MIN_BYTES", "PARALLEL_BLOCK"]

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

#: streams up to this size are deflated (level 1); larger ones take GLE.
#: Deflate's own Huffman stage wins on the small header, code-length,
#: chunk-table and anchor streams at a few tens of microseconds; on a
#: large Huffman payload it still shrinks more than GLE but costs several
#: times GLE's time (a 150 KB Nyx payload on a 2-vCPU VM: 4.5 against
#: 0.8 ms)
ZLIB_MAX_BYTES = 16 * 1024
#: plan-cache entries kept per codec instance (distinct segment layouts)
_PLAN_CACHE_MAX = 8
#: streams at least this large take the block-parallel GLE route
PARALLEL_MIN_BYTES = 32 * 1024 * 1024
#: block size of the parallel route (one pool task per block)
PARALLEL_BLOCK = 4 * 1024 * 1024


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
#: times a warm plan-cache hit stored a stream its cached backend no
#: longer shrank
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
    spans, kept backends and stream names."""
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
    """How often a warm plan-cache hit stored a stream because its cached
    backend no longer shrank it."""
    with _stats_lock:
        return _never_expand


def _note_never_expand() -> None:
    global _never_expand
    with _stats_lock:
        _never_expand += 1
    recorder.count("lossless.never_expand")


caches.register("lossless.orchestrator_plan", plan_cache_stats)


# -- backend registry -------------------------------------------------------

def _blocks_encode(view, workers):
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


#: id -> (name, decode(blob)); ids are wire format. ``gle-rle`` and
#: ``gle-pack`` (GLE frames with one stage switched off) are no longer
#: written, but old frames that use them still decode.
_BACKENDS = {
    0: ("store", bytes),
    1: ("gle", gle_decompress),
    2: ("gle-rle", gle_decompress),
    3: ("gle-pack", gle_decompress),
    4: ("zlib", zlib.decompress),
    5: ("gle-blocks", _blocks_decode),
}
_BACKEND_IDS = {name: bid for bid, (name, _) in _BACKENDS.items()}


def backend_names() -> list[str]:
    """The backend names a frame may record, in wire-id order."""
    return [name for name, _ in _BACKENDS.values()]


def _backend_for(n: int) -> str:
    """The backend rule: deflate a small stream, GLE a large one."""
    if n <= ZLIB_MAX_BYTES:
        return "zlib"
    return "gle" if n < PARALLEL_MIN_BYTES else "gle-blocks"


def _encode(backend: str, view: memoryview, workers):
    if backend == "zlib":
        return zlib.compress(view, 1)
    if backend == "gle":
        return gle_compress(view, checksum=False)
    if backend == "gle-blocks":
        return _blocks_encode(view, workers)
    return view


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


# -- frame encode / decode --------------------------------------------------

def orchestrate_compress(data, *, workers=None) -> bytes:
    """Compress ``data`` stream by stream into an ``ORC1`` frame.

    ``data`` may be ``bytes``, ``memoryview`` or a NumPy buffer. Each
    stream of :func:`split_streams` gets the backend of the rule in the
    module docstring, or is stored when that backend does not shrink it.
    For an ``RPRC`` container input, integrity rides on the container's
    own CRC32 (re-verified by the decoder); anything else gets a
    whole-input CRC32 in the frame. Per-stream GLE frames always skip
    their own checksums.
    """
    return _compress(data, workers, None)


def _compress(data, workers, plan_cache: PlanCache | None) -> bytes:
    """:func:`orchestrate_compress` with an optional plan cache.

    The cache (one per :class:`OrchestratorCodec`) remembers, per distinct
    container layout, the segment spans and the backends the cold pass
    kept. A warm hit is validated by fingerprint — the container's
    framing header plus each Huffman sub-header must match byte-for-byte
    — which pins the segment table, so repeated compressions of
    same-shaped containers (slab loops, timestep sweeps) skip the split.
    A cached backend that no longer shrinks its stream is replaced by
    store, and only that counts as a never-expand trip.
    """
    view = memoryview(_as_bytes_view(data))
    hit = None
    if plan_cache is not None:
        hit = plan_cache.get(len(view))
        if hit is not None and not all(view[off:off + len(pb)] == pb
                                       for off, pb in hit[0]):
            hit = None
        _note_plan("misses" if hit is None else "hits")
    cached = hit is not None
    if cached:
        _probes, spans, plan, names = hit
        streams = [(name, view[s:e]) for name, (s, e) in zip(names, spans)]
        flags, crc = _ORC_FLAG_EXTCRC, 0
    else:
        streams = split_streams(view)
        plan = [_backend_for(len(sv)) for _, sv in streams]
        if streams[0][0] == "raw":
            flags, crc = 0, zlib.crc32(view)
        else:
            flags, crc = _ORC_FLAG_EXTCRC, 0
    table: list[bytes] = []
    payloads = []
    used: list[str] = []
    with telemetry.span("lossless.orchestrate", n_streams=len(streams),
                        bytes_in=len(view), plan_cached=cached) as root:
        for (name, sv), backend in zip(streams, plan):
            with telemetry.span("lossless.segment", stream=name,
                                backend=backend, bytes_in=len(sv)) as sp:
                enc = _encode(backend, sv, workers)
                if backend != "store" and len(enc) >= len(sv):
                    # never ship an expansion
                    if cached:
                        _note_never_expand()
                    backend, enc = "store", sv
                    sp.set(backend=backend)
                sp.set(bytes_out=len(enc))
            telemetry.incr(f"lossless.backend.{backend}")
            used.append(backend)
            nb = name.encode("utf-8")
            table.append(struct.pack("<B", len(nb)) + nb + _STREAM_HDR.pack(
                _BACKEND_IDS[backend], len(enc)))
            payloads.append(enc)
        out = b"".join(
            [_FRAME_HDR.pack(_MAGIC, _VERSION, flags, crc, len(streams))]
            + table + payloads)
        root.set(bytes_out=len(out))
    if plan_cache is not None and not cached and flags & _ORC_FLAG_EXTCRC:
        # fingerprint: the framing header determines the segment table;
        # the Huffman sub-split additionally depends on the header and
        # code lengths of each huffman segment, so probe those too
        spans = []
        pos = 0
        probes = [(0, bytes(streams[0][1]))]
        for name, sv in streams:
            spans.append((pos, pos + len(sv)))
            if name.endswith(".head"):
                probes.append((pos, bytes(sv)))
            pos += len(sv)
        plan_cache.put(len(view), (probes, spans, used,
                                   [name for name, _ in streams]))
    # flight-recorder context propagation: the enclosing pipeline run (if
    # any) records which per-segment backends this lossless pass kept
    recorder.annotate(lossless_plan=used, lossless_plan_cached=cached)
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
        name = blob[pos + 1:pos + 1 + nlen].decode("utf-8", "replace")
        pos += 1 + nlen
        if pos + _STREAM_HDR.size > len(blob):
            raise CorruptStreamError("truncated orchestrator stream table")
        bid, enc_len = _STREAM_HDR.unpack_from(blob, pos)
        pos += _STREAM_HDR.size
        if bid not in _BACKENDS:
            raise CorruptStreamError(
                f"unknown orchestrator backend id {bid}")
        table.append((name, bid, enc_len))
    parts = []
    with telemetry.span("lossless.orchestrate_decode",
                        n_streams=n_streams, bytes_in=len(blob)) as root:
        for name, bid, enc_len in table:
            if pos + enc_len > len(blob):
                raise CorruptStreamError(
                    f"truncated orchestrator stream {name!r}")
            bname, decode = _BACKENDS[bid]
            with telemetry.span("lossless.segment", stream=name,
                                backend=bname, bytes_in=enc_len) as sp:
                try:
                    parts.append(decode(blob[pos:pos + enc_len]))
                except zlib.error as exc:
                    raise CorruptStreamError(
                        f"stream {name!r} failed to decode: {exc}")
                sp.set(bytes_out=len(parts[-1]))
            pos += enc_len
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
        root.set(bytes_out=len(out))
    return out


class OrchestratorCodec:
    """Lossless-codec-protocol wrapper (registered as ``"auto"``).

    ``workers`` is the worker knob of the block-parallel route on
    oversized streams (``None`` lets the runtime decide; the frame bytes
    do not depend on it). Each instance keeps its own plan cache (see
    :func:`_compress`).
    """

    name = "auto"

    def __init__(self, workers=None):
        self.workers = workers
        self._plan_cache = PlanCache()
        weakref.finalize(self, self._plan_cache.release)

    def compress_bytes(self, data) -> bytes:
        return _compress(data, self.workers, self._plan_cache)

    def decompress_bytes(self, blob) -> bytes:
        return orchestrate_decompress(blob)
