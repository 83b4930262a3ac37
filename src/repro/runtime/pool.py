"""Process-pool batch engine: parallel slabs, field maps, worker traces.

The GPU design this repo reproduces gets its speed from coarse-grained
independence — one thread block per Huffman chunk, one stream per field —
and the CPU substrate has the same independence sitting idle: every slab
of a :class:`~repro.streaming.SlabWriter` stream and every field of a
batch is a self-contained archive. This module exploits that with a
process pool:

* :func:`parallel_compress_slabs` / :func:`parallel_decompress_slabs`
  shard a field along axis 0 (the ``SlabWriter`` framing, bit for bit)
  and run the per-slab codec work across workers, reassembling **in
  order** so the output is byte-identical to the serial path;
* :func:`map_compress` / :func:`map_decompress` run many-field batches
  (the experiments harness, the field archive, the transfer pipeline);
* worker processes record their own telemetry spans and ship them back,
  where they are grafted into the parent trace
  (:func:`repro.telemetry.merge_spans`) — ``repro trace`` then shows the
  per-slab concurrency lanes by worker pid.

Everything is gated behind a ``workers=`` knob: the default (``None``)
stays serial, ``workers="auto"`` uses every core, and any explicit
integer pins the pool size. Serial requests never touch
``multiprocessing`` at all, so the default path is exactly the code that
existed before this module.

Workers warm their own caches exactly like the parent: the Huffman
codebook LRU *and* the compiled pass-plan LRU
(:mod:`repro.core.ginterp.plans`) are per-process, so a worker compiles
each slab geometry once on its first task and reuses it for the rest of
the batch (same-shape slabs all share one plan entry).

Two transports carry payloads across the process boundary:

* ``"shm"`` (the default wherever ``multiprocessing.shared_memory``
  exists) — a persistent worker-daemon pool
  (:mod:`repro.runtime.workers`) moving slabs and blobs through
  shared-memory arenas; only offsets/lengths and codec config are
  pickled. Daemons are long-lived, so their plan/codebook/orchestrator
  caches stay warm *across* requests, not just within one batch.
* ``"pickle"`` — the original per-call ``ProcessPoolExecutor`` round
  trip, kept as the portable fallback and selectable with
  ``transport="pickle"`` or ``REPRO_TRANSPORT=pickle``.

Both transports produce output byte-identical to the serial path; they
differ only in where the bytes travel and what the break-even size floor
is (:data:`SHM_MIN_ENCODE_BYTES` vs :data:`PARALLEL_MIN_ENCODE_BYTES`).
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro import telemetry
from repro.telemetry import recorder
from repro.common.errors import ConfigError
from repro.registry import decompress_any, get_compressor
from repro.runtime import shm as shm_transport
from repro.runtime.workers import (BrokenWorkerPool, ShmPool,
                                   TransportStats, WorkerTaskError)
from repro.runtime.shm import ArenaError
from repro.streaming import SlabWriter, SlabReader, compress_slabs, \
    decompress_slabs, frame_slabs

__all__ = ["resolve_workers", "parallel_compress_slabs",
           "parallel_decompress_slabs", "map_compress", "map_decompress",
           "run_batch", "shutdown_pools", "serial_fallbacks",
           "reset_serial_fallbacks", "transport_kind", "transport_stats",
           "reset_transport_stats",
           "PARALLEL_MIN_ENCODE_BYTES", "PARALLEL_MIN_DECODE_BYTES",
           "SHM_MIN_ENCODE_BYTES", "SHM_MIN_DECODE_BYTES"]

#: fields smaller than this (raw bytes) compress serially even when a
#: pool is requested **on the pickle transport** — pickling the slabs
#: out and the blobs back costs more than the codec work saved
PARALLEL_MIN_ENCODE_BYTES = 8 * 1024 * 1024
#: streams smaller than this (compressed bytes) decompress serially on
#: the pickle transport. Decode is several times cheaper than encode,
#: and every decoded slab must be pickled back whole, so the break-even
#: point sits far above tiny benchmark streams (the 64^3 Nyx field's
#: ~50 KiB stream decoded 5x *slower* on a forced pool).
PARALLEL_MIN_DECODE_BYTES = 2 * 1024 * 1024
#: shm-transport break-even floors. The zero-copy hand-off removes the
#: per-payload serialize/deserialize tax the old floors priced in, so
#: the pool pays off roughly an order of magnitude earlier: one memcpy
#: in, one out, and a constant ~100 us of queue dispatch per request.
SHM_MIN_ENCODE_BYTES = 1 * 1024 * 1024
SHM_MIN_DECODE_BYTES = 256 * 1024


def transport_kind(transport: str | None = None) -> str:
    """Resolve the effective payload transport: ``"shm"`` or ``"pickle"``.

    Explicit ``transport=`` wins, then the ``REPRO_TRANSPORT``
    environment variable, then platform capability (shm wherever
    ``multiprocessing.shared_memory`` imports).
    """
    kind = transport or os.environ.get("REPRO_TRANSPORT") or None
    if kind is None:
        return "shm" if shm_transport.available() else "pickle"
    if kind not in ("shm", "pickle"):
        raise ConfigError(f"transport must be 'shm' or 'pickle', "
                          f"got {kind!r}")
    return kind


def _encode_floor(kind: str) -> int:
    return SHM_MIN_ENCODE_BYTES if kind == "shm" \
        else PARALLEL_MIN_ENCODE_BYTES


def _decode_floor(kind: str) -> int:
    return SHM_MIN_DECODE_BYTES if kind == "shm" \
        else PARALLEL_MIN_DECODE_BYTES


# -- serial-fallback accounting ---------------------------------------------

_fallback_lock = threading.Lock()
#: why a pooled request ran serially: below the IPC break-even size
#: floor (expected, tunable), a pool that could not be (re)spawned, or a
#: worker daemon that died mid-request (both environment problems
#: ``repro doctor`` should flag)
_fallback_counts = {"size_floor": 0, "spawn_failure": 0,
                    "worker_crash": 0}


def serial_fallbacks() -> dict[str, int]:
    """Counts of pooled requests that degraded to the serial path."""
    with _fallback_lock:
        return dict(_fallback_counts)


def reset_serial_fallbacks() -> None:
    with _fallback_lock:
        for k in _fallback_counts:
            _fallback_counts[k] = 0


def _note_fallback(reason: str, op: str, transport: str | None = None,
                   floor: int | None = None) -> None:
    with _fallback_lock:
        _fallback_counts[reason] += 1
    recorder.count(f"runtime.serial_fallback.{reason}")
    attrs = {"serial_fallback": reason, "serial_fallback_op": op}
    # ledger-visible context: which transport's floor/pool made the call
    if transport is not None:
        attrs["serial_fallback_transport"] = transport
    if floor is not None:
        attrs["serial_fallback_floor"] = int(floor)
    recorder.annotate(**attrs)


# -- transport accounting ----------------------------------------------------

_transport_lock = threading.Lock()
_transport_totals = {"shm_bytes": 0, "pickled_bytes": 0,
                     "copies_avoided": 0, "requests": 0}


def transport_stats() -> dict[str, int]:
    """Cumulative bytes moved across the process boundary, by mechanism.

    ``shm_bytes`` crossed through shared-memory arenas (one memcpy per
    direction, nothing serialized), ``pickled_bytes`` crossed the
    control/data queues serialized, ``copies_avoided`` counts payloads
    that skipped pickling entirely. The bench emitter snapshots this
    around its transport workload.
    """
    with _transport_lock:
        return dict(_transport_totals)


def reset_transport_stats() -> None:
    with _transport_lock:
        for k in _transport_totals:
            _transport_totals[k] = 0


def _note_transport(cap, kind: str, stats: TransportStats) -> None:
    with _transport_lock:
        _transport_totals["shm_bytes"] += stats.shm_bytes
        _transport_totals["pickled_bytes"] += stats.pickled_bytes
        _transport_totals["copies_avoided"] += stats.copies_avoided
        _transport_totals["requests"] += 1
    telemetry.incr("runtime.transport.shm_bytes", stats.shm_bytes)
    telemetry.incr("runtime.transport.pickled_bytes",
                   stats.pickled_bytes)
    cap.set(transport=kind, transport_shm_bytes=stats.shm_bytes,
            transport_pickled_bytes=stats.pickled_bytes,
            transport_copies_avoided=stats.copies_avoided)


# -- worker-count knob ------------------------------------------------------

def _usable_cpus() -> int:
    """CPUs this process may actually run on. ``os.cpu_count()`` reports
    the machine; CI runners and containers pin processes to a subset via
    affinity/cgroups, and sizing ``"auto"`` pools (or reporting
    ``cpu_count`` in the bench doc) off the machine-wide number is
    wrong on both sides of that split."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(workers: int | str | None) -> int:
    """Normalize the ``workers=`` knob to a concrete pool size.

    ``None``/``0``/``1`` mean serial, ``"auto"`` means one worker per
    core, and a positive integer pins the size. Anything else is a
    configuration error.
    """
    if workers is None:
        return 1
    if workers == "auto":
        return max(1, _usable_cpus())
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ConfigError(f"workers must be None, 'auto', or an int, "
                          f"got {workers!r}")
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    return max(1, workers)


# -- pool lifecycle ---------------------------------------------------------

_POOLS: dict[int, ProcessPoolExecutor] = {}
_pool_lock = threading.Lock()


def _get_pool(workers: int) -> ProcessPoolExecutor:
    with _pool_lock:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=workers)
            _POOLS[workers] = pool
        return pool


def _evict_pool(workers: int) -> None:
    with _pool_lock:
        pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


_SHM_POOLS: dict[int, ShmPool] = {}


def _get_shm_pool(workers: int) -> ShmPool:
    with _pool_lock:
        pool = _SHM_POOLS.get(workers)
        if pool is not None and not pool.alive():
            _SHM_POOLS.pop(workers, None)
            pool.shutdown()
            pool = None
        if pool is None:
            pool = ShmPool(workers)
            _SHM_POOLS[workers] = pool
        return pool


def _evict_shm_pool(workers: int) -> None:
    """Tear down a crashed daemon pool — this unlinks its arenas, so a
    killed worker never leaves ``/dev/shm`` segments behind."""
    with _pool_lock:
        pool = _SHM_POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown()


def shutdown_pools() -> None:
    """Shut down every cached worker pool (atexit-registered)."""
    with _pool_lock:
        pools = list(_POOLS.values())
        _POOLS.clear()
        shm_pools = list(_SHM_POOLS.values())
        _SHM_POOLS.clear()
    for pool in pools:
        pool.shutdown()
    for pool in shm_pools:
        pool.shutdown()


atexit.register(shutdown_pools)


# -- shm transport dispatch --------------------------------------------------

def _shm_attempt(op: str, workers: int, invoke):
    """Run one request on the daemon pool; returns ``(status, result)``.

    ``status`` tells the caller how to proceed: ``"ok"`` (result holds
    the :class:`~repro.runtime.workers.RequestResult`), ``"unavailable"``
    (no shm on this platform/env — use the pickle transport),
    ``"crashed"`` (a worker died; the pool was evicted and its arenas
    unlinked — run serial), or ``"task_error"`` (the work itself raised
    in a worker — re-run serial so the real exception surfaces with its
    original type).
    """
    try:
        pool = _get_shm_pool(workers)
    except ArenaError:
        telemetry.incr("runtime.transport.shm_unavailable")
        return "unavailable", None
    try:
        return "ok", invoke(pool)
    except BrokenWorkerPool:
        _evict_shm_pool(workers)
        _note_fallback("worker_crash", op, transport="shm")
        return "crashed", None
    except WorkerTaskError:
        return "task_error", None
    except ArenaError:  # pragma: no cover - /dev/shm exhausted mid-grow
        telemetry.incr("runtime.transport.shm_unavailable")
        return "unavailable", None


def _absorb_shm_result(cap, rr, offset_s: float):
    """Merge a shm request's worker traces/aux and account transport."""
    results = [(None, o.spans, o.pid, o.aux) for o in rr.outcomes]
    _merge_worker_trace(results, offset_s)
    _merge_worker_aux(cap, results)
    _note_transport(cap, "shm", rr.stats)
    return rr.final


def _run_batch(task, payloads: list, workers: int) -> list:
    """Run ``task`` over ``payloads`` on the pool, results in order.

    A pool broken by a dead worker (e.g. an OOM-killed child) is evicted
    and rebuilt once before the error propagates.
    """
    for attempt in (0, 1):
        pool = _get_pool(workers)
        try:
            return list(pool.map(task, payloads))
        except BrokenProcessPool:
            _evict_pool(workers)
            if attempt:
                raise
    raise AssertionError("unreachable")


def run_batch(task, payloads: list, workers: int | str | None) -> list:
    """Run a picklable ``task`` over ``payloads`` on the shared pool.

    Results come back in input order. This is the raw batch primitive the
    slab/field helpers are built on, exposed for other coarse-grained
    fan-outs (the lossless orchestrator's block-parallel GLE route).
    ``workers <= 1`` degrades to a plain in-process loop.
    """
    workers = resolve_workers(workers)
    if workers <= 1:
        return [task(p) for p in payloads]
    return _run_batch(task, payloads, workers)


def _merge_worker_trace(results: list, offset_s: float) -> None:
    """Graft per-item worker spans back into the parent trace, stamped
    with the run's trace id so spans and ledger records stitch."""
    if not telemetry.enabled():
        return
    trace_id = recorder.current_trace_id()
    extra = {"trace_id": trace_id} if trace_id else {}
    for _, spans, pid, _aux in results:
        if spans:
            telemetry.merge_spans(spans, offset_s=offset_s,
                                  worker_pid=pid, **extra)


def _merge_worker_aux(cap, results: list) -> None:
    """Fold each worker task's cache/memory aux into the parent's
    flight-recorder capture (worker rings die with the worker; the aux
    dict is the part that must survive the process boundary)."""
    for _res, _spans, _pid, aux in results:
        cap.merge_worker(aux)


def _worker_baseline():
    """Cache-counter baseline at worker-task start (None when the
    recorder is opted out via ``REPRO_FLIGHT_RECORDER=0``)."""
    return recorder.worker_baseline() if recorder.enabled() else None


def _worker_aux(baseline):
    return recorder.worker_aux(baseline) if recorder.enabled() else None


def _trace_offset() -> float:
    """Parent-clock offset applied to worker spans (their epoch is 0)."""
    if not telemetry.enabled():
        return 0.0
    return time.perf_counter() - telemetry.get_registry().epoch


# -- worker entry points (module-level: payloads must survive pickle) -------

def _chunk_bounds(n_items: int, n_groups: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``(start, end)`` split of ``n_items``."""
    n_groups = max(1, min(n_groups, n_items))
    base, extra = divmod(n_items, n_groups)
    bounds = []
    start = 0
    for g in range(n_groups):
        end = start + base + (1 if g < extra else 0)
        bounds.append((start, end))
        start = end
    return bounds


def _compress_slab_task(payload):
    """One pool task = one contiguous *group* of slabs.

    Grouping amortizes pickle/dispatch overhead over the batch and lets
    each worker reuse its warm codec caches across its whole share. The
    payload's trace context is adopted for the task, so every run record
    the worker appends carries the parent run's ``trace_id``.
    """
    start, slabs, codec, eb, kwargs, trace, ctx = payload
    base = _worker_baseline()
    comp = get_compressor(codec, eb=eb, mode="abs", **kwargs)
    with recorder.trace_scope(ctx):
        if trace:
            with telemetry.recording() as reg:
                blobs = []
                for i, slab in enumerate(slabs):
                    with telemetry.span("slab.append", index=start + i,
                                        bytes_in=slab.nbytes) as sp:
                        blob = comp.compress(slab)
                        sp.set(bytes_out=len(blob))
                    blobs.append(blob)
            return blobs, reg.spans, os.getpid(), _worker_aux(base)
        telemetry.disable()
        return [comp.compress(slab) for slab in slabs], None, \
            os.getpid(), _worker_aux(base)


def _decompress_slab_task(payload):
    start, blobs, trace, ctx = payload
    base = _worker_baseline()
    with recorder.trace_scope(ctx):
        if trace:
            with telemetry.recording() as reg:
                out = []
                for i, blob in enumerate(blobs):
                    with telemetry.span("slab.read", index=start + i,
                                        bytes_in=len(blob)) as sp:
                        arr = decompress_any(blob)
                        sp.set(bytes_out=arr.nbytes)
                    out.append(arr)
            return out, reg.spans, os.getpid(), _worker_aux(base)
        telemetry.disable()
        return [decompress_any(blob) for blob in blobs], None, \
            os.getpid(), _worker_aux(base)


def _compress_field_task(payload):
    index, data, codec, kwargs, trace, ctx = payload
    base = _worker_baseline()
    with recorder.trace_scope(ctx):
        if trace:
            with telemetry.recording() as reg:
                with telemetry.span("runtime.field", index=index,
                                    codec=codec,
                                    bytes_in=data.nbytes) as sp:
                    blob = get_compressor(codec, **kwargs).compress(data)
                    sp.set(bytes_out=len(blob))
            return blob, reg.spans, os.getpid(), _worker_aux(base)
        telemetry.disable()
        return get_compressor(codec, **kwargs).compress(data), None, \
            os.getpid(), _worker_aux(base)


def _decompress_field_task(payload):
    index, blob, trace, ctx = payload
    base = _worker_baseline()
    with recorder.trace_scope(ctx):
        if trace:
            with telemetry.recording() as reg:
                with telemetry.span("runtime.field", index=index,
                                    bytes_in=len(blob)) as sp:
                    out = decompress_any(blob)
                    sp.set(bytes_out=out.nbytes)
            return out, reg.spans, os.getpid(), _worker_aux(base)
        telemetry.disable()
        return decompress_any(blob), None, os.getpid(), _worker_aux(base)


# -- parallel slab runtime --------------------------------------------------

def parallel_compress_slabs(data: np.ndarray, slab_planes: int, *,
                            workers: int | str | None = None,
                            min_parallel_bytes: int | None = None,
                            transport: str | None = None,
                            **writer_kwargs) -> bytes:
    """Slab-stream a field like :func:`repro.streaming.compress_slabs`,
    compressing slab groups concurrently across worker processes.

    The output is **byte-identical** to the serial path for any
    ``workers``/``transport`` value: slabs are cut at the same plane
    boundaries, compressed by the same deterministic codec
    configuration, and framed in their original order. Fields below
    ``min_parallel_bytes`` raw bytes (default: the active transport's
    floor, :data:`SHM_MIN_ENCODE_BYTES` or
    :data:`PARALLEL_MIN_ENCODE_BYTES`) take the serial path outright —
    IPC overhead dwarfs the codec work there.
    """
    workers = resolve_workers(workers)
    kind = transport_kind(transport)
    if min_parallel_bytes is None:
        min_parallel_bytes = _encode_floor(kind)
    if workers <= 1:
        return compress_slabs(data, slab_planes, **writer_kwargs)
    with recorder.capture("runtime.compress_slabs", workers=workers,
                          bytes_in=data.nbytes) as cap:
        if data.nbytes < min_parallel_bytes:
            # a pooled request degraded to serial is still a run the
            # ledger should see, with its fallback counter/annotation
            _note_fallback("size_floor", "compress_slabs",
                           transport=kind, floor=min_parallel_bytes)
            stream = compress_slabs(data, slab_planes, **writer_kwargs)
        else:
            stream = _pooled_compress_slabs(cap, data, slab_planes,
                                            workers, kind, writer_kwargs)
        cap.set(bytes_out=len(stream))
    return stream


def _pooled_compress_slabs(cap, data: np.ndarray, slab_planes: int,
                           workers: int, kind: str,
                           writer_kwargs: dict) -> bytes:
    if slab_planes < 1:
        raise ConfigError("slab_planes must be >= 1")
    if writer_kwargs.get("mode") == "rel" \
            and "value_range" not in writer_kwargs:
        writer_kwargs["value_range"] = float(data.max() - data.min())
    # the writer validates the config and resolves rel->abs exactly as the
    # serial path does; its (codec, eb, kwargs) config is the work spec
    writer = SlabWriter(**writer_kwargs)
    slabs = [np.ascontiguousarray(data[start:start + slab_planes])
             for start in range(0, data.shape[0], slab_planes)]
    if not slabs:
        raise ConfigError("no slabs appended")
    cap.set(n_slabs=len(slabs))
    trace = telemetry.enabled()
    offset = _trace_offset()
    ctx = recorder.propagation_context()
    bounds = _chunk_bounds(len(slabs), workers)
    if kind == "shm":
        status, rr = _shm_attempt(
            "compress_slabs", workers,
            lambda pool: pool.compress_slabs(
                slabs, bounds, writer.codec, writer.eb,
                writer.codec_kwargs, trace, ctx, consume=frame_slabs))
        if status == "ok":
            return _absorb_shm_result(cap, rr, offset)
        if status != "unavailable":
            # crashed / task_error -> serial (re-raises for real)
            return compress_slabs(data, slab_planes, **writer_kwargs)
    payloads = [(s, slabs[s:e], writer.codec, writer.eb,
                 writer.codec_kwargs, trace, ctx) for s, e in bounds]
    try:
        results = _run_batch(_compress_slab_task, payloads, workers)
    except (BrokenProcessPool, OSError):
        _note_fallback("spawn_failure", "compress_slabs",
                       transport="pickle")
        return compress_slabs(data, slab_planes, **writer_kwargs)
    _merge_worker_trace(results, offset)
    _merge_worker_aux(cap, results)
    stream = frame_slabs([blob for blobs, _, _, _ in results
                          for blob in blobs])
    _note_transport(cap, "pickle", TransportStats(
        pickled_bytes=data.nbytes + len(stream), items=len(slabs)))
    return stream


def parallel_decompress_slabs(stream: bytes, *,
                              workers: int | str | None = None,
                              min_parallel_bytes: int | None = None,
                              transport: str | None = None
                              ) -> np.ndarray:
    """Reassemble a slab stream, decoding slab groups concurrently.

    Streams below ``min_parallel_bytes`` compressed bytes (default: the
    active transport's floor, :data:`SHM_MIN_DECODE_BYTES` or
    :data:`PARALLEL_MIN_DECODE_BYTES`) decode serially regardless of
    ``workers`` — decode is cheap relative to moving every decoded slab
    back across the process boundary.
    """
    workers = resolve_workers(workers)
    kind = transport_kind(transport)
    if min_parallel_bytes is None:
        min_parallel_bytes = _decode_floor(kind)
    if workers <= 1:
        return decompress_slabs(stream)
    with recorder.capture("runtime.decompress_slabs", workers=workers,
                          bytes_in=len(stream)) as cap:
        if len(stream) < min_parallel_bytes:
            _note_fallback("size_floor", "decompress_slabs",
                           transport=kind, floor=min_parallel_bytes)
            out = decompress_slabs(stream)
        else:
            out = _pooled_decompress_slabs(cap, stream, workers, kind)
        cap.set(bytes_out=out.nbytes)
    return out


def _pooled_decompress_slabs(cap, stream: bytes, workers: int,
                             kind: str) -> np.ndarray:
    reader = SlabReader(stream)
    cap.set(n_slabs=len(reader))
    trace = telemetry.enabled()
    offset = _trace_offset()
    ctx = recorder.propagation_context()
    bounds = _chunk_bounds(len(reader), workers)
    if kind == "shm":
        spans = [reader.slab_span(i) for i in range(len(reader))]
        status, rr = _shm_attempt(
            "decompress_slabs", workers,
            lambda pool: pool.decompress_slabs(
                stream, spans, bounds, trace, ctx,
                consume=lambda arrs: np.concatenate(arrs, axis=0)))
        if status == "ok":
            return _absorb_shm_result(cap, rr, offset)
        if status != "unavailable":
            return decompress_slabs(stream)
    blobs = [reader.slab_bytes(i) for i in range(len(reader))]
    payloads = [(s, blobs[s:e], trace, ctx) for s, e in bounds]
    try:
        results = _run_batch(_decompress_slab_task, payloads, workers)
    except (BrokenProcessPool, OSError):
        _note_fallback("spawn_failure", "decompress_slabs",
                       transport="pickle")
        return decompress_slabs(stream)
    _merge_worker_trace(results, offset)
    _merge_worker_aux(cap, results)
    out = np.concatenate([arr for arrs, _, _, _ in results
                          for arr in arrs], axis=0)
    _note_transport(cap, "pickle", TransportStats(
        pickled_bytes=len(stream) + out.nbytes, items=len(reader)))
    return out


# -- many-field batches -----------------------------------------------------

def map_compress(fields, codec: str = "cuszi", *,
                 workers: int | str | None = None,
                 per_item: list[dict] | None = None,
                 transport: str | None = None,
                 **codec_kwargs) -> list[bytes]:
    """Compress a batch of fields, returning blobs in input order.

    ``per_item`` optionally overrides the codec configuration of single
    items (a dict per field; an item dict may also override ``"codec"``).
    With ``workers`` serial this is a plain loop — same results, same
    spans — so callers can thread the knob through unconditionally.
    """
    fields = list(fields)
    per_item = list(per_item) if per_item is not None else [{}] * len(fields)
    if len(per_item) != len(fields):
        raise ConfigError(f"per_item has {len(per_item)} entries for "
                          f"{len(fields)} fields")
    configs = []
    for overrides in per_item:
        overrides = dict(overrides)
        item_codec = overrides.pop("codec", codec)
        configs.append((item_codec, {**codec_kwargs, **overrides}))
    workers = resolve_workers(workers)

    def _serial() -> list[bytes]:
        blobs = []
        for i, (data, (item_codec, kwargs)) in enumerate(
                zip(fields, configs)):
            with telemetry.span("runtime.field", index=i,
                                codec=item_codec,
                                bytes_in=data.nbytes) as sp:
                blob = get_compressor(item_codec, **kwargs
                                      ).compress(data)
                sp.set(bytes_out=len(blob))
            blobs.append(blob)
        return blobs

    with recorder.capture("runtime.map_compress", workers=workers,
                          n_fields=len(fields)) as cap:
        if workers <= 1:
            blobs = _serial()
        else:
            kind = transport_kind(transport)
            trace = telemetry.enabled()
            offset = _trace_offset()
            ctx = recorder.propagation_context()
            blobs = None
            if kind == "shm":
                bounds = _chunk_bounds(len(fields), workers)
                status, rr = _shm_attempt(
                    "map_compress", workers,
                    lambda pool: pool.compress_fields(
                        fields, configs, bounds, trace, ctx,
                        consume=lambda views: [bytes(v) for v in views]))
                if status == "ok":
                    blobs = _absorb_shm_result(cap, rr, offset)
                elif status in ("crashed", "task_error"):
                    blobs = _serial()
            if blobs is None:
                payloads = [(i, data, item_codec, kwargs, trace, ctx)
                            for i, (data, (item_codec, kwargs))
                            in enumerate(zip(fields, configs))]
                try:
                    results = _run_batch(_compress_field_task, payloads,
                                         workers)
                except (BrokenProcessPool, OSError):
                    _note_fallback("spawn_failure", "map_compress",
                                   transport="pickle")
                    results = None
                if results is None:
                    blobs = _serial()
                else:
                    _merge_worker_trace(results, offset)
                    _merge_worker_aux(cap, results)
                    blobs = [blob for blob, _, _, _ in results]
                    _note_transport(cap, "pickle", TransportStats(
                        pickled_bytes=sum(d.nbytes for d in fields)
                        + sum(len(b) for b in blobs),
                        items=len(fields)))
        cap.set(bytes_in=sum(d.nbytes for d in fields),
                bytes_out=sum(len(b) for b in blobs))
    return blobs


def map_decompress(blobs, *, workers: int | str | None = None,
                   transport: str | None = None) -> list[np.ndarray]:
    """Decompress a batch of blobs, returning arrays in input order."""
    blobs = list(blobs)
    workers = resolve_workers(workers)

    def _serial() -> list[np.ndarray]:
        out = []
        for i, blob in enumerate(blobs):
            with telemetry.span("runtime.field", index=i,
                                bytes_in=len(blob)) as sp:
                arr = decompress_any(blob)
                sp.set(bytes_out=arr.nbytes)
            out.append(arr)
        return out

    with recorder.capture("runtime.map_decompress", workers=workers,
                          n_fields=len(blobs)) as cap:
        cap.set(bytes_in=sum(len(b) for b in blobs))
        if workers <= 1:
            out = _serial()
        else:
            kind = transport_kind(transport)
            trace = telemetry.enabled()
            offset = _trace_offset()
            ctx = recorder.propagation_context()
            out = None
            if kind == "shm":
                bounds = _chunk_bounds(len(blobs), workers)
                status, rr = _shm_attempt(
                    "map_decompress", workers,
                    lambda pool: pool.decompress_fields(
                        blobs, bounds, trace, ctx,
                        # arena-backed views die at the next request;
                        # np.array copies each result out exactly once
                        consume=lambda arrs: [np.array(a)
                                              for a in arrs]))
                if status == "ok":
                    out = _absorb_shm_result(cap, rr, offset)
                elif status in ("crashed", "task_error"):
                    out = _serial()
            if out is None:
                payloads = [(i, blob, trace, ctx)
                            for i, blob in enumerate(blobs)]
                try:
                    results = _run_batch(_decompress_field_task,
                                         payloads, workers)
                except (BrokenProcessPool, OSError):
                    _note_fallback("spawn_failure", "map_decompress",
                                   transport="pickle")
                    results = None
                if results is None:
                    out = _serial()
                else:
                    _merge_worker_trace(results, offset)
                    _merge_worker_aux(cap, results)
                    out = [arr for arr, _, _, _ in results]
                    _note_transport(cap, "pickle", TransportStats(
                        pickled_bytes=sum(len(b) for b in blobs)
                        + sum(a.nbytes for a in out),
                        items=len(blobs)))
        cap.set(bytes_out=sum(a.nbytes for a in out))
        return out
