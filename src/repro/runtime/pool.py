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
* :func:`run_batch` applies a module-level bytes-to-bytes function to
  many payloads (the lossless orchestrator's block-parallel GLE route);
* worker processes record their own telemetry spans and ship them back,
  where they are grafted into the parent trace
  (:func:`repro.telemetry.merge_spans`) — ``repro trace`` then shows the
  per-slab concurrency lanes by worker pid.

Everything is gated behind a ``workers=`` knob: the default (``None``)
stays serial, ``workers="auto"`` uses every core, and any explicit
integer pins the pool size. Serial requests never touch
``multiprocessing`` at all, so the default path is exactly the code that
existed before this module.

Every pooled request runs on one transport: the persistent worker-daemon
pool of :mod:`repro.runtime.workers`, which moves slabs, fields and
blocks through shared-memory arenas and pickles only offsets, lengths
and codec config. Daemons are long-lived, so their plan, codebook and
orchestrator caches stay warm *across* requests, not just within one
batch. Requests below the break-even floors
(:data:`PARALLEL_MIN_ENCODE_BYTES`, :data:`PARALLEL_MIN_DECODE_BYTES`),
on a platform without shared memory, or on a pool whose worker died run
on the serial path instead — with the same output bytes and a
``serial_fallback`` reason on the run's ledger record.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import threading
import time

import numpy as np

from repro import telemetry
from repro.telemetry import recorder
from repro.common.errors import ConfigError
from repro.registry import decompress_any, get_compressor
from repro.runtime.workers import (BrokenWorkerPool, ShmPool,
                                   TransportStats, WorkerTaskError)
from repro.runtime.shm import ArenaError
from repro.streaming import SlabWriter, SlabReader, compress_slabs, \
    decompress_slabs, frame_slabs

__all__ = ["resolve_workers", "parallel_compress_slabs",
           "parallel_decompress_slabs", "map_compress", "map_decompress",
           "run_batch", "shutdown_pools", "serial_fallbacks",
           "reset_serial_fallbacks", "transport_stats",
           "reset_transport_stats",
           "PARALLEL_MIN_ENCODE_BYTES", "PARALLEL_MIN_DECODE_BYTES"]

#: fields smaller than this (raw bytes) compress serially even when a
#: pool is requested. The zero-copy hand-off costs one memcpy in, one
#: out, and a constant ~100 us of queue dispatch per request, so the
#: pool pays off once the codec work clearly exceeds that
PARALLEL_MIN_ENCODE_BYTES = 1 * 1024 * 1024
#: streams smaller than this (compressed bytes) decompress serially.
#: Decode is several times cheaper than encode, so its floor sits at a
#: quarter of the encode floor in compressed bytes
PARALLEL_MIN_DECODE_BYTES = 256 * 1024


# -- serial-fallback accounting ---------------------------------------------

_fallback_lock = threading.Lock()
#: why a pooled request ran serially: below the IPC break-even size
#: floor (expected, tunable), a pool that could not be (re)spawned or a
#: platform without shared memory, a worker daemon that died
#: mid-request (both environment problems ``repro doctor`` should flag),
#: or a task that raised inside a worker (re-run serially so the real
#: exception surfaces with its original type)
_fallback_counts = {"size_floor": 0, "spawn_failure": 0,
                    "worker_crash": 0, "task_error": 0}


def serial_fallbacks() -> dict[str, int]:
    """Counts of pooled requests that degraded to the serial path."""
    with _fallback_lock:
        return dict(_fallback_counts)


def reset_serial_fallbacks() -> None:
    with _fallback_lock:
        for k in _fallback_counts:
            _fallback_counts[k] = 0


def _note_fallback(reason: str, op: str, floor: int | None = None) -> None:
    with _fallback_lock:
        _fallback_counts[reason] += 1
    recorder.count(f"runtime.serial_fallback.{reason}")
    # ledger-visible context: which pool path and floor made the call
    attrs = {"serial_fallback": reason, "serial_fallback_op": op,
             "serial_fallback_transport": "shm"}
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
    control queue serialized (a result that overflowed its output
    arena), ``copies_avoided`` counts payloads that skipped pickling
    entirely. The bench emitter snapshots this around its transport
    workload.
    """
    with _transport_lock:
        return dict(_transport_totals)


def reset_transport_stats() -> None:
    with _transport_lock:
        for k in _transport_totals:
            _transport_totals[k] = 0


def _note_transport(stats: TransportStats) -> None:
    with _transport_lock:
        _transport_totals["shm_bytes"] += stats.shm_bytes
        _transport_totals["pickled_bytes"] += stats.pickled_bytes
        _transport_totals["copies_avoided"] += stats.copies_avoided
        _transport_totals["requests"] += 1
    telemetry.incr("runtime.transport.shm_bytes", stats.shm_bytes)
    telemetry.incr("runtime.transport.pickled_bytes",
                   stats.pickled_bytes)


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

_pool_lock = threading.Lock()
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
        pools = list(_SHM_POOLS.values())
        _SHM_POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_pools)


# -- pooled dispatch ----------------------------------------------------------

def _pooled(op: str, workers: int, invoke):
    """Run one request on the daemon pool.

    Returns the :class:`~repro.runtime.workers.RequestResult`, or
    ``None`` when the caller must take the serial path. Each ``None``
    records its reason: ``spawn_failure`` (no shared memory on this
    platform, or the pool could not start), ``worker_crash`` (a worker
    died; the pool was evicted and its arenas unlinked) or
    ``task_error`` (the work itself raised in a worker — the serial
    re-run surfaces the real exception with its original type).
    """
    try:
        pool = _get_shm_pool(workers)
        return invoke(pool)
    except BrokenWorkerPool:
        _evict_shm_pool(workers)
        _note_fallback("worker_crash", op)
    except WorkerTaskError:
        _note_fallback("task_error", op)
    except ArenaError:
        _note_fallback("spawn_failure", op)
    return None


def _absorb(cap, rr, offset_s: float):
    """Merge a pooled request's worker traces/aux into the run capture
    and stamp its transport accounting on the record."""
    _merge_worker_trace(rr.outcomes, offset_s)
    _merge_worker_aux(cap, rr.outcomes)
    _note_transport(rr.stats)
    cap.set(**{"transport": "shm",
               "transport_shm_bytes": rr.stats.shm_bytes,
               "transport_pickled_bytes": rr.stats.pickled_bytes,
               "transport_copies_avoided": rr.stats.copies_avoided})
    return rr.final


def run_batch(task, payloads: list, workers: int | str | None) -> list:
    """Apply a module-level bytes-to-bytes ``task`` to every payload.

    Results come back as ``bytes`` in input order. This is the raw
    fan-out primitive for coarse-grained work outside the slab/field
    helpers (the lossless orchestrator's block-parallel GLE route); each
    payload is one daemon-pool task, so the workers balance uneven
    blocks dynamically. ``workers <= 1`` degrades to a plain in-process
    loop, and so does a call from inside a daemonic process (a pool
    worker cannot have children).
    """
    workers = resolve_workers(workers)
    if workers <= 1 or mp.current_process().daemon:
        return [task(p) for p in payloads]
    offset = _trace_offset()
    rr = _pooled("run_batch", workers,
                 lambda pool: pool.map_bytes(
                     task, payloads, telemetry.enabled(),
                     recorder.propagation_context(),
                     consume=lambda views: [bytes(v) for v in views]))
    if rr is None:
        return [task(p) for p in payloads]
    # run_batch has no record of its own: worker traces and aux fold
    # into whichever run is open around it
    _merge_worker_trace(rr.outcomes, offset)
    cap = recorder.current()
    if cap is not None:
        _merge_worker_aux(cap, rr.outcomes)
    _note_transport(rr.stats)
    return rr.final


def _merge_worker_trace(outcomes: list, offset_s: float) -> None:
    """Graft per-item worker spans back into the parent trace, stamped
    with the run's trace id so spans and ledger records stitch."""
    if not telemetry.enabled():
        return
    trace_id = recorder.current_trace_id()
    extra = {"trace_id": trace_id} if trace_id else {}
    for outcome in outcomes:
        if outcome.spans:
            telemetry.merge_spans(outcome.spans, offset_s=offset_s,
                                  worker_pid=outcome.pid, **extra)


def _merge_worker_aux(cap, outcomes: list) -> None:
    """Fold each worker task's cache/memory aux into the parent's
    flight-recorder capture (worker rings die with the worker; the aux
    dict is the part that must survive the process boundary)."""
    for outcome in outcomes:
        cap.merge_worker(outcome.aux)


def _trace_offset() -> float:
    """Parent-clock offset applied to worker spans (their epoch is 0)."""
    if not telemetry.enabled():
        return 0.0
    return time.perf_counter() - telemetry.get_registry().epoch


def _chunk_bounds(n_items: int, n_groups: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``(start, end)`` split of ``n_items``.

    One pool task = one contiguous *group* of items: grouping amortizes
    dispatch over the batch and lets each worker reuse its warm codec
    caches across its whole share."""
    n_groups = max(1, min(n_groups, n_items))
    base, extra = divmod(n_items, n_groups)
    bounds = []
    start = 0
    for g in range(n_groups):
        end = start + base + (1 if g < extra else 0)
        bounds.append((start, end))
        start = end
    return bounds


# -- parallel slab runtime --------------------------------------------------

def parallel_compress_slabs(data: np.ndarray, slab_planes: int, *,
                            workers: int | str | None = None,
                            min_parallel_bytes: int | None = None,
                            **writer_kwargs) -> bytes:
    """Slab-stream a field like :func:`repro.streaming.compress_slabs`,
    compressing slab groups concurrently across worker processes.

    The output is **byte-identical** to the serial path for any
    ``workers`` value: slabs are cut at the same plane boundaries,
    compressed by the same deterministic codec configuration, and framed
    in their original order. Fields below ``min_parallel_bytes`` raw
    bytes (default :data:`PARALLEL_MIN_ENCODE_BYTES`) take the serial
    path outright — IPC overhead dwarfs the codec work there.
    """
    workers = resolve_workers(workers)
    if min_parallel_bytes is None:
        min_parallel_bytes = PARALLEL_MIN_ENCODE_BYTES
    if workers <= 1:
        return compress_slabs(data, slab_planes, **writer_kwargs)
    with recorder.capture("runtime.compress_slabs", workers=workers,
                          bytes_in=data.nbytes) as cap:
        if data.nbytes < min_parallel_bytes:
            # a pooled request degraded to serial is still a run the
            # ledger should see, with its fallback counter/annotation
            _note_fallback("size_floor", "compress_slabs",
                           floor=min_parallel_bytes)
            stream = compress_slabs(data, slab_planes, **writer_kwargs)
        else:
            stream = _pooled_compress_slabs(cap, data, slab_planes,
                                            workers, writer_kwargs)
        cap.set(bytes_out=len(stream))
    return stream


def _pooled_compress_slabs(cap, data: np.ndarray, slab_planes: int,
                           workers: int, writer_kwargs: dict) -> bytes:
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
    offset = _trace_offset()
    rr = _pooled("compress_slabs", workers,
                 lambda pool: pool.compress_slabs(
                     slabs, _chunk_bounds(len(slabs), workers),
                     writer.codec, writer.eb, writer.codec_kwargs,
                     telemetry.enabled(), recorder.propagation_context(),
                     consume=frame_slabs))
    if rr is None:
        return compress_slabs(data, slab_planes, **writer_kwargs)
    return _absorb(cap, rr, offset)


def parallel_decompress_slabs(stream: bytes, *,
                              workers: int | str | None = None,
                              min_parallel_bytes: int | None = None
                              ) -> np.ndarray:
    """Reassemble a slab stream, decoding slab groups concurrently.

    Streams below ``min_parallel_bytes`` compressed bytes (default
    :data:`PARALLEL_MIN_DECODE_BYTES`) decode serially regardless of
    ``workers`` — decode is cheap relative to moving every decoded slab
    back across the process boundary.
    """
    workers = resolve_workers(workers)
    if min_parallel_bytes is None:
        min_parallel_bytes = PARALLEL_MIN_DECODE_BYTES
    if workers <= 1:
        return decompress_slabs(stream)
    with recorder.capture("runtime.decompress_slabs", workers=workers,
                          bytes_in=len(stream)) as cap:
        if len(stream) < min_parallel_bytes:
            _note_fallback("size_floor", "decompress_slabs",
                           floor=min_parallel_bytes)
            out = decompress_slabs(stream)
        else:
            out = _pooled_decompress_slabs(cap, stream, workers)
        cap.set(bytes_out=out.nbytes)
    return out


def _pooled_decompress_slabs(cap, stream: bytes,
                             workers: int) -> np.ndarray:
    reader = SlabReader(stream)
    cap.set(n_slabs=len(reader))
    offset = _trace_offset()
    spans = [reader.slab_span(i) for i in range(len(reader))]
    rr = _pooled("decompress_slabs", workers,
                 lambda pool: pool.decompress_slabs(
                     stream, spans, _chunk_bounds(len(reader), workers),
                     telemetry.enabled(), recorder.propagation_context(),
                     consume=lambda arrs: np.concatenate(arrs, axis=0)))
    if rr is None:
        return decompress_slabs(stream)
    return _absorb(cap, rr, offset)


# -- many-field batches -----------------------------------------------------

def map_compress(fields, codec: str = "cuszi", *,
                 workers: int | str | None = None,
                 per_item: list[dict] | None = None,
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
        rr = None
        if workers > 1:
            offset = _trace_offset()
            rr = _pooled("map_compress", workers,
                         lambda pool: pool.compress_fields(
                             fields, configs,
                             _chunk_bounds(len(fields), workers),
                             telemetry.enabled(),
                             recorder.propagation_context(),
                             consume=lambda views: [bytes(v)
                                                    for v in views]))
        blobs = _serial() if rr is None else _absorb(cap, rr, offset)
        cap.set(bytes_in=sum(d.nbytes for d in fields),
                bytes_out=sum(len(b) for b in blobs))
    return blobs


def map_decompress(blobs, *,
                   workers: int | str | None = None) -> list[np.ndarray]:
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
        rr = None
        if workers > 1:
            offset = _trace_offset()
            rr = _pooled("map_decompress", workers,
                         lambda pool: pool.decompress_fields(
                             blobs, _chunk_bounds(len(blobs), workers),
                             telemetry.enabled(),
                             recorder.propagation_context(),
                             # arena-backed views die at the next
                             # request; np.array copies each result out
                             # exactly once
                             consume=lambda arrs: [np.array(a)
                                                   for a in arrs]))
        out = _serial() if rr is None else _absorb(cap, rr, offset)
        cap.set(bytes_out=sum(a.nbytes for a in out))
        return out
