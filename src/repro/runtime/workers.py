"""Persistent worker daemons over shared-memory arenas.

This is the runtime's one pooled transport. A :class:`ShmPool` holds
long-lived worker processes that loop on a control queue; payloads
cross through two :class:`Arena` segments (:mod:`repro.runtime.shm`) —
the parent writes inputs into the input arena, workers compress,
decompress or transform them **in place** and write results into the
output arena under a cross-process cursor lock, and only small control
tuples (offsets, lengths, codec config, trace context) are ever
pickled. Five request kinds exist: slab groups and whole fields, each
way, plus :meth:`ShmPool.map_bytes`, which applies a module-level
bytes-to-bytes function to arena-resident blocks.

Because workers are daemons, not per-batch forks, their per-process
caches — compiled interpolation plans, Huffman codebooks and probe LUTs,
the lossless orchestrator's plan cache — stay **warm across requests and
batches**. Each task ships its cache-counter deltas back on the existing
aux channel; the pool accumulates them and registers a
``runtime.workers`` provider in the telemetry cache registry
(:mod:`repro.telemetry.caches`), so worker-resident cache behaviour
shows up in ``repro doctor``, ``repro_cache_*`` metrics and per-run
ledger records exactly like parent-resident caches.

Failure discipline:

* a worker that dies (OOM kill, segfault) surfaces as
  :class:`BrokenWorkerPool` — the pool tears down, **unlinks its
  arenas**, and the caller degrades to the serial path;
* a worker *task* that raises surfaces as :class:`WorkerTaskError` — the
  caller re-runs serially, which reproduces the real exception with its
  original type;
* a pool that cannot start (no shared memory, no processes) raises
  :class:`~repro.runtime.shm.ArenaError` from the constructor — the
  caller runs serially;
* an output arena too small for a result degrades that one payload to
  inline queue transport (counted as ``pickled_bytes``), never an error.

Requests are serialized by a pool-level lock: concurrency comes from the
worker processes, and any number of application threads can share one
pool safely.
"""

from __future__ import annotations

import os
import queue
import threading
from dataclasses import dataclass, field

import numpy as np

import multiprocessing as mp

from repro.runtime.shm import ALIGN, Arena, ArenaError, \
    available as shm_available

__all__ = ["ShmPool", "BrokenWorkerPool", "WorkerTaskError",
           "DEFAULT_INPUT_BYTES", "DEFAULT_OUTPUT_BYTES",
           "DEFAULT_WORKER_CACHE_LIMIT", "pool_cache_stats"]

#: initial arena sizes; both grow geometrically on demand
DEFAULT_INPUT_BYTES = 8 << 20
DEFAULT_OUTPUT_BYTES = 8 << 20

#: first-guess decoded/compressed expansion for sizing the decompress
#: output arena before any ratio has been observed
_INITIAL_DECODE_RATIO = 24.0

#: seconds between result polls (each poll re-checks worker liveness)
_POLL_S = 0.2

#: per-worker entry floor applied to the worker-resident LRUs (compiled
#: passes, autotune profiles); ``REPRO_WORKER_CACHE_LIMIT`` overrides.
#: The autotune LRU's implicit 32 profiles thrashed on many-field
#: batches; the pass cache's own default (168 passes) is already above
#: this floor, so only a larger override raises it
DEFAULT_WORKER_CACHE_LIMIT = 64


def _worker_cache_limit() -> int:
    raw = os.environ.get("REPRO_WORKER_CACHE_LIMIT", "")
    try:
        limit = int(raw)
    except ValueError:
        return DEFAULT_WORKER_CACHE_LIMIT
    return max(1, limit)


class BrokenWorkerPool(RuntimeError):
    """A worker process died; the pool is no longer usable."""


class WorkerTaskError(RuntimeError):
    """A task raised inside a worker (the work itself failed)."""


# -- worker process side -----------------------------------------------------

#: worker-side arena attach cache, name -> Arena
_attached: dict[str, Arena] = {}


def _attach(name: str, active: tuple) -> Arena:
    for stale in [n for n in _attached if n not in active]:
        _attached.pop(stale).close()
    arena = _attached.get(name)
    if arena is None:
        arena = _attached[name] = Arena.attach(name)
    return arena


def _in_array(arena: Arena, off: int, shape, dtype) -> np.ndarray:
    """Zero-copy ndarray view over arena-resident input bytes."""
    return np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                      buffer=arena.buf, offset=off)


def _ship_bytes(out: Arena, lock, blob: bytes):
    """Result blob -> arena when it fits, else inline ('r') fallback."""
    off = out.reserve(len(blob), lock=lock)
    if off is None:
        return ("r", blob)
    out.buf[off:off + len(blob)] = blob
    return ("s", off, len(blob))


def _ship_array(out: Arena, lock, arr: np.ndarray):
    arr = np.ascontiguousarray(arr)
    off = out.reserve(arr.nbytes, lock=lock)
    if off is None:
        return ("r", arr)
    dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=out.buf,
                     offset=off)
    np.copyto(dst, arr)
    return ("s", off, arr.nbytes, arr.shape, arr.dtype.str)


#: raw codebook-length blobs this worker already expanded into decode
#: tables/LUTs — warm hints are idempotent, so re-sends are skipped
_warmed_codebooks: set[bytes] = set()


def _warm_from_ctrl(ctrl: dict) -> None:
    """Expand parent-shipped warm codebook hints into this worker's
    codebook and LUT caches before the task body runs.

    The parent piggybacks its most-recently-used Huffman length vectors
    on every task's control dict (they are ~1 KiB each), so a freshly
    spawned daemon builds its decode surfaces once, here, instead of
    paying the LUT build inside the first decode request."""
    hints = ctrl.get("warm_lengths")
    if not hints:
        return
    from repro.huffman.canonical import warm_tables
    fresh = [blob for blob in hints if blob not in _warmed_codebooks]
    if fresh:
        warm_tables(fresh)
        _warmed_codebooks.update(fresh)


#: highest cache-limit hint already applied in this worker process
_applied_cache_limit = 0


def _apply_cache_limits(ctrl: dict) -> None:
    """Raise this worker's LRU entry limits to the pool-configured floor.

    Only ever raises (``max`` with the current limit) and only re-applies
    when the hint grows, so the hot path pays one integer compare."""
    global _applied_cache_limit
    limit = int(ctrl.get("cache_limit") or 0)
    if limit <= _applied_cache_limit:
        return
    # NB: the package re-exports a *function* named ``autotune`` that
    # shadows the submodule attribute, so resolve the module explicitly
    import importlib
    autotune_mod = importlib.import_module("repro.core.ginterp.autotune")
    from repro.core.ginterp import plans
    plans.set_plan_cache_limit(
        max(plans.plan_cache_stats()["limit"], limit))
    autotune_mod.set_autotune_cache_limit(
        max(autotune_mod.autotune_cache_stats()["limit"], limit))
    _applied_cache_limit = limit


def _run_task(kind: str, ctrl: dict, lock):
    from repro import telemetry
    from repro.telemetry import recorder
    from repro.registry import decompress_any, get_compressor

    active = (ctrl["in_name"], ctrl["out_name"])
    arena_in = _attach(ctrl["in_name"], active)
    arena_out = _attach(ctrl["out_name"], active)
    trace = ctrl["trace"]
    base = recorder.worker_baseline() if recorder.enabled() else None
    _apply_cache_limits(ctrl)
    _warm_from_ctrl(ctrl)

    def _execute():
        meta = []
        items = enumerate(ctrl["items"], ctrl["start"])
        if kind == "compress_slabs":
            comp = get_compressor(ctrl["codec"], eb=ctrl["eb"],
                                  mode="abs", **ctrl["kwargs"])
            for index, (off, shape, dtype) in items:
                slab = _in_array(arena_in, off, shape, dtype)
                with telemetry.span("slab.append", index=index,
                                    bytes_in=slab.nbytes) as sp:
                    blob = comp.compress(slab)
                    sp.set(bytes_out=len(blob))
                meta.append(_ship_bytes(arena_out, lock, blob))
        elif kind == "compress_fields":
            for index, (off, shape, dtype, codec, kwargs) in items:
                data = _in_array(arena_in, off, shape, dtype)
                with telemetry.span("runtime.field", index=index,
                                    codec=codec,
                                    bytes_in=data.nbytes) as sp:
                    blob = get_compressor(codec, **kwargs).compress(data)
                    sp.set(bytes_out=len(blob))
                meta.append(_ship_bytes(arena_out, lock, blob))
        elif kind in ("decompress_slabs", "decompress_fields"):
            name = "slab.read" if kind == "decompress_slabs" \
                else "runtime.field"
            for index, (off, nbytes) in items:
                blob = bytes(arena_in.view(off, nbytes))
                with telemetry.span(name, index=index,
                                    bytes_in=nbytes) as sp:
                    arr = decompress_any(blob)
                    sp.set(bytes_out=arr.nbytes)
                meta.append(_ship_array(arena_out, lock, arr))
        elif kind == "map_bytes":
            for _, (off, nbytes) in items:
                blob = ctrl["func"](bytes(arena_in.view(off, nbytes)))
                meta.append(_ship_bytes(arena_out, lock, blob))
        else:  # pragma: no cover - parent/worker version skew
            raise ValueError(f"unknown task kind {kind!r}")
        return meta

    with recorder.trace_scope(ctrl.get("tctx")):
        if trace:
            with telemetry.recording() as reg:
                meta = _execute()
            spans = reg.spans
        else:
            telemetry.disable()
            meta = _execute()
            spans = None
    aux = recorder.worker_aux(base) if recorder.enabled() else None
    return meta, spans, aux


def _worker_main(task_q, result_q, out_lock) -> None:
    """Daemon loop: pull tasks until the stop sentinel arrives.

    ``out_lock`` is the cross-process cursor lock for the output arena —
    inherited at process creation because ``multiprocessing`` locks
    cannot travel through a queue.
    """
    pid = os.getpid()
    while True:
        msg = task_q.get()
        if msg is None:
            break
        task_id, kind, ctrl = msg
        try:
            meta, spans, aux = _run_task(kind, ctrl, out_lock)
            result_q.put((task_id, "ok", meta, spans, pid, aux))
        except BaseException as exc:  # noqa: BLE001 - must answer parent
            result_q.put((task_id, "error",
                          f"{type(exc).__name__}: {exc}", None, pid,
                          None))
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                break
    for arena in _attached.values():
        arena.close()
    _attached.clear()


# -- parent side -------------------------------------------------------------

@dataclass
class TaskOutcome:
    """Per-task results the pool hands back to the runtime layer."""

    meta: list
    spans: list | None
    pid: int
    aux: dict | None


@dataclass
class TransportStats:
    """Bytes that crossed the process boundary, by mechanism."""

    shm_bytes: int = 0
    pickled_bytes: int = 0
    items: int = 0
    #: payloads that crossed with no serialization (arena both ways)
    copies_avoided: int = 0


@dataclass
class RequestResult:
    final: object
    outcomes: list[TaskOutcome] = field(default_factory=list)
    stats: TransportStats = field(default_factory=TransportStats)


def _preferred_context():
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class ShmPool:
    """A persistent worker-daemon pool over shared-memory arenas."""

    def __init__(self, workers: int, *,
                 input_bytes: int = DEFAULT_INPUT_BYTES,
                 output_bytes: int = DEFAULT_OUTPUT_BYTES):
        if not shm_available():
            raise ArenaError("shared-memory transport unavailable")
        self.workers = int(workers)
        self.cache_limit = _worker_cache_limit()
        self._ctx = _preferred_context()
        self._lock = threading.Lock()
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        self._out_lock = self._ctx.Lock()
        self._req = 0
        self._closed = False
        self._decode_ratio = _INITIAL_DECODE_RATIO
        self._cache_totals = {"hits": 0, "misses": 0, "evictions": 0}
        self._worker_peak_rss_kb = 0
        self._arena_in = Arena.create(input_bytes, tag="in")
        self._arena_out = Arena.create(output_bytes, tag="out")
        try:
            self._procs = [
                self._ctx.Process(target=_worker_main,
                                  args=(self._task_q, self._result_q,
                                        self._out_lock),
                                  daemon=True, name=f"repro-shm-{i}")
                for i in range(self.workers)]
            for p in self._procs:
                p.start()
        except (OSError, ValueError) as exc:
            self._destroy_arenas()
            raise ArenaError(f"cannot start workers: {exc}") from exc
        _register_pool(self)

    # -- lifecycle ----------------------------------------------------------

    def alive(self) -> bool:
        return (not self._closed
                and all(p.is_alive() for p in self._procs))

    def worker_pids(self) -> list[int]:
        return [p.pid for p in self._procs if p.pid]

    def _destroy_arenas(self) -> None:
        for name in ("_arena_in", "_arena_out"):
            arena = getattr(self, name, None)
            if arena is not None:
                arena.destroy()
                setattr(self, name, None)

    def shutdown(self) -> None:
        """Stop workers, reap them, and unlink both arenas."""
        if self._closed:
            return
        self._closed = True
        for _ in self._procs:
            try:
                self._task_q.put_nowait(None)
            except (OSError, ValueError):  # pragma: no cover - q closed
                break
        for p in self._procs:
            p.join(timeout=2.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=2.0)
        for q in (self._task_q, self._result_q):
            q.close()
            q.cancel_join_thread()
        self._destroy_arenas()
        _unregister_pool(self)

    # -- arena management ---------------------------------------------------

    def _ensure(self, which: str, need: int) -> Arena:
        attr = "_arena_in" if which == "in" else "_arena_out"
        arena = getattr(self, attr)
        if arena is None or arena.data_bytes < need:
            grown = max(int(need * 1.25),
                        arena.size * 2 if arena else 0,
                        DEFAULT_INPUT_BYTES)
            fresh = Arena.create(grown, tag=which)
            if arena is not None:
                arena.destroy()
            setattr(self, attr, fresh)
            arena = fresh
        arena.reset()
        return arena

    def _observe_decode_ratio(self, in_bytes: int, out_bytes: int) -> None:
        """Track the decode expansion ratio so the output arena is sized
        right *before* the next decompress request, not after it spills."""
        if in_bytes > 0:
            ratio = out_bytes / in_bytes
            self._decode_ratio = max(2.0, ratio * 1.3,
                                     self._decode_ratio * 0.5)

    # -- request machinery --------------------------------------------------

    def _submit(self, tasks: list) -> dict[int, TaskOutcome]:
        self._req += 1
        req = self._req
        for idx, (kind, ctrl) in enumerate(tasks):
            self._task_q.put(((req, idx), kind, ctrl))
        got: dict[int, TaskOutcome] = {}
        errors: list[str] = []
        while len(got) + len(errors) < len(tasks):
            try:
                msg = self._result_q.get(timeout=_POLL_S)
            except queue.Empty:
                if not all(p.is_alive() for p in self._procs):
                    raise BrokenWorkerPool(
                        "a shm pool worker died mid-request")
                continue
            (mreq, idx), status, meta, spans, pid, aux = msg
            if mreq != req:        # stale result from an aborted request
                continue
            if status != "ok":
                errors.append(str(meta))
                continue
            got[idx] = TaskOutcome(meta=meta, spans=spans, pid=pid,
                                   aux=aux)
        if errors:
            raise WorkerTaskError(errors[0])
        for outcome in got.values():
            self._merge_cache_totals(outcome.aux)
        return got

    def _merge_cache_totals(self, aux: dict | None) -> None:
        if not aux:
            return
        for key, val in (aux.get("caches") or {}).items():
            if key in self._cache_totals and val:
                self._cache_totals[key] += int(val)
        if aux.get("peak_rss_kb"):
            self._worker_peak_rss_kb = max(self._worker_peak_rss_kb,
                                           int(aux["peak_rss_kb"]))

    def cache_stats(self) -> dict:
        """Accumulated worker-resident cache counters (registry shape).

        ``limit`` is the configured per-worker LRU entry floor
        (:data:`DEFAULT_WORKER_CACHE_LIMIT` / ``REPRO_WORKER_CACHE_LIMIT``),
        not the pool width — the old pool-width value made the registry
        read as a 2-entry cache when the actual worker LRUs held dozens.
        """
        alive = sum(1 for p in self._procs if p.is_alive()) \
            if not self._closed else 0
        return {**self._cache_totals, "size": alive,
                "limit": self.cache_limit,
                "size_bytes": self._worker_peak_rss_kb * 1024}

    def _common_ctrl(self, trace: bool, tctx) -> dict:
        from repro.huffman.canonical import warm_lengths
        return {"in_name": self._arena_in.name,
                "out_name": self._arena_out.name,
                "trace": trace, "tctx": tctx,
                # the per-worker LRU entry floor; applied once per worker
                # (and again only if it grows)
                "cache_limit": self.cache_limit,
                # warm codebook hints ride along on the existing control
                # path (the aux channel's parent-bound mirror): workers
                # prebuild the probe LUTs of the parent's hottest
                # codebooks instead of cold-filling on first decode
                "warm_lengths": warm_lengths(limit=4)}

    def _stage(self, payloads: list, out_factor: float
               ) -> tuple[list[int], TransportStats]:
        """Size both arenas for one request and copy every payload
        (contiguous arrays or bytes-likes) into the input arena; returns
        the payloads' arena offsets and the request's transport stats."""
        self._check_open()
        total = sum(memoryview(p).nbytes for p in payloads)
        arena_in = self._ensure("in", total + ALIGN * len(payloads))
        self._ensure("out", int(total * out_factor) + (1 << 20))
        offsets = []
        for payload in payloads:
            off = arena_in.write(payload)
            assert off is not None, "input arena sized for request"
            offsets.append(off)
        return offsets, TransportStats(items=len(payloads),
                                       shm_bytes=total)

    def _run(self, kind: str, items: list, bounds: list,
             stats: TransportStats, trace: bool, tctx, consume,
             **extra) -> RequestResult:
        """Dispatch one task per ``(start, end)`` group of ``items``,
        collect, decode result metadata in task order, and hand the
        still-arena-backed payloads to ``consume`` under the pool lock
        (views into the output arena die at the next request)."""
        common = {**self._common_ctrl(trace, tctx), **extra}
        tasks = [(kind, {**common, "start": s, "items": items[s:e]})
                 for s, e in bounds]
        in_bytes = stats.shm_bytes
        got = self._submit(tasks)
        outcomes = [got[i] for i in range(len(tasks))]
        decode = kind.startswith("decompress")
        materialize = self._materialize_array if decode \
            else self._materialize_bytes
        payloads = [materialize(entry, stats)
                    for outcome in outcomes for entry in outcome.meta]
        if decode:
            self._observe_decode_ratio(
                in_bytes, sum(a.nbytes for a in payloads))
        final = consume(payloads)
        return RequestResult(final=final, outcomes=outcomes, stats=stats)

    def _materialize_bytes(self, entry, stats: TransportStats):
        if entry[0] == "s":
            _, off, nbytes = entry
            stats.shm_bytes += nbytes
            stats.copies_avoided += 1
            return self._arena_out.view(off, nbytes)
        stats.pickled_bytes += len(entry[1])
        return entry[1]

    def _materialize_array(self, entry, stats: TransportStats):
        if entry[0] == "s":
            _, off, nbytes, shape, dtype = entry
            stats.shm_bytes += nbytes
            stats.copies_avoided += 1
            return np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                              buffer=self._arena_out.buf, offset=off)
        stats.pickled_bytes += entry[1].nbytes
        return entry[1]

    # -- public request kinds -----------------------------------------------

    def compress_slabs(self, slabs: list[np.ndarray], bounds: list,
                       codec: str, eb: float, kwargs: dict,
                       trace: bool, tctx, consume) -> RequestResult:
        """Compress slab groups; ``consume`` sees ordered blob views."""
        with self._lock:
            offsets, stats = self._stage(slabs, 1.5)
            items = [(off, s.shape, s.dtype.str)
                     for off, s in zip(offsets, slabs)]
            return self._run("compress_slabs", items, bounds, stats,
                             trace, tctx, consume,
                             codec=codec, eb=eb, kwargs=kwargs)

    def decompress_slabs(self, stream, offsets: list, bounds: list,
                         trace: bool, tctx, consume) -> RequestResult:
        """Decode slab groups of one framed stream; ``consume`` sees
        ordered ndarray views. The whole stream is written into the
        arena once; items address it by (offset, length)."""
        with self._lock:
            (base,), stats = self._stage([stream], self._decode_ratio)
            stats.items = len(offsets)
            items = [(base + off, length) for off, length in offsets]
            return self._run("decompress_slabs", items, bounds, stats,
                             trace, tctx, consume)

    def compress_fields(self, fields: list[np.ndarray], configs: list,
                        bounds: list, trace: bool, tctx,
                        consume) -> RequestResult:
        """Compress fields, each with its own ``(codec, kwargs)``."""
        with self._lock:
            fields = [np.ascontiguousarray(f) for f in fields]
            offsets, stats = self._stage(fields, 1.5)
            items = [(off, f.shape, f.dtype.str, codec, kwargs)
                     for off, f, (codec, kwargs)
                     in zip(offsets, fields, configs)]
            return self._run("compress_fields", items, bounds, stats,
                             trace, tctx, consume)

    def decompress_fields(self, blobs: list, bounds: list, trace: bool,
                          tctx, consume) -> RequestResult:
        with self._lock:
            offsets, stats = self._stage(blobs, self._decode_ratio)
            items = [(off, memoryview(b).nbytes)
                     for off, b in zip(offsets, blobs)]
            return self._run("decompress_fields", items, bounds, stats,
                             trace, tctx, consume)

    def map_bytes(self, func, payloads: list, trace: bool, tctx,
                  consume) -> RequestResult:
        """Apply a module-level ``func`` (bytes-like in, bytes out) to
        each payload, one task per payload; ``consume`` sees ordered
        result views. ``func`` crosses the control queue by reference,
        so it must be importable by name in the workers."""
        with self._lock:
            offsets, stats = self._stage(payloads, 1.5)
            items = [(off, memoryview(p).nbytes)
                     for off, p in zip(offsets, payloads)]
            bounds = [(i, i + 1) for i in range(len(items))]
            return self._run("map_bytes", items, bounds, stats, trace,
                             tctx, consume, func=func)

    def _check_open(self) -> None:
        if self._closed:
            raise BrokenWorkerPool("pool is shut down")
        if not all(p.is_alive() for p in self._procs):
            raise BrokenWorkerPool("a shm pool worker is dead")


# -- cache-registry integration ---------------------------------------------

_pools_lock = threading.Lock()
_pools: list[ShmPool] = []
_provider_registered = False


def _register_pool(pool: ShmPool) -> None:
    global _provider_registered
    with _pools_lock:
        _pools.append(pool)
        if not _provider_registered:
            from repro.telemetry import caches
            caches.register("runtime.workers", pool_cache_stats)
            _provider_registered = True


def _unregister_pool(pool: ShmPool) -> None:
    with _pools_lock:
        if pool in _pools:
            _pools.remove(pool)


def pool_cache_stats() -> dict:
    """Worker-resident cache counters summed over live shm pools.

    This is the ``runtime.workers`` provider in the telemetry cache
    registry: ``hits``/``misses``/``evictions`` accumulate the per-task
    deltas workers ship back on the aux channel, ``size`` is the live
    worker count, ``limit`` the configured per-worker LRU entry floor
    (summed over pools), and ``size_bytes`` the highest worker peak RSS
    observed.
    """
    with _pools_lock:
        pools = list(_pools)
    out = {"hits": 0, "misses": 0, "evictions": 0, "size": 0,
           "limit": 0, "size_bytes": 0}
    for pool in pools:
        stats = pool.cache_stats()
        for key in ("hits", "misses", "evictions", "size", "limit"):
            out[key] += stats[key]
        out["size_bytes"] = max(out["size_bytes"], stats["size_bytes"])
    return out
