"""Zero-copy shm transport: arenas, byte-identity, crash recovery."""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.lossless import orchestrator as orc
from repro.runtime import shm
from repro.runtime import pool
from repro.runtime.pool import (map_compress, map_decompress,
                                parallel_compress_slabs,
                                parallel_decompress_slabs)
from repro.streaming import compress_slabs, decompress_slabs

from conftest import smooth_field


def _shm_leftovers() -> list[str]:
    try:
        return sorted(n for n in os.listdir("/dev/shm")
                      if n.startswith(shm.NAME_PREFIX))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


@pytest.fixture(autouse=True)
def _clean_counters():
    pool.reset_serial_fallbacks()
    pool.reset_transport_stats()
    yield


class TestArena:
    def test_create_write_view_roundtrip(self):
        arena = shm.Arena.create(1 << 12)
        try:
            off = arena.write(b"hello arena")
            assert off == shm.HEADER_BYTES
            assert bytes(arena.view(off, 11)) == b"hello arena"
        finally:
            arena.destroy()

    def test_offsets_are_aligned(self):
        arena = shm.Arena.create(1 << 12)
        try:
            offs = [arena.write(b"x" * n) for n in (1, 100, 65)]
            assert all(o % shm.ALIGN == 0 for o in offs)
            assert offs == sorted(set(offs))
        finally:
            arena.destroy()

    def test_reserve_full_returns_none_and_reset_rewinds(self):
        arena = shm.Arena.create(256)
        try:
            assert arena.reserve(arena.data_bytes) is not None
            assert arena.reserve(1) is None
            arena.reset()
            assert arena.cursor() == shm.HEADER_BYTES
            assert arena.reserve(64) is not None
        finally:
            arena.destroy()

    def test_attach_sees_owner_writes(self):
        arena = shm.Arena.create(1 << 12)
        try:
            off = arena.write(b"cross-process bytes")
            other = shm.Arena.attach(arena.name)
            assert bytes(other.view(off, 19)) == b"cross-process bytes"
            assert not other.owner
            other.close()
        finally:
            arena.destroy()

    def test_destroy_unlinks_and_untracks(self):
        arena = shm.Arena.create(1 << 12)
        name = arena.name
        assert name in shm.live_arena_names()
        arena.destroy()
        assert name not in shm.live_arena_names()
        assert all(name not in n for n in _shm_leftovers())


class TestByteIdentity:
    @pytest.mark.parametrize("shape,planes", [
        ((300,), 64),          # 1D
        ((64, 48), 9),         # 2D, odd remainder (64 = 7*9 + 1)
        ((40, 44, 36), 8),     # 3D, even split
        ((40, 44, 36), 7),     # 3D, odd remainder (40 = 5*7 + 5)
    ])
    def test_slabs_match_serial(self, shape, planes):
        field = smooth_field(shape)
        kwargs = dict(codec="cuszi", eb=1e-3, mode="abs")
        serial = compress_slabs(field, planes, **kwargs)
        pooled = parallel_compress_slabs(
            field, planes, workers=2, min_parallel_bytes=0, **kwargs)
        assert pooled == serial
        out = parallel_decompress_slabs(serial, workers=2,
                                        min_parallel_bytes=0)
        ref = decompress_slabs(serial)
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert np.array_equal(out, ref)

    def test_rel_mode_matches_serial(self, field3d):
        kwargs = dict(codec="cuszi", eb=1e-3, mode="rel")
        serial = compress_slabs(field3d, 8, **kwargs)
        pooled = parallel_compress_slabs(
            field3d, 8, workers=2, min_parallel_bytes=0, **kwargs)
        assert pooled == serial

    def test_mixed_dtype_map_batch(self, field3d):
        fields = [field3d,
                  field3d.astype(np.float64) * 2.0,
                  smooth_field((64, 48)),
                  smooth_field((300,)).astype(np.float64)]
        serial = map_compress(fields, "cuszi", eb=1e-3, mode="abs")
        pooled = map_compress(fields, "cuszi", eb=1e-3, mode="abs",
                              workers=2)
        assert pooled == serial
        back = map_decompress(pooled, workers=2)
        for orig, arr, ref in zip(fields, back, map_decompress(serial)):
            assert arr.dtype == orig.dtype
            assert np.array_equal(arr, ref)

    def test_two_threads_share_the_daemon_pool(self):
        fields = {"a": smooth_field((40, 44, 36), seed=5),
                  "b": smooth_field((40, 44, 36), seed=6)}
        expect = {k: compress_slabs(v, 8, eb=1e-3)
                  for k, v in fields.items()}
        results: dict[str, list] = {k: [] for k in fields}
        errors: list[Exception] = []

        def run(key):
            try:
                for _ in range(3):
                    results[key].append(parallel_compress_slabs(
                        fields[key], 8, workers=2, min_parallel_bytes=0,
                        eb=1e-3))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(k,))
                   for k in fields]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for key, streams in results.items():
            assert all(s == expect[key] for s in streams)


class TestTransportAccounting:
    def test_shm_moves_bytes_without_pickling(self, field3d):
        pool.reset_transport_stats()
        parallel_compress_slabs(field3d, 8, workers=2,
                                min_parallel_bytes=0, eb=1e-3)
        stats = pool.transport_stats()
        assert stats["requests"] == 1
        assert stats["shm_bytes"] >= field3d.nbytes
        assert stats["pickled_bytes"] == 0
        assert stats["copies_avoided"] >= 1

    def test_size_floor_records_transport_and_floor(self, field3d):
        # no min_parallel_bytes override: the 254 KiB field sits under
        # the shm encode floor, so the pooled request degrades to serial
        stream = parallel_compress_slabs(field3d, 8, workers=2, eb=1e-3)
        assert stream == compress_slabs(field3d, 8, eb=1e-3)
        assert pool.serial_fallbacks()["size_floor"] == 1
        from repro.telemetry import recorder
        rec = [r for r in recorder.records()
               if r.kind == "runtime.compress_slabs"][-1]
        assert rec.attrs["serial_fallback"] == "size_floor"
        assert rec.attrs["serial_fallback_transport"] == "shm"
        assert rec.attrs["serial_fallback_floor"] \
            == pool.PARALLEL_MIN_ENCODE_BYTES


def _fails_in_worker(block) -> bytes:
    """A bytes task that raises only inside a pool worker."""
    import multiprocessing as mp
    if mp.current_process().daemon:
        raise ValueError("worker-only failure")
    return bytes(block)


def _run_batch_in_daemon(blocks, out_q) -> None:
    try:
        out_q.put(pool.run_batch(orc._gle_block_task, blocks, 2))
    except Exception as exc:  # noqa: BLE001 - report to the parent
        out_q.put(f"{type(exc).__name__}: {exc}")


def _gle_blocks() -> list[bytes]:
    rng = np.random.default_rng(3)
    return [(b"\x04\x00\x00\x00" * 4096) * (i + 1)
            + rng.integers(0, 256, 512, dtype=np.uint8).tobytes()
            for i in range(3)]


class TestSerialFallbacks:
    def _spawn_fails(self, monkeypatch):
        def refuse(workers):
            raise shm.ArenaError("shared-memory transport unavailable")

        # an empty pool cache forces construction, which now fails
        monkeypatch.setattr(pool, "_SHM_POOLS", {})
        monkeypatch.setattr(pool, "ShmPool", refuse)

    @pytest.mark.parametrize("op", ["compress_slabs", "decompress_slabs",
                                    "map_compress", "map_decompress",
                                    "run_batch"])
    def test_spawn_failure_runs_serial(self, op, field3d, monkeypatch):
        from repro.telemetry import recorder
        kwargs = dict(codec="cuszi", eb=1e-3, mode="abs")
        stream = compress_slabs(field3d, 8, **kwargs)
        blobs = map_compress([field3d, field3d * 2.0], "cuszi", eb=1e-3)
        arrays = map_decompress(blobs)
        blocks = _gle_blocks()
        self._spawn_fails(monkeypatch)
        kind = f"runtime.{op}"
        if op == "compress_slabs":
            assert parallel_compress_slabs(
                field3d, 8, workers=2, min_parallel_bytes=0,
                **kwargs) == stream
        elif op == "decompress_slabs":
            assert np.array_equal(
                parallel_decompress_slabs(stream, workers=2,
                                          min_parallel_bytes=0),
                decompress_slabs(stream))
        elif op == "map_compress":
            assert map_compress([field3d, field3d * 2.0], "cuszi",
                                workers=2, eb=1e-3) == blobs
        elif op == "map_decompress":
            for got, ref in zip(map_decompress(blobs, workers=2),
                                arrays):
                assert np.array_equal(got, ref)
        else:
            # run_batch has no record of its own: it annotates the run
            # open around it
            kind = "outer"
            with recorder.capture(kind):
                assert pool.run_batch(orc._gle_block_task, blocks, 2) \
                    == [orc._gle_block_task(b) for b in blocks]
        assert pool.serial_fallbacks()["spawn_failure"] == 1
        rec = [r for r in recorder.records() if r.kind == kind][-1]
        assert rec.attrs["serial_fallback"] == "spawn_failure"
        assert rec.attrs["serial_fallback_op"] == op

    def test_task_error_is_counted(self):
        from repro.telemetry import recorder
        blocks = _gle_blocks()
        with recorder.capture("outer"):
            assert pool.run_batch(_fails_in_worker, blocks, 2) == blocks
        assert pool.serial_fallbacks()["task_error"] == 1
        rec = [r for r in recorder.records() if r.kind == "outer"][-1]
        assert rec.attrs["serial_fallback"] == "task_error"

    def test_run_batch_pooled_matches_serial(self):
        blocks = _gle_blocks()
        assert pool.run_batch(orc._gle_block_task, blocks, 2) \
            == [orc._gle_block_task(b) for b in blocks]
        assert pool.serial_fallbacks() == dict.fromkeys(
            pool.serial_fallbacks(), 0)

    def test_run_batch_inside_a_daemonic_process(self):
        # a pool worker is daemonic and cannot have children: a block
        # route reached from inside one must encode in-process
        import multiprocessing as mp
        ctx = mp.get_context("fork")
        blocks = _gle_blocks()
        out_q = ctx.Queue()
        proc = ctx.Process(target=_run_batch_in_daemon,
                           args=(blocks, out_q), daemon=True)
        proc.start()
        try:
            got = out_q.get(timeout=60)
            proc.join(timeout=10)
            assert proc.exitcode == 0
        finally:
            if proc.is_alive():
                proc.terminate()
        assert got == [orc._gle_block_task(b) for b in blocks]


class TestWarmWorkerCaches:
    def test_worker_cache_stats_reach_the_registry(self, field3d):
        from repro.telemetry import caches
        for _ in range(2):
            parallel_compress_slabs(field3d, 8, workers=2,
                                    min_parallel_bytes=0, eb=1e-3)
        snap = caches.snapshot()
        assert "runtime.workers" in snap
        stats = snap["runtime.workers"]
        # 4 same-geometry slabs per worker per request: the workers'
        # plan/codebook caches must have registered warm hits, and the
        # daemon pool reports its live worker count as its size
        assert stats["hits"] > 0
        assert stats["size"] >= 1
        assert stats["limit"] >= 2


class TestCrashRecovery:
    def test_killed_worker_degrades_serial_and_unlinks(self, field3d,
                                                       monkeypatch):
        kwargs = dict(codec="cuszi", eb=1e-3, mode="abs")
        # warm a daemon pool, then SIGKILL one of its workers
        parallel_compress_slabs(field3d, 8, workers=2,
                                min_parallel_bytes=0, **kwargs)
        shm_pool = pool._get_shm_pool(2)
        doomed_arenas = [shm_pool._arena_in.name,
                         shm_pool._arena_out.name]
        os.kill(shm_pool.worker_pids()[0], signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while shm_pool.alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not shm_pool.alive()

        # pin the dead pool so the request hits it mid-flight (between
        # requests _get_shm_pool would transparently rebuild instead)
        with monkeypatch.context() as m:
            m.setattr(pool, "_get_shm_pool", lambda w: shm_pool)
            stream = parallel_compress_slabs(field3d, 8, workers=2,
                                             min_parallel_bytes=0,
                                             **kwargs)
        assert stream == compress_slabs(field3d, 8, **kwargs)
        assert pool.serial_fallbacks()["worker_crash"] == 1
        # the crashed pool's arenas are gone from /dev/shm ...
        leftovers = _shm_leftovers()
        for name in doomed_arenas:
            assert name.lstrip("/") not in leftovers
        assert not any(n in shm.live_arena_names()
                       for n in doomed_arenas)

        # ... and the next pooled request transparently rebuilds daemons
        again = parallel_compress_slabs(field3d, 8, workers=2,
                                        min_parallel_bytes=0, **kwargs)
        assert again == stream
        assert pool.serial_fallbacks()["worker_crash"] == 1

    def test_shutdown_pools_leaves_no_segments(self, field3d):
        parallel_compress_slabs(field3d, 8, workers=2,
                                min_parallel_bytes=0, eb=1e-3)
        pool.shutdown_pools()
        assert shm.live_arena_names() == []
        assert _shm_leftovers() == []
