"""repro.runtime: parallel determinism, caches, pickling, trace merge."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import telemetry
from repro.common.errors import ConfigError
from repro.runtime import (map_compress, map_decompress,
                           parallel_compress_slabs,
                           parallel_decompress_slabs, resolve_workers)
from repro.streaming import SlabWriter, compress_slabs, decompress_slabs

from conftest import smooth_field


class TestResolveWorkers:
    def test_serial_defaults(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_explicit(self):
        assert resolve_workers(3) == 3

    def test_auto_is_cpu_count(self):
        import os
        try:
            usable = len(os.sched_getaffinity(0)) or 1
        except (AttributeError, OSError):
            usable = os.cpu_count() or 1
        # "auto" sizes to CPUs this process may run on (affinity/cgroup
        # aware), not the machine-wide count
        assert resolve_workers("auto") == max(1, usable)

    @pytest.mark.parametrize("bad", ["three", 2.5, True, -1, [2]])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ConfigError):
            resolve_workers(bad)


class TestParallelSlabs:
    def test_byte_identical_to_serial(self, field3d):
        kwargs = dict(codec="cuszi", eb=1e-3, mode="rel", lossless="none")
        serial = compress_slabs(field3d, 5, **kwargs)
        parallel = parallel_compress_slabs(field3d, 5, workers=2,
                                           min_parallel_bytes=0, **kwargs)
        assert parallel == serial

    def test_serial_knob_uses_serial_path(self, field3d):
        kwargs = dict(codec="cuszi", eb=1e-3, mode="abs")
        assert parallel_compress_slabs(field3d, 10, workers=None,
                                       **kwargs) \
            == compress_slabs(field3d, 10, **kwargs)

    def test_parallel_decompress_matches(self, field3d):
        stream = compress_slabs(field3d, 8, codec="cuszi", eb=1e-3,
                                mode="abs")
        serial = decompress_slabs(stream)
        parallel = parallel_decompress_slabs(stream, workers=2,
                                             min_parallel_bytes=0)
        assert np.array_equal(serial, parallel)

    def test_roundtrip_error_bounded(self, field3d):
        stream = parallel_compress_slabs(field3d, 8, workers=2,
                                         min_parallel_bytes=0,
                                         codec="cuszi", eb=1e-2,
                                         mode="abs")
        recon = parallel_decompress_slabs(stream, workers=2,
                                          min_parallel_bytes=0)
        assert np.abs(recon - field3d).max() <= 1e-2 * 1.001

    def test_empty_field_raises_like_serial(self):
        empty = np.empty((0, 4, 4), np.float32)
        with pytest.raises(ConfigError):
            parallel_compress_slabs(empty, 2, workers=2, codec="cuszi",
                                    eb=1e-3, mode="abs")

    def test_bad_slab_planes(self, field3d):
        with pytest.raises(ConfigError):
            parallel_compress_slabs(field3d, 0, workers=2, codec="cuszi",
                                    eb=1e-3, mode="abs")

    def test_small_inputs_fall_back_to_serial(self, field3d, monkeypatch):
        # below the size thresholds the pool must never be touched: IPC
        # costs more than the codec work (the benched decompress ran 5x
        # slower on a forced pool)
        from repro.runtime import pool

        def boom(*args, **kwargs):
            raise AssertionError("pool used below min_parallel_bytes")

        monkeypatch.setattr(pool, "_get_shm_pool", boom)
        kwargs = dict(codec="cuszi", eb=1e-3, mode="abs")
        stream = pool.parallel_compress_slabs(field3d, 8, workers=2,
                                              **kwargs)
        assert stream == compress_slabs(field3d, 8, **kwargs)
        out = pool.parallel_decompress_slabs(stream, workers=2)
        assert np.array_equal(out, decompress_slabs(stream))

    def test_grouped_batches_one_task_per_worker(self, field3d,
                                                 monkeypatch):
        from repro.runtime import pool
        from repro.runtime.workers import ShmPool
        submit = ShmPool._submit
        calls = []

        def counting(self, tasks):
            calls.append([len(ctrl["items"]) for _, ctrl in tasks])
            return submit(self, tasks)

        monkeypatch.setattr(ShmPool, "_submit", counting)
        stream = pool.parallel_compress_slabs(
            field3d, 5, workers=2, min_parallel_bytes=0,
            codec="cuszi", eb=1e-3, mode="abs")
        pool.parallel_decompress_slabs(stream, workers=2,
                                       min_parallel_bytes=0)
        # 8 slabs collapse into one contiguous group per worker, on both
        # the compress and the decompress request
        assert calls == [[4, 4], [4, 4]]

    def test_chunk_bounds_cover_in_order(self):
        from repro.runtime.pool import _chunk_bounds
        for n, k in [(8, 2), (7, 3), (3, 5), (1, 1), (16, 4)]:
            bounds = _chunk_bounds(n, k)
            flat = [i for s, e in bounds for i in range(s, e)]
            assert flat == list(range(n))
            sizes = [e - s for s, e in bounds]
            assert max(sizes) - min(sizes) <= 1


class TestMapBatches:
    def test_map_compress_matches_serial_order(self, field3d):
        fields = [field3d, field3d * 2.0, field3d + 1.0]
        serial = map_compress(fields, "cuszi", eb=1e-3, mode="rel",
                              lossless="none")
        parallel = map_compress(fields, "cuszi", workers=2, eb=1e-3,
                                mode="rel", lossless="none")
        assert parallel == serial

    def test_map_decompress_round_trip(self, field3d):
        fields = [field3d, field3d * 3.0]
        blobs = map_compress(fields, "cuszi", workers=2, eb=1e-3,
                             mode="abs")
        out = map_decompress(blobs, workers=2)
        for orig, recon in zip(fields, out):
            assert recon.shape == orig.shape
            assert np.abs(recon - orig).max() <= 1e-3 * 1.001

    def test_per_item_overrides(self, field3d):
        blobs = map_compress([field3d, field3d], "cuszi", workers=2,
                             eb=1e-3, mode="abs",
                             per_item=[{}, {"codec": "cusz"}])
        from repro.common.lossless_wrap import unwrap_lossless
        from repro.common.container import parse_container
        codecs = [parse_container(unwrap_lossless(b))[0] for b in blobs]
        assert codecs == ["cuszi", "cusz"]

    def test_per_item_length_mismatch(self, field3d):
        with pytest.raises(ConfigError):
            map_compress([field3d], "cuszi", per_item=[{}, {}], eb=1e-3)


class TestArchiveWorkers:
    def test_save_archive_byte_identical(self, field3d):
        from repro.archive import save_archive, load_archive
        fields = {"a": field3d, "b": field3d * 2.0}
        serial = save_archive(fields, eb=1e-3, lossless="none")
        parallel = save_archive(fields, eb=1e-3, lossless="none",
                                workers=2)
        assert parallel == serial
        out = load_archive(parallel, workers=2)
        assert set(out) == {"a", "b"}
        assert out["a"].shape == field3d.shape


class TestSlabWriterPickle:
    def test_writer_round_trips(self):
        writer = SlabWriter(codec="cuszi", eb=1e-3, mode="abs",
                            lossless="none", radius=256)
        clone = pickle.loads(pickle.dumps(writer))
        assert (clone.codec, clone.eb) == (writer.codec, writer.eb)
        assert clone.codec_kwargs == {"lossless": "none", "radius": 256}

    def test_writer_with_slabs_round_trips(self, field3d):
        writer = SlabWriter(codec="cuszi", eb=1e-3, mode="abs")
        writer.append(field3d[:8])
        writer.append(field3d[8:16])
        clone = pickle.loads(pickle.dumps(writer))
        assert clone.n_slabs == 2
        assert clone.finish() == writer.finish()

    def test_rel_mode_resolves_before_pickle(self, field3d):
        rng = float(field3d.max() - field3d.min())
        writer = SlabWriter(codec="cuszi", eb=1e-3, mode="rel",
                            value_range=rng)
        clone = pickle.loads(pickle.dumps(writer))
        assert clone.eb == pytest.approx(1e-3 * rng)

    def test_clone_still_compresses(self, field3d):
        writer = SlabWriter(codec="cuszi", eb=1e-3, mode="abs")
        clone = pickle.loads(pickle.dumps(writer))
        writer.append(field3d[:8])
        clone.append(field3d[:8])
        assert clone.finish() == writer.finish()


class TestTraceMerge:
    def test_parallel_trace_sums_match_serial(self, field3d):
        kwargs = dict(codec="cuszi", eb=1e-3, mode="abs",
                      lossless="none")
        with telemetry.recording() as serial_reg:
            compress_slabs(field3d, 8, **kwargs)
        with telemetry.recording() as par_reg:
            parallel_compress_slabs(field3d, 8, workers=2,
                                    min_parallel_bytes=0, **kwargs)

        def slab_bytes(reg):
            return sorted((s.attrs["index"], s.attrs["bytes_out"])
                          for s in reg.spans if s.name == "slab.append")

        assert slab_bytes(par_reg) == slab_bytes(serial_reg)

    def test_worker_spans_grafted_under_root(self, field3d):
        with telemetry.recording() as reg:
            parallel_compress_slabs(field3d, 8, workers=2, codec="cuszi",
                                    eb=1e-3, mode="abs",
                                    min_parallel_bytes=0)
        ids = {s.span_id for s in reg.spans}
        assert len(ids) == len(reg.spans), "merged span ids must be unique"
        root = next(s for s in reg.spans
                    if s.name == "runtime.compress_slabs")
        assert root.attrs["workers"] == 2
        appends = [s for s in reg.spans if s.name == "slab.append"]
        assert len(appends) == 5  # ceil(40 / 8)
        for sp in appends:
            assert "worker_pid" in sp.attrs
            # every merged span's parent must resolve inside this trace
            assert sp.parent_id in ids
        # worker subtrees come along: the per-slab compress roots
        assert sum(1 for s in reg.spans if s.name == "compress") == 5

    def test_merge_spans_reparents_roots(self):
        foreign = [telemetry.Span("child", span_id=2, parent_id=1,
                                  start=0.1, duration_s=0.2),
                   telemetry.Span("root", span_id=1, parent_id=None,
                                  start=0.0, duration_s=0.5)]
        with telemetry.recording() as reg:
            with telemetry.span("parent") as p:
                merged = telemetry.merge_spans(foreign, offset_s=1.0,
                                               worker_pid=42)
        by_name = {s.name: s for s in merged}
        assert by_name["root"].parent_id == p.span_id
        assert by_name["child"].parent_id == by_name["root"].span_id
        assert by_name["root"].start == pytest.approx(1.0)
        assert all(s.attrs["worker_pid"] == 42 for s in merged)
        assert telemetry.merge_spans(foreign) == []  # disabled: no-op

    def test_map_compress_serial_emits_field_spans(self, field3d):
        with telemetry.recording() as reg:
            map_compress([field3d, field3d], "cuszi", eb=1e-3, mode="abs")
        fields = [s for s in reg.spans if s.name == "runtime.field"]
        assert [s.attrs["index"] for s in fields] == [0, 1]


class TestCodebookCache:
    def test_lut_cache_hit_returns_same_arrays(self):
        from repro.huffman.canonical import (build_lut_tables,
                                             clear_codebook_caches,
                                             codebook_cache_stats)
        clear_codebook_caches()
        lengths = np.array([1, 2, 3, 3], np.int64)
        first = build_lut_tables(lengths, 8)
        second = build_lut_tables(lengths.copy(), 8)
        assert all(a is b for a, b in zip(first, second))
        stats = codebook_cache_stats()
        assert stats["lut_hits"] == 1
        assert stats["lut_misses"] == 1

    def test_codebook_cache_hit(self):
        from repro.huffman.canonical import (canonical_codebook,
                                             clear_codebook_caches,
                                             codebook_cache_stats)
        clear_codebook_caches()
        lengths = np.array([2, 2, 2, 2], np.int64)
        first = canonical_codebook(lengths)
        second = canonical_codebook(list(lengths))
        assert first is second
        assert codebook_cache_stats()["codebook_hits"] == 1

    def test_cached_arrays_are_read_only(self):
        from repro.huffman.canonical import (build_lut_tables,
                                             canonical_order,
                                             clear_codebook_caches)
        clear_codebook_caches()
        lengths = np.array([1, 1], np.int64)
        code = canonical_order(lengths)
        count, cum, syms = build_lut_tables(lengths, 4)
        for arr in (*code[:4], count, cum, syms):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_distinct_lengths_do_not_collide(self):
        from repro.huffman.canonical import (build_lut_tables,
                                             clear_codebook_caches)
        clear_codebook_caches()
        _, _, sym_a = build_lut_tables(np.array([1, 1], np.int64), 4)
        _, _, sym_b = build_lut_tables(np.array([1, 2, 2], np.int64), 4)
        assert sym_a is not sym_b
        assert int(sym_b.max()) == 2

    def test_invalid_lengths_still_raise(self):
        from repro.common.errors import CodecError
        from repro.huffman.canonical import MAX_CODE_LEN, canonical_codebook
        with pytest.raises(CodecError):
            canonical_codebook(np.array([MAX_CODE_LEN + 1]))


class TestAutotuneCache:
    def test_second_eb_skips_profiling(self):
        from repro.core.ginterp.autotune import (autotune,
                                                 autotune_cache_stats,
                                                 clear_autotune_cache)
        clear_autotune_cache()
        data = smooth_field((20, 20, 20), seed=7)
        first = autotune(data, 1e-3)
        second = autotune(data.copy(), 1e-5)  # same content, new bound
        stats = autotune_cache_stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        # registry-facing occupancy gauges ride along (PR 5)
        assert stats["size"] == 1 and stats["size_bytes"] > 0
        assert second.profiled_errors == first.profiled_errors
        assert second.cubic_variant == first.cubic_variant
        assert second.axis_order == first.axis_order
        assert second.alpha != first.alpha  # eb-dependent part reruns

    def test_different_content_misses(self):
        from repro.core.ginterp.autotune import (autotune,
                                                 autotune_cache_stats,
                                                 clear_autotune_cache)
        clear_autotune_cache()
        autotune(smooth_field((20, 20, 20), seed=1), 1e-3)
        autotune(smooth_field((20, 20, 20), seed=2), 1e-3)
        stats = autotune_cache_stats()
        assert (stats["hits"], stats["misses"]) == (0, 2)

    def test_cached_reports_match_uncached(self):
        from repro.core.ginterp.autotune import (autotune,
                                                 clear_autotune_cache)
        data = smooth_field((18, 22, 14), seed=9)
        clear_autotune_cache()
        cold = autotune(data, 2e-4)
        warm = autotune(data, 2e-4)
        assert warm == cold


class TestBatchConsumers:
    def test_run_codec_batch_matches_run_codec(self, field3d):
        from repro.experiments.harness import run_codec, run_codec_batch
        small = field3d[:16, :16, :16]
        triples = [("ds", "a", small), ("ds", "b", small * 2.0)]
        batch = run_codec_batch("cuszi", triples, eb=1e-3, workers=2)
        singles = [run_codec("cuszi", data, dataset=ds, field=f, eb=1e-3)
                   for ds, f, data in triples]
        for b, s in zip(batch, singles):
            assert b.compressed_bytes == s.compressed_bytes
            assert b.psnr == pytest.approx(s.psnr)
            assert b.max_err == pytest.approx(s.max_err)
            assert (b.dataset, b.field) == (s.dataset, s.field)

    def test_transfer_filespecs_measured(self, field3d):
        from repro.transfer.pipeline import (filespecs_from_fields,
                                             pipelined_transfer_fields)
        small = field3d[:16, :16, :16]
        named = [("f0", small), ("f1", small * 2.0)]
        specs = filespecs_from_fields(named, "cuszi", eb=1e-3,
                                      workers=2, lossless="none")
        assert [s.name for s in specs] == ["f0", "f1"]
        assert all(s.n_elements == small.size for s in specs)
        serial = filespecs_from_fields(named, "cuszi", eb=1e-3,
                                       lossless="none")
        assert specs == serial  # FileSpec is frozen: field-wise equality
        sched = pipelined_transfer_fields("cuszi", named, eb=1e-3,
                                          lossless="none", workers=2)
        assert sched.makespan > 0
        assert len(sched.timeline) == 2

    def test_transfer_empty_fields_raises(self):
        from repro.transfer.pipeline import filespecs_from_fields
        with pytest.raises(ConfigError):
            filespecs_from_fields([], "cuszi")

    def test_trace_tree_renders_parallel_run(self, field3d):
        from repro.telemetry import exporters
        with telemetry.recording() as reg:
            parallel_compress_slabs(field3d, 8, workers=2, codec="cuszi",
                                    eb=1e-3, mode="abs",
                                    min_parallel_bytes=0)
        rendered = exporters.render_tree(
            exporters.from_jsonl(exporters.to_jsonl(reg)).spans)
        assert "runtime.compress_slabs" in rendered
        assert "slab.append" in rendered


@pytest.mark.slow
class TestRuntimeStress:
    """Heavier parallel runs, kept out of the default suite."""

    def test_many_slabs_many_workers(self):
        data = smooth_field((48, 32, 32), seed=3)
        kwargs = dict(codec="cuszi", eb=1e-3, mode="rel", lossless="gle")
        serial = compress_slabs(data, 3, **kwargs)  # 16 slabs
        parallel = parallel_compress_slabs(data, 3, workers=3,
                                           min_parallel_bytes=0, **kwargs)
        assert parallel == serial
        assert np.array_equal(parallel_decompress_slabs(parallel,
                                                        workers=3,
                                                        min_parallel_bytes=0),
                              decompress_slabs(serial))

    def test_mixed_codec_batch(self):
        fields = [smooth_field((24, 24, 24), seed=s) for s in range(6)]
        per_item = [{"codec": c} for c in
                    ("cuszi", "cusz", "cuszp", "fzgpu", "cuszi", "cusz")]
        serial = map_compress(fields, "cuszi", eb=1e-3, mode="rel",
                              per_item=per_item)
        parallel = map_compress(fields, "cuszi", eb=1e-3, mode="rel",
                                workers=3, per_item=per_item)
        assert parallel == serial
        out = map_decompress(parallel, workers=3)
        assert all(o.shape == f.shape for o, f in zip(out, fields))

    def test_auto_workers(self):
        data = smooth_field((16, 16, 16), seed=4)
        stream = parallel_compress_slabs(data, 4, workers="auto",
                                         min_parallel_bytes=0,
                                         codec="cuszi", eb=1e-3,
                                         mode="abs")
        assert stream == compress_slabs(data, 4, codec="cuszi", eb=1e-3,
                                        mode="abs")
