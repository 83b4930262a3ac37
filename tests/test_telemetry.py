"""Unit tests for the telemetry core, exporters, and crosscheck."""

import json
import threading
import time

import pytest

from repro import telemetry
from repro.telemetry import Registry, exporters


@pytest.fixture(autouse=True)
def _clean_state():
    """Telemetry must never leak enabled-state between tests."""
    yield
    telemetry.disable()


class TestSpans:
    def test_disabled_is_noop(self):
        assert not telemetry.enabled()
        before = len(telemetry.get_registry().spans)
        with telemetry.span("x", a=1) as sp:
            sp.set(b=2)
        telemetry.incr("c")
        telemetry.observe("h", 1.0)
        assert telemetry.record_span("y", 0.5) is None
        assert len(telemetry.get_registry().spans) == before

    def test_disabled_overhead_is_negligible(self):
        def loop(n):
            t0 = time.perf_counter()
            for _ in range(n):
                with telemetry.span("x"):
                    pass
            return time.perf_counter() - t0

        loop(1000)  # warm up
        # sub-microsecond per disabled span: the flag check + a shared
        # no-op object; generous 10us/span bound keeps CI noise out
        assert loop(5000) / 5000 < 10e-6

    def test_nesting_and_attrs(self):
        with telemetry.recording() as reg:
            with telemetry.span("outer", who="me") as outer:
                with telemetry.span("inner") as inner:
                    inner.set(bytes_out=7)
                outer.set(done=True)
        assert [s.name for s in reg.spans] == ["inner", "outer"]
        by_name = {s.name: s for s in reg.spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].attrs == {"bytes_out": 7}
        assert by_name["outer"].attrs == {"who": "me", "done": True}
        assert by_name["outer"].duration_s >= by_name["inner"].duration_s

    def test_sibling_spans_share_parent(self):
        with telemetry.recording() as reg:
            with telemetry.span("root") as root:
                with telemetry.span("a"):
                    pass
                with telemetry.span("b"):
                    pass
        kids = [s for s in reg.spans if s.parent_id == root.span_id]
        assert sorted(s.name for s in kids) == ["a", "b"]

    def test_error_status_propagates(self):
        with telemetry.recording() as reg:
            with pytest.raises(ValueError):
                with telemetry.span("boom"):
                    raise ValueError("nope")
        (sp,) = reg.spans
        assert sp.status == "error"
        assert sp.attrs["error"] == "ValueError"

    def test_record_span_parenting(self):
        with telemetry.recording() as reg:
            with telemetry.span("live"):
                auto = telemetry.record_span("modelled", 1.5, cost=3)
            explicit = telemetry.record_span(
                "child", 0.5, parent_id=auto.span_id)
        by_name = {s.name: s for s in reg.spans}
        assert auto.duration_s == 1.5
        assert auto.parent_id == by_name["live"].span_id
        assert explicit.parent_id == auto.span_id

    def test_counters_and_histograms(self):
        with telemetry.recording() as reg:
            telemetry.incr("runs")
            telemetry.incr("runs", 2)
            telemetry.observe("sizes", 10.0)
            telemetry.observe("sizes", 20.0)
        assert reg.counters == {"runs": 3.0}
        assert reg.histograms == {"sizes": [10.0, 20.0]}

    def test_recording_restores_prior_registry(self):
        outer = telemetry.enable(Registry())
        with telemetry.recording() as inner:
            with telemetry.span("inside"):
                pass
        assert telemetry.enabled()
        assert telemetry.get_registry() is outer
        assert [s.name for s in inner.spans] == ["inside"]
        assert outer.spans == []
        telemetry.disable()

    def test_thread_stacks_are_independent(self):
        errors = []

        def worker(idx):
            try:
                with telemetry.span(f"t{idx}") as sp:
                    time.sleep(0.002)
                    with telemetry.span(f"t{idx}.child"):
                        pass
                    assert sp.parent_id is None
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        with telemetry.recording() as reg:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert len(reg.spans) == 8
        by_name = {s.name: s for s in reg.spans}
        for i in range(4):
            child = by_name[f"t{i}.child"]
            assert child.parent_id == by_name[f"t{i}"].span_id


class TestExporters:
    def _sample_registry(self):
        with telemetry.recording() as reg:
            with telemetry.span("compress", codec="cuszi") as sp:
                with telemetry.span("huffman", bytes_in=100) as h:
                    h.set(bytes_out=40)
                sp.set(compressed_nbytes=40, n_elements=25)
            telemetry.incr("outliers", 3)
            telemetry.observe("pass_targets", 12.0)
            telemetry.observe("pass_targets", 1200.0)
        return reg

    def test_jsonl_round_trip(self):
        reg = self._sample_registry()
        text = exporters.to_jsonl(reg)
        for line in text.strip().splitlines():
            json.loads(line)  # every line is standalone JSON
        back = exporters.from_jsonl(text)
        assert len(back.spans) == len(reg.spans)
        for a, b in zip(reg.spans, back.spans):
            assert (a.name, a.span_id, a.parent_id, a.attrs,
                    a.status) == (b.name, b.span_id, b.parent_id,
                                  b.attrs, b.status)
            assert a.duration_s == pytest.approx(b.duration_s)
        assert back.counters == reg.counters
        assert back.histograms == reg.histograms

    def test_from_jsonl_rejects_garbage(self):
        with pytest.raises(ValueError):
            exporters.from_jsonl("not json at all\n")
        with pytest.raises(ValueError):
            exporters.from_jsonl('{"type": "mystery"}\n')

    def test_render_tree_shape(self):
        reg = self._sample_registry()
        tree = exporters.render_tree(reg.spans)
        lines = tree.splitlines()
        assert lines[0].startswith("compress")
        assert lines[1].startswith("  huffman")
        assert "bytes_out=40" in lines[1]
        assert exporters.render_tree(reg.spans, max_depth=1) == lines[0]

    def test_stage_breakdown_aggregates(self):
        reg = self._sample_registry()
        text = exporters.stage_breakdown(reg.spans)
        assert "huffman" in text and "compress" in text

    def test_prometheus_format(self):
        reg = self._sample_registry()
        text = exporters.to_prometheus(reg)
        assert "# TYPE repro_outliers_total counter" in text
        assert "repro_outliers_total 3" in text
        assert 'repro_pass_targets_bucket{le="+Inf"} 2' in text
        assert "repro_pass_targets_count 2" in text
        assert 'repro_span_duration_seconds_count{span="huffman"} 1' \
            in text

    def test_prometheus_help_lines(self):
        text = exporters.to_prometheus(self._sample_registry())
        assert '# HELP repro_outliers_total telemetry counter ' \
               '"outliers"' in text
        assert "# HELP repro_pass_targets telemetry histogram" in text
        assert "# HELP repro_span_duration_seconds" in text
        # every TYPE line is preceded by its HELP line
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("# TYPE"):
                metric = line.split()[2]
                assert lines[i - 1].startswith(f"# HELP {metric} ")

    def test_prometheus_span_labels_are_escaped(self):
        with telemetry.recording() as reg:
            with telemetry.span('we"ird\\na\nme'):
                pass
        text = exporters.to_prometheus(reg, include_caches=False)
        assert ('repro_span_duration_seconds_count'
                '{span="we\\"ird\\\\na\\nme"} 1') in text
        # the raw newline never splits a sample line
        assert not any(line.startswith('me"') for line in text.splitlines())

    def test_degenerate_histogram_gets_spread_buckets(self):
        # identical observations used to produce a single bucket edge
        assert exporters._histogram_buckets([1.0, 1.0]) == \
            [0.1, 1.0, 10.0]
        # float overshoot of the top decade still lands in a bucket
        vals = [10.000001]
        buckets = exporters._histogram_buckets(vals)
        assert max(vals) <= max(buckets)
        # all non-positive: one fallback bucket
        assert exporters._histogram_buckets([0.0, -1.0]) == [1.0]
        with telemetry.recording() as reg:
            telemetry.observe("h", 5.0)
            telemetry.observe("h", 5.0)
        text = exporters.to_prometheus(reg)
        finite = [ln for ln in text.splitlines()
                  if "repro_h_bucket" in ln and "+Inf" not in ln]
        assert len(finite) >= 2

    def test_prometheus_cache_gauges(self):
        from repro.telemetry import caches
        caches.register("test.export", lambda: {
            "hits": 7, "misses": 3, "size": 2, "limit": 8,
            "size_bytes": 640})
        try:
            text = exporters.to_prometheus(Registry())
            assert "# TYPE repro_cache_hits_total counter" in text
            assert "# TYPE repro_cache_size_bytes gauge" in text
            assert 'repro_cache_hits_total{cache="test.export"} 7' \
                in text
            assert 'repro_cache_size_bytes{cache="test.export"} 640' \
                in text
            assert 'repro_cache_hit_ratio{cache="test.export"} 0.7' \
                in text
            # the four built-in cache families all export series
            for cache in ("ginterp.plan", "ginterp.autotune",
                          "huffman.codebook", "huffman.lut",
                          "lossless.orchestrator_plan"):
                assert f'repro_cache_size{{cache="{cache}"}}' in text
            # the flat decode table and its cache are gone
            assert 'cache="huffman.table"' not in text
            off = exporters.to_prometheus(Registry(),
                                          include_caches=False)
            assert "repro_cache_" not in off
        finally:
            caches.unregister("test.export")


class TestCrosscheck:
    def test_crosscheck_against_model(self):
        import numpy as np
        from conftest import smooth_field
        from repro.core.pipeline import CuSZi
        from repro.telemetry.crosscheck import crosscheck

        field = smooth_field((24, 24, 24), seed=7)
        with telemetry.recording() as reg:
            CuSZi(eb=1e-3).compress_detailed(field)
        for device in ("a100", "a40"):
            report = crosscheck(reg.spans, device)
            assert report.codec == "cuszi"
            assert report.direction == "compress"
            assert [r.stage for r in report.rows] == \
                ["predict", "huffman", "lossless"]
            shares = [r.measured_share for r in report.rows]
            assert sum(shares) == pytest.approx(1.0)
            assert sum(r.modelled_share for r in report.rows) == \
                pytest.approx(1.0)
            assert np.isfinite(report.max_skew)
            assert "cross-check" in report.format()

    def test_crosscheck_decompress_direction(self):
        from conftest import smooth_field
        from repro.core.pipeline import CuSZi
        from repro.telemetry.crosscheck import crosscheck

        codec = CuSZi(eb=1e-3)
        blob = codec.compress(smooth_field((24, 24, 24), seed=7))
        with telemetry.recording() as reg:
            codec.decompress(blob)
        report = crosscheck(reg.spans, "a100")
        assert report.direction == "decompress"
        assert sum(r.measured_share for r in report.rows) == \
            pytest.approx(1.0)

    def test_crosscheck_needs_root(self):
        from repro.common.errors import ConfigError
        from repro.telemetry.crosscheck import crosscheck

        with telemetry.recording() as reg:
            with telemetry.span("unrelated"):
                pass
        with pytest.raises(ConfigError):
            crosscheck(reg.spans)
