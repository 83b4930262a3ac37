"""Unit tests for the flight recorder, quality auditor, doctor, and the
``repro analyze`` / ``repro doctor`` CLI surface."""

import json
import time

import numpy as np
import pytest

from conftest import smooth_field
from repro.telemetry import caches, doctor, quality, recorder
from repro.telemetry.recorder import RunRecord


@pytest.fixture(autouse=True)
def _clean_recorder():
    """Recorder state must never leak between tests."""
    recorder.clear()
    recorder.enable()
    yield
    quality.disable()
    recorder.clear()
    recorder.enable()


def _record(**kw) -> RunRecord:
    base = dict(seq=1, kind="compress", ts=0.0, wall_s=0.01)
    base.update(kw)
    return RunRecord(**base)


class TestRecorderCore:
    def test_capture_builds_record(self):
        with recorder.capture("compress", codec="cuszi", eb=1e-3) as cap:
            with cap.stage("predict"):
                pass
            with cap.stage("predict"):     # re-entry accumulates
                pass
            cap.set(bytes_in=100, bytes_out=25)
            cap.count("events", 2)
        recs = recorder.records()
        assert len(recs) == 1
        rec = recs[0]
        assert rec.kind == "compress" and rec.codec == "cuszi"
        assert rec.status == "ok"
        assert rec.attrs["eb"] == 1e-3
        assert rec.stages["predict"] >= 0.0
        assert rec.counters == {"events": 2}
        assert rec.ratio == 4.0
        assert rec.memory["peak_rss_kb"] > 0

    def test_error_status_and_nesting(self):
        with pytest.raises(ValueError):
            with recorder.capture("outer"):
                with recorder.capture("inner"):
                    raise ValueError("boom")
        inner, outer = recorder.records()
        assert (inner.kind, inner.status) == ("inner", "error")
        assert (outer.kind, outer.status) == ("outer", "error")

    def test_disabled_appends_nothing(self):
        recorder.disable()
        cap = recorder.capture("compress")
        assert cap is recorder.capture("decompress")   # shared no-op
        with cap:
            with cap.stage("x"):
                pass
            cap.set(a=1).count("c")
        assert recorder.records() == []

    def test_disabled_overhead_is_negligible(self):
        recorder.disable()

        def loop(n):
            t0 = time.perf_counter()
            for _ in range(n):
                with recorder.capture("compress", codec="x") as cap:
                    cap.set(bytes_in=1)
            return time.perf_counter() - t0

        loop(1000)  # warm up
        # the disabled path is one flag check returning a shared no-op
        # capture; sub-microsecond per append (generous 10us CI bound)
        assert loop(5000) / 5000 < 10e-6

    def test_suppressed_blocks_records(self):
        with recorder.suppressed():
            with recorder.capture("compress"):
                pass
        assert recorder.records() == []
        with recorder.capture("compress"):      # suppression lifted
            pass
        assert len(recorder.records()) == 1

    def test_annotate_and_count_reach_current_capture(self):
        recorder.annotate(orphan=True)          # no capture: no-op
        recorder.count("orphan")
        with recorder.capture("compress"):
            recorder.annotate(lossless_plan="gle")
            recorder.count("runtime.serial_fallback.size_floor")
        rec = recorder.records()[-1]
        assert rec.attrs["lossless_plan"] == "gle"
        assert rec.counters["runtime.serial_fallback.size_floor"] == 1

    def test_ring_capacity_keeps_newest(self):
        old = recorder.set_capacity(4)
        try:
            for i in range(10):
                with recorder.capture("compress", i=i):
                    pass
            recs = recorder.records()
            assert len(recs) == 4
            assert [r.attrs["i"] for r in recs] == [6, 7, 8, 9]
            with pytest.raises(ValueError):
                recorder.set_capacity(0)
        finally:
            recorder.set_capacity(old)

    def test_ratio_is_direction_aware(self):
        comp = _record(kind="compress", attrs={"bytes_in": 80,
                                               "bytes_out": 20})
        dec = _record(kind="decompress", attrs={"bytes_in": 20,
                                                "bytes_out": 80})
        load = _record(kind="archive.load", attrs={"bytes_in": 20,
                                                   "bytes_out": 80})
        assert comp.ratio == dec.ratio == load.ratio == 4.0
        assert comp.raw_bytes == dec.raw_bytes == 80


class TestLedger:
    def test_write_read_round_trip(self, tmp_path):
        with recorder.capture("compress", codec="cuszi") as cap:
            cap.set(bytes_in=10, bytes_out=5)
        path = tmp_path / "ledger.jsonl"
        assert recorder.write_ledger(str(path)) == 1
        back = recorder.read_ledger(str(path))
        assert len(back) == 1
        assert back[0].to_dict() == recorder.records()[0].to_dict()

    def test_from_jsonl_rejects_garbage(self):
        with pytest.raises(ValueError, match="not JSON"):
            recorder.from_jsonl("{broken\n")
        with pytest.raises(ValueError, match="expected an object"):
            recorder.from_jsonl("[1, 2]\n")


class TestAggregate:
    def test_percentiles_and_grouping(self):
        recs = [_record(seq=i, codec="cuszi", wall_s=w,
                        stages={"huffman": w / 2},
                        attrs={"bytes_in": 100, "bytes_out": 50,
                               "workers": 2})
                for i, w in enumerate([0.010, 0.020, 0.030, 0.040])]
        recs.append(_record(seq=99, kind="decompress", wall_s=0.05))
        agg = recorder.aggregate(recs)
        assert set(agg) == {"compress[cuszi]", "decompress"}
        entry = agg["compress[cuszi]"]
        assert entry["n"] == 4 and entry["errors"] == 0
        assert entry["wall_s"]["min"] == 0.010
        assert entry["wall_s"]["max"] == 0.040
        assert entry["wall_s"]["p50"] == pytest.approx(0.025)
        assert entry["stages"]["huffman"]["p50"] == pytest.approx(0.0125)
        assert entry["ratio"]["p50"] == 2.0
        assert entry["workers"] == 2

    def test_cache_hit_ratio(self):
        recs = [_record(caches={"c": {"hits": 3, "misses": 1}})]
        agg = recorder.aggregate(recs)
        assert agg["compress"]["cache_hit_ratio"] == 0.75


class TestPipelineIntegration:
    def test_compress_decompress_records_and_identical_bytes(self):
        from repro.registry import get_compressor
        data = smooth_field((16, 16, 16), seed=7)
        comp = get_compressor("cuszi", eb=1e-3, mode="abs")
        blob_on = comp.compress(data)
        recorder.disable()
        blob_off = comp.compress(data)
        recorder.enable()
        # the recorder must never perturb the archive bytes
        assert blob_on == blob_off
        out = comp.decompress(blob_on)
        assert out.shape == data.shape
        kinds = [r.kind for r in recorder.records()]
        assert kinds == ["compress", "decompress"]
        c, d = recorder.records()
        assert c.codec == d.codec == "cuszi"
        assert c.attrs["bytes_in"] == data.nbytes
        assert c.attrs["bytes_out"] == len(blob_on)
        assert d.attrs["bytes_in"] == len(blob_on)
        for stage in ("tune", "predict", "quantize", "huffman",
                      "container", "lossless"):
            assert stage in c.stages, f"missing compress stage {stage}"
        assert {"huffman", "predict", "container"} <= set(d.stages)
        assert c.attrs["shape"] == [16, 16, 16]
        assert c.attrs["eb"] == 1e-3

    def test_worker_merge_under_process_pool(self):
        from repro.runtime import map_compress
        fields = [smooth_field((12, 12, 12), seed=s) for s in (0, 1)]
        blobs = map_compress(fields, "cuszi", eb=1e-3, mode="abs",
                             workers=2)
        assert len(blobs) == 2
        runtime = [r for r in recorder.records()
                   if r.kind == "runtime.map_compress"]
        assert len(runtime) == 1
        w = runtime[0].worker
        assert w["tasks"] == 2
        assert w["peak_rss_kb"] > 0
        assert w["n_pids"] >= 1
        # workers compressed fresh data: their cache misses must have
        # travelled back through the aux channel
        assert w.get("cache_misses", 0) > 0

    def test_worker_aux_delta(self):
        base = recorder.worker_baseline()
        aux = recorder.worker_aux(base)
        assert aux["pid"] > 0 and aux["peak_rss_kb"] > 0
        assert set(aux["caches"]) == {"hits", "misses", "evictions"}

    def test_quality_audit_attaches_report(self):
        from repro.registry import get_compressor
        data = smooth_field((16, 16, 16), seed=3)
        quality.enable(every=1, fraction=0.5, block=8, seed=11)
        comp = get_compressor("cuszi", eb=1e-3, mode="abs")
        comp.compress(data)
        quality.disable()
        audited = [r for r in recorder.records()
                   if "quality" in r.attrs]
        # the verification decompress runs suppressed: exactly one
        # compress record, no phantom decompress record
        assert [r.kind for r in recorder.records()] == ["compress"]
        assert len(audited) == 1
        q = audited[0].attrs["quality"]
        assert q["eb_satisfied"]
        assert q["max_abs_error"] <= q["abs_eb"] * 1.001
        assert q["psnr_db"] > 0
        assert q["n_sampled"] > 0
        assert dict(q["error_hist"])["gt_1.0"] == 0
        assert q["level_entropy_bits"]

    def test_model_deviation_shape(self):
        from repro.registry import get_compressor
        data = smooth_field((16, 16, 16), seed=5)
        get_compressor("cuszi", eb=1e-3, mode="abs").compress(data)
        rec = recorder.records()[-1]
        dev = recorder.model_deviation(rec)
        assert dev is not None
        assert set(dev["stages"]) == {"predict", "huffman", "lossless"}
        for entry in dev["stages"].values():
            assert 0.0 <= entry["measured_share"] <= 1.0
        # runtime records cannot be modelled
        assert recorder.model_deviation(_record(kind="runtime.x")) is None


class TestQualityAudit:
    def test_histogram_is_seed_deterministic(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((20, 20)).astype(np.float32)
        noise = rng.uniform(-1e-3, 1e-3, data.shape).astype(np.float32)
        quality.enable(every=1, fraction=0.5, block=8, seed=4)
        r1 = quality.audit(data, data + noise, 1e-3)
        r2 = quality.audit(data, data + noise, 1e-3)
        quality.enable(every=1, fraction=0.5, block=8, seed=5)
        r3 = quality.audit(data, data + noise, 1e-3)
        assert r1.error_hist == r2.error_hist
        assert r1.seed == 4 and r3.seed == 5
        assert r1.eb_satisfied

    def test_eb_violation_detected(self):
        data = np.zeros((8, 8), dtype=np.float32)
        bad = data.copy()
        bad[3, 3] = 1.0                        # 1000x the bound
        quality.enable(every=1, fraction=1.0, block=4, seed=0)
        report = quality.audit(data, bad, 1e-3)
        assert not report.eb_satisfied
        assert report.eb_exceeded >= 1
        assert dict(report.error_hist)["gt_1.0"] >= 1

    def test_should_audit_every_n(self):
        quality.enable(every=3)
        fired = [quality.should_audit() for _ in range(6)]
        assert fired.count(True) == 2
        quality.disable()
        assert not quality.should_audit()


class TestDoctor:
    def test_healthy_ledger(self):
        recs = [_record(caches={"c": {"hits": 0, "misses": 2,
                                      "lookups": 2, "size_growth": 2}}),
                _record(seq=2, caches={"c": {"hits": 3, "misses": 0,
                                             "lookups": 3}})]
        diag = doctor.diagnose(recs)
        assert diag.healthy
        assert "healthy" in diag.format()

    def test_error_record_is_anomaly(self):
        diag = doctor.diagnose([_record(status="error")])
        assert not diag.healthy
        assert any(c.name == "run errors" for c in diag.anomalies)

    def test_warm_ratio_exempts_cold_fills(self):
        # record 2 misses 3 times but inserts 3 new entries: per-key
        # cold fills, not a broken cache
        recs = [_record(caches={"c": {"hits": 0, "misses": 1,
                                      "lookups": 1, "size_growth": 1}}),
                _record(seq=2, caches={"c": {"hits": 1, "misses": 3,
                                             "lookups": 4,
                                             "size_growth": 3}})]
        assert doctor.diagnose(recs).healthy
        # same counts with no insertions: genuine warm misses, FAIL
        recs[1].caches["c"]["size_growth"] = 0
        diag = doctor.diagnose(recs)
        assert not diag.healthy
        assert any("warm cache" in c.name for c in diag.anomalies)

    def test_spawn_failure_gates_size_floor_does_not(self):
        floor = _record(counters={
            "runtime.serial_fallback.size_floor": 3})
        assert doctor.diagnose([floor]).healthy
        spawn = _record(seq=2, counters={
            "runtime.serial_fallback.spawn_failure": 1})
        diag = doctor.diagnose([floor, spawn])
        assert not diag.healthy
        assert any("spawn" in c.name for c in diag.anomalies)

    def test_quality_violation_gates(self):
        ok = _record(attrs={"quality": {"eb_exceeded": 0}})
        assert doctor.diagnose([ok]).healthy
        bad = _record(seq=2, attrs={"quality": {"eb_exceeded": 4}})
        assert not doctor.diagnose([ok, bad]).healthy

    def test_compress_budget_gates_at_one_percent(self):
        # one expanding compress in 101 is under the 1% budget; one in
        # 100 spends it
        def ledger(n, **bad):
            return [_record(seq=i, attrs={"bytes_in": 100,
                                          "bytes_out": 10})
                    for i in range(n - 1)] + [_record(seq=n, **bad)]
        expand = {"attrs": {"bytes_in": 100, "bytes_out": 200}}
        assert doctor.diagnose(ledger(101, **expand),
                               analytics=False).healthy
        diag = doctor.diagnose(ledger(100, **expand), analytics=False)
        assert [c.name for c in diag.anomalies] == ["compress ratio floor"]
        slow = {"wall_s": doctor.WALL_CEILING_S + 1}
        assert doctor.diagnose(ledger(101, **slow), analytics=False).healthy
        diag = doctor.diagnose(ledger(100, **slow), analytics=False)
        assert [c.name for c in diag.anomalies] == ["compress wall ceiling"]

    def test_environment_report(self):
        env = doctor.environment_report()
        assert env["python"] and env["numpy"] != "missing"
        assert env["cpu_count"] >= 1


class TestStatsDoctorCLI:
    @pytest.fixture
    def mixed_ledger(self, tmp_path):
        """A mixed serial+parallel workload's ledger on disk."""
        from repro.registry import get_compressor
        from repro.runtime import map_compress
        data = smooth_field((16, 16, 16), seed=9)
        comp = get_compressor("cuszi", eb=1e-3, mode="abs")
        blob = comp.compress(data)
        comp.decompress(blob)
        comp.compress(data)                     # warm the caches
        quality.enable(every=1, fraction=0.5, block=8, seed=2)
        comp.compress(data)
        quality.disable()
        map_compress([data], "cuszi", eb=1e-3, mode="abs", workers=2)
        path = tmp_path / "ledger.jsonl"
        recorder.write_ledger(str(path))
        return path

    def test_analyze_prints_group_percentiles(self, mixed_ledger, capsys):
        from repro.cli import main
        assert main(["analyze", str(mixed_ledger)]) == 0
        out = capsys.readouterr().out
        assert "compress[cuszi]" in out
        assert "runtime.map_compress" in out
        assert "p95" in out and "perf model" in out
        assert "verdict:" in out

    def test_analyze_json_carries_groups(self, mixed_ledger, capsys):
        from repro.cli import main
        assert main(["analyze", str(mixed_ledger), "--json",
                     "--device", "a40"]) == 0
        doc = json.loads(capsys.readouterr().out)
        agg = doc["groups"]
        assert agg == recorder.aggregate(
            recorder.read_ledger(str(mixed_ledger)))
        assert agg["compress[cuszi]"]["wall_s"]["n"] >= 3
        dev = doc["model_deviation"]
        assert dev["device"] == "a40" and dev["checked"] >= 3
        assert doc["n_cohorts"] >= 1

    def test_analyze_json_is_strict_and_skips_unpriced_stages(
            self, tmp_path, capsys):
        """``lossless="none"`` runs carry a passthrough lossless stage
        the perf model does not price: it is no skew, and the report
        holds no ``Infinity``/``NaN`` token."""
        from repro.cli import main
        from repro.registry import get_compressor
        data = smooth_field((16, 16, 16), seed=4)
        for lossless in ("none", "auto"):
            comp = get_compressor("cuszi", eb=1e-3, mode="abs",
                                  lossless=lossless)
            for _ in range(3):
                comp.decompress(comp.compress(data))
        none_seqs = {r.seq for r in recorder.records()
                     if r.attrs.get("lossless") == "none"}
        for rec in recorder.records():
            dev = recorder.model_deviation(rec)
            if rec.seq in none_seqs and dev is not None:
                assert "lossless" not in dev["stages"]
        path = tmp_path / "ledger.jsonl"
        recorder.write_ledger(str(path))
        assert main(["analyze", str(path), "--json"]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        dev = doc["model_deviation"]
        assert dev["checked"] >= 12
        assert not [f for f in dev["flagged"] if f["seq"] in none_seqs
                    and f["stage"] == "lossless"]

    def test_stats_missing_ledger(self, tmp_path, capsys):
        # analyze carries the former `repro stats` report
        from repro.cli import main
        assert main(["analyze", str(tmp_path / "nope.jsonl"), "--json",
                     "--device", "a40"]) == 1
        assert "error" in capsys.readouterr().err

    def test_doctor_command(self, mixed_ledger, capsys):
        from repro.cli import main
        assert main(["doctor", str(mixed_ledger), "--check"]) == 0
        out = capsys.readouterr().out
        assert "diagnosis: healthy" in out
        assert "quality audits" in out
        assert "caches (this process):" in out

    def test_doctor_check_fails_on_anomaly(self, tmp_path, capsys):
        from repro.cli import main
        bad = _record(status="error")
        path = tmp_path / "bad.jsonl"
        recorder.write_ledger(str(path), [bad])
        assert main(["doctor", str(path)]) == 0         # report only
        assert main(["doctor", str(path), "--check"]) == 1
        assert "anomaly" in capsys.readouterr().out

    @pytest.mark.parametrize("bad, check", [
        ({"status": "error"}, "run errors"),
        ({"attrs": {"quality": {"eb_exceeded": 1}}}, "quality audits"),
        ({"attrs": {"bytes_in": 100, "bytes_out": 101}},
         "compress ratio floor"),
        ({"wall_s": 61.0}, "compress wall ceiling"),
    ], ids=["run_error", "eb_violation", "ratio_under_1", "wall_over_60s"])
    def test_doctor_check_fails_each_guardrail(self, tmp_path, capsys,
                                               bad, check):
        from repro.cli import main
        ok = _record(attrs={"bytes_in": 100, "bytes_out": 10})
        path = tmp_path / "ledger.jsonl"
        recorder.write_ledger(str(path), [ok])
        assert main(["doctor", str(path), "--check"]) == 0
        recorder.write_ledger(str(path), [ok, _record(seq=2, **bad)])
        assert main(["doctor", str(path), "--check"]) == 1
        assert f"[FAIL] {check}:" in capsys.readouterr().out


class TestCacheRegistryDiff:
    def test_diff_reports_size_growth(self):
        before = {"c": {"hits": 1, "misses": 1, "evictions": 0,
                        "size": 1, "limit": 8, "size_bytes": 10,
                        "lookups": 2, "hit_ratio": 0.5}}
        after = {"c": {"hits": 1, "misses": 4, "evictions": 1,
                       "size": 3, "limit": 8, "size_bytes": 30,
                       "lookups": 5, "hit_ratio": 0.2}}
        delta = caches.diff(before, after)["c"]
        assert delta["misses"] == 3
        assert delta["size_growth"] == 2
        assert delta["evictions"] == 1


class TestTraceContext:
    def test_root_capture_mints_trace(self):
        with recorder.capture("compress", codec="cuszi"):
            pass
        rec = recorder.records()[0]
        assert rec.trace_id and rec.run_id
        assert rec.parent_run_id is None

    def test_nested_capture_inherits_trace(self):
        with recorder.capture("outer") as outer:
            with recorder.capture("inner"):
                pass
        inner, outer_rec = recorder.records()
        assert inner.trace_id == outer_rec.trace_id
        assert inner.parent_run_id == outer_rec.run_id
        assert inner.run_id != outer_rec.run_id

    def test_trace_scope_adopts_foreign_context(self):
        ctx = {"trace_id": "cafe" * 4, "run_id": "beef" * 4}
        with recorder.trace_scope(ctx):
            with recorder.capture("compress"):
                pass
        rec = recorder.records()[0]
        assert rec.trace_id == "cafe" * 4
        assert rec.parent_run_id == "beef" * 4
        # the scope must not leak past its context manager
        with recorder.capture("compress"):
            pass
        assert recorder.records()[1].trace_id != "cafe" * 4

    def test_propagation_context_reflects_innermost(self):
        assert recorder.propagation_context() is None
        with recorder.capture("outer"):
            outer_ctx = recorder.propagation_context()
            with recorder.capture("inner"):
                inner_ctx = recorder.propagation_context()
        assert outer_ctx["trace_id"] == inner_ctx["trace_id"]
        assert outer_ctx["run_id"] != inner_ctx["run_id"]

    def test_ledger_round_trips_trace_ids(self, tmp_path):
        with recorder.capture("compress"):
            pass
        path = tmp_path / "t.jsonl"
        recorder.write_ledger(str(path))
        back = recorder.read_ledger(str(path))[0]
        orig = recorder.records()[0]
        assert (back.trace_id, back.run_id, back.parent_run_id) == \
            (orig.trace_id, orig.run_id, orig.parent_run_id)

    def test_trace_propagates_across_pool_workers(self):
        from repro.runtime import map_compress
        fields = [smooth_field((12, 12, 12), seed=s) for s in (3, 4)]
        map_compress(fields, "cuszi", eb=1e-3, mode="abs", workers=2)
        recs = recorder.records()
        parents = [r for r in recs if r.kind == "runtime.map_compress"]
        assert len(parents) == 1
        parent = parents[0]
        shipped = [r for r in recs if "worker_pid" in r.attrs]
        assert shipped, "worker records did not ship back"
        for rec in shipped:
            assert rec.trace_id == parent.trace_id
            assert rec.parent_run_id == parent.run_id
            assert rec.attrs["worker_pid"] != parent.memory.get("pid")
