"""Unit tests for the ledger analytics engine
(:mod:`repro.telemetry.analytics`): cohort keying, baseline scoring,
change-point detection with stage attribution, baseline persistence,
ledger schema stamping, fingerprint threading, and the ``repro
analyze`` CLI surface."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import smooth_field
from repro.cli import main
from repro.core.ginterp.autotune import autotune, field_fingerprint
from repro.core.pipeline import CuSZi
from repro.telemetry import analytics, doctor, quality, recorder
from repro.telemetry.analytics import AnalyticsEngine
from repro.telemetry.recorder import RunRecord


@pytest.fixture(autouse=True)
def _clean_recorder():
    recorder.clear()
    recorder.enable()
    yield
    quality.disable()
    recorder.clear()
    recorder.enable()


def _rec(seq, wall, stages=None, *, kind="compress", codec="cuszi",
         fp="f0", attrs=None, caches=None, quality_attrs=None):
    a = {"fingerprint": fp, "abs_eb": 1e-3,
         "bytes_in": 1_000_000, "bytes_out": 50_000}
    if attrs:
        a.update(attrs)
    if quality_attrs:
        a["quality"] = quality_attrs
    return RunRecord(seq=seq, kind=kind, ts=float(seq), wall_s=wall,
                     codec=codec, stages=dict(stages or {}),
                     attrs=a, caches=dict(caches or {}),
                     trace_id=f"t{seq:04d}")


def _stationary_ledger(n=40, seed=0, wall=7e-3):
    """n same-cohort compress runs with +-2% deterministic noise."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        noise = 1.0 + 0.02 * float(rng.uniform(-1, 1))
        w = wall * noise
        out.append(_rec(i + 1, w, stages={
            "predict": 4e-3 * noise, "huffman": 2e-3 * noise,
            "lossless": 1e-3 * noise}))
    return out


def _regression_ledger(n=40, step_at=20, seed=1):
    """Huffman stage doubles (2ms -> 4ms) from run ``step_at + 1`` on."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        noise = 1.0 + 0.02 * float(rng.uniform(-1, 1))
        huff = (4e-3 if i >= step_at else 2e-3) * noise
        predict = 4e-3 * noise
        lossless = 1e-3 * noise
        out.append(_rec(i + 1, predict + huff + lossless, stages={
            "predict": predict, "huffman": huff, "lossless": lossless}))
    return out


class TestCohortKeying:
    def test_key_fields(self):
        rec = _rec(1, 0.01, attrs={"transport": "shm"})
        key = analytics.cohort_key(rec)
        assert key == ("compress", "f0", "cuszi", "e-3", "shm")
        assert analytics.cohort_label(key) == "compress|f0|cuszi|e-3|shm"

    def test_missing_fingerprint_and_transport_tolerated(self):
        rec = RunRecord(seq=1, kind="decompress", ts=0.0, wall_s=0.01)
        assert analytics.cohort_key(rec) == \
            ("decompress", "-", "-", "-", "serial")

    def test_fingerprintless_records_fall_back_to_shape(self):
        # decompress records carry no content fingerprint: the shape
        # signature keeps 64^3 and 128^3 runs out of one baseline
        small = RunRecord(seq=1, kind="decompress", ts=0.0, wall_s=0.01,
                          codec="cuszi", attrs={"shape": [64, 64, 64]})
        big = RunRecord(seq=2, kind="decompress", ts=1.0, wall_s=0.1,
                        codec="cuszi", attrs={"shape": [128, 128, 128]})
        assert analytics.cohort_key(small)[1] == "64x64x64"
        assert analytics.cohort_key(big)[1] == "128x128x128"
        assert analytics.cohort_key(small) != analytics.cohort_key(big)

    def test_worker_runs_do_not_share_the_serial_cohort(self):
        parent = _rec(1, 0.01, fp="", attrs={"shape": [8, 64, 64]},
                      kind="decompress")
        worker = _rec(2, 0.02, fp="", attrs={"shape": [8, 64, 64],
                                             "worker_pid": 4242},
                      kind="decompress")
        assert analytics.cohort_key(parent)[4] == "serial"
        assert analytics.cohort_key(worker)[4] == "worker"
        # an explicit transport (the pooled request's own record) wins
        worker.attrs["transport"] = "shm"
        assert analytics.cohort_key(worker)[4] == "shm"

    def test_slower_worker_runs_after_serial_runs_are_no_regression(self):
        # a slab round trip: 16 serial slab decodes in the parent, then
        # the same slabs decoded twice as slow by contended pool workers
        def slab(seq, wall, **extra):
            return _rec(seq, wall, {"huffman": wall * 0.6}, fp="",
                        kind="decompress",
                        attrs={"shape": [8, 128, 128], **extra})
        recs = [slab(i + 1, 7e-3 * (1 + 0.02 * (i % 3)))
                for i in range(16)]
        recs += [slab(17 + i, 15e-3 * (1 + 0.02 * (i % 3)),
                      worker_pid=100 + i % 2) for i in range(16)]
        report = analytics.analyze(recs)
        assert report["change_points"] == []
        assert report["n_cohorts"] == 2

    def test_eb_decade_buckets(self):
        lo = _rec(1, 0.01, attrs={"abs_eb": 1.2e-4})
        hi = _rec(2, 0.01, attrs={"abs_eb": 9.9e-4})
        other = _rec(3, 0.01, attrs={"abs_eb": 1.0e-3})
        assert analytics.cohort_key(lo)[3] == "e-4"
        assert analytics.cohort_key(hi)[3] == "e-4"
        assert analytics.cohort_key(other)[3] == "e-3"

    def test_cohorts_split_by_fingerprint(self):
        engine = AnalyticsEngine()
        for i in range(4):
            engine.observe(_rec(i + 1, 0.01, fp="fA"))
            engine.observe(_rec(i + 5, 0.02, fp="fB"))
        report = engine.report()
        assert report["n_cohorts"] == 2


class TestMetricBaselineWindow:
    def test_nan_metrics_from_a_ledger_are_dropped(self):
        nan = float("nan")
        rec = _rec(1, 0.01, quality_attrs={"abs_eb": nan,
                                           "max_abs_error": 1.0},
                   caches={"c": {"hits": nan, "misses": 1}})
        assert set(analytics.record_metrics(rec)) == {
            "wall_s", "ratio", "throughput_mb_s"}
        engine = AnalyticsEngine(window=4)
        for i in range(12):
            engine.observe(_rec(i + 1, 0.01 + 1e-4 * i,
                                quality_attrs={"abs_eb": 1e-3,
                                               "max_abs_error":
                                               nan if i % 2 else 5e-4}))
        label = analytics.cohort_label(analytics.cohort_key(_rec(1, 0.01)))
        assert engine.baselines()[label]["quality.max_err_rel"]["n"] == 4


    @settings(max_examples=200, deadline=None)
    @given(window=st.integers(1, 40),
           values=st.lists(st.sampled_from(
               [0.0, -0.0, 1.0, 1.0, 2.5, -3.0, 1e-9, 7.25, 1e6])
               | st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
               max_size=120))
    def test_median_and_mad_match_numpy(self, window, values):
        mb = analytics.MetricBaseline(window)
        for x in values:
            mb.update(x)
            mb._refresh()
            vals = np.asarray(mb.values, dtype=np.float64)
            med = float(np.median(vals))
            assert sorted(mb.values) == mb._sorted
            assert mb.median == med
            assert mb.mad == float(np.median(np.abs(vals - med)))


class TestRecordMetrics:
    def test_core_metrics(self):
        rec = _rec(1, 0.01, stages={"huffman": 2e-3},
                   caches={"c": {"hits": 3, "misses": 1}})
        m = analytics.record_metrics(rec)
        assert m["wall_s"] == 0.01
        assert m["stage.huffman"] == 2e-3
        assert m["ratio"] == 20.0
        assert m["cache_hit_ratio"] == 0.75
        assert m["throughput_mb_s"] > 0

    def test_quality_metrics(self):
        rec = _rec(1, 0.01, quality_attrs={
            "psnr_db": 62.0, "abs_eb": 1e-3, "max_abs_error": 8e-4,
            "outlier_rate": 0.01})
        m = analytics.record_metrics(rec)
        assert m["quality.psnr_db"] == 62.0
        assert m["quality.max_err_rel"] == pytest.approx(0.8)
        assert m["quality.outlier_rate"] == 0.01


class TestBaselineScoring:
    def test_stationary_noise_flags_nothing(self):
        engine = AnalyticsEngine()
        scores = [engine.observe(r) for r in _stationary_ledger()]
        assert not any(s.anomalous for s in scores)
        assert engine.anomalies() == []
        assert engine.change_points() == []
        report = engine.report()
        assert report["verdict"]["healthy"]
        assert report["verdict"]["anomalous_runs"] == 0

    def test_single_outlier_is_flagged(self):
        engine = AnalyticsEngine()
        for r in _stationary_ledger(n=20):
            engine.observe(r)
        score = engine.observe(_rec(99, 20e-3, stages={
            "predict": 4e-3, "huffman": 15e-3, "lossless": 1e-3}))
        assert score.anomalous
        metrics = {a.metric for a in score.anomalies}
        assert "wall_s" in metrics and "stage.huffman" in metrics

    def test_improvement_direction_not_flagged(self):
        engine = AnalyticsEngine()
        for r in _stationary_ledger(n=20):
            engine.observe(r)
        # twice as fast: a large |z| in the *good* direction
        score = engine.observe(_rec(99, 3.5e-3))
        assert not score.anomalous

    def test_baseline_needs_min_runs(self):
        engine = AnalyticsEngine()
        for i in range(analytics.MIN_BASELINE - 1):
            engine.observe(_rec(i + 1, 7e-3))
        score = engine.observe(_rec(99, 1.0))  # wild, but too early
        assert score.n_scored == 0 and not score.anomalous


class TestChangePoints:
    def test_huffman_step_detected_and_attributed(self):
        engine = AnalyticsEngine()
        records = _regression_ledger()
        for r in records:
            engine.observe(r)
        cps = engine.change_points()
        lat = [cp for cp in cps if cp.kind == "latency_regression"]
        assert len(lat) == 1
        cp = lat[0]
        assert cp.metric == "wall_s"
        assert cp.stage == "huffman"
        assert cp.since_seq == 21
        assert cp.since_trace_id == "t0021"
        assert cp.rel == pytest.approx(2.0 / 7.0, rel=0.25)
        assert cp.stage_share == pytest.approx(1.0, abs=0.25)
        assert cp.stage_before == pytest.approx(2e-3, rel=0.1)
        assert cp.stage_after == pytest.approx(4e-3, rel=0.1)

    def test_step_runs_also_scored_anomalous(self):
        engine = AnalyticsEngine()
        flagged = [engine.observe(r).anomalous
                   for r in _regression_ledger()]
        assert flagged[20]          # the first 2x-huffman run
        assert not any(flagged[:20])

    def test_quality_drift_detected(self):
        engine = AnalyticsEngine()
        rng = np.random.default_rng(2)
        for i in range(40):
            psnr = (62.0 if i < 20 else 40.0) \
                + float(rng.uniform(-0.3, 0.3))
            engine.observe(_rec(i + 1, 7e-3, quality_attrs={
                "psnr_db": psnr, "abs_eb": 1e-3,
                "max_abs_error": 5e-4}))
        kinds = {cp.kind for cp in engine.change_points()}
        assert "quality_drift" in kinds
        assert "latency_regression" not in kinds

    def test_cold_to_warm_improvement_not_a_regression(self):
        engine = AnalyticsEngine()
        for i in range(40):
            wall = 10e-3 if i < 10 else 5e-3
            engine.observe(_rec(i + 1, wall))
        assert engine.change_points() == []

    def test_report_verdict_counts(self):
        report = analytics.analyze(_regression_ledger())
        assert report["verdict"]["latency_regressions"] == 1
        assert not report["verdict"]["healthy"]
        assert report["change_points"][0]["stage"] == "huffman"

    def test_short_cohorts_never_scanned(self):
        engine = AnalyticsEngine()
        for i in range(2 * analytics.MIN_SEGMENT - 1):
            engine.observe(_rec(i + 1, 7e-3 * (1 + i)))
        assert engine.change_points() == []


class TestDoctorIntegration:
    def test_regression_ledger_fails_doctor(self):
        diag = doctor.diagnose(_regression_ledger())
        bad = [c for c in diag.checks
               if c.name == "analytics latency drift"]
        assert len(bad) == 1 and not bad[0].ok and bad[0].gating
        assert "huffman" in bad[0].detail
        assert not diag.healthy

    def test_stationary_ledger_stays_healthy(self):
        diag = doctor.diagnose(_stationary_ledger())
        assert diag.healthy
        names = {c.name for c in diag.checks}
        assert "analytics latency drift" in names
        assert "analytics run anomalies" in names

    def test_analytics_opt_out(self):
        diag = doctor.diagnose(_regression_ledger(), analytics=False)
        names = {c.name for c in diag.checks}
        assert "analytics latency drift" not in names


class TestBaselinePersistence:
    def test_save_load_compare_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        report = analytics.analyze(_stationary_ledger())
        analytics.save_baselines(report, str(path))
        doc = analytics.load_baselines(str(path))
        assert doc["schema"] == analytics.BASELINE_SCHEMA
        # same workload: nothing regressed
        findings = analytics.compare_baselines(report, doc)
        assert findings and not any(f["regressed"] for f in findings)
        # 2x slower workload: wall regressed vs the saved reference
        slow = analytics.analyze(_stationary_ledger(wall=14e-3))
        findings = analytics.compare_baselines(slow, doc)
        walls = [f for f in findings if f["metric"] == "wall_s"]
        assert walls and walls[0]["regressed"]

    def test_load_rejects_future_schema_and_junk(self, tmp_path):
        future = tmp_path / "future.json"
        future.write_text(json.dumps(
            {"schema": analytics.BASELINE_SCHEMA + 1, "cohorts": {}}))
        with pytest.raises(ValueError, match="newer"):
            analytics.load_baselines(str(future))
        junk = tmp_path / "junk.json"
        junk.write_text(json.dumps({"not": "a baseline"}))
        with pytest.raises(ValueError):
            analytics.load_baselines(str(junk))


class TestLedgerSchema:
    def test_records_are_stamped(self):
        doc = _rec(1, 0.01).to_dict()
        assert doc["schema"] == recorder.LEDGER_SCHEMA

    def test_unversioned_and_legacy_lines_accepted(self):
        old = json.dumps({"seq": 1, "kind": "compress", "ts": 0.0,
                          "wall_s": 0.01})
        legacy = json.dumps({"v": 2, "seq": 2, "kind": "compress",
                             "ts": 0.0, "wall_s": 0.01})
        recs = recorder.from_jsonl(old + "\n" + legacy + "\n")
        assert [r.seq for r in recs] == [1, 2]

    def test_future_schema_rejected_with_clear_error(self, tmp_path):
        line = json.dumps({"schema": recorder.LEDGER_SCHEMA + 1,
                           "seq": 1, "kind": "compress", "ts": 0.0,
                           "wall_s": 0.01})
        with pytest.raises(ValueError, match="newer than"):
            recorder.from_jsonl(line)
        path = tmp_path / "future.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="upgrade"):
            recorder.read_ledger(str(path))

    def test_non_numeric_schema_rejected(self):
        line = json.dumps({"schema": "three", "seq": 1,
                           "kind": "compress", "ts": 0.0, "wall_s": 0.0})
        with pytest.raises(ValueError, match="not a number"):
            recorder.from_jsonl(line)

    def test_percentiles_defined_for_tiny_groups(self):
        assert recorder._percentiles([])["n"] == 0
        assert recorder._percentiles([1.0])["p99"] == 1.0
        agg = recorder.aggregate([_rec(1, 0.01), _rec(2, 0.02)])
        label = "compress[cuszi]"
        assert agg[label]["wall_s"]["n"] == 2


class TestFingerprintThreading:
    def test_autotune_report_carries_fingerprint(self):
        data = smooth_field((12, 14, 10), seed=3)
        report = autotune(data, 1e-3)
        assert report.fingerprint == field_fingerprint(data)
        assert len(report.fingerprint) == 16
        int(report.fingerprint, 16)      # valid hex

    def test_fingerprint_distinguishes_content(self):
        a = smooth_field((12, 14, 10), seed=3)
        b = smooth_field((12, 14, 10), seed=4)
        assert field_fingerprint(a) != field_fingerprint(b)
        assert field_fingerprint(a) == field_fingerprint(a.copy())

    def test_compress_record_carries_fingerprint(self):
        # 17 = 2 * anchor_stride + 1: pad_to_grid is a no-op, so the
        # recorded fingerprint is the hash of the input field itself
        data = smooth_field((17, 17, 17), seed=5)
        CuSZi(eb=1e-3, tune=True).compress(data)
        rec = [r for r in recorder.records()
               if r.kind == "compress"][-1]
        assert rec.fingerprint == field_fingerprint(data)
        # tune=False hashes on demand (same sampled key)
        CuSZi(eb=1e-2, tune=False).compress(data)
        rec2 = [r for r in recorder.records()
                if r.kind == "compress"][-1]
        assert rec2.fingerprint == rec.fingerprint
        # ledger round trip preserves it
        back = recorder.from_jsonl(recorder.to_jsonl([rec]))
        assert back[0].fingerprint == rec.fingerprint

    def test_same_field_two_ebs_same_fingerprint_cohort_splits(self):
        data = smooth_field((12, 12, 12), seed=6)
        CuSZi(eb=1e-3, mode="abs").compress(data)
        CuSZi(eb=1e-4, mode="abs").compress(data)
        recs = [r for r in recorder.records() if r.kind == "compress"]
        keys = [analytics.cohort_key(r) for r in recs]
        assert keys[0][1] == keys[1][1]          # same fingerprint
        assert keys[0][3] != keys[1][3]          # different eb decade


class TestAnalyzeCLI:
    def _write(self, tmp_path, records, name="ledger.jsonl"):
        path = tmp_path / name
        recorder.write_ledger(str(path), records)
        return str(path)

    def test_missing_ledger_exits_1(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_empty_ledger_exits_0(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["analyze", str(path)]) == 0
        assert "no run records" in capsys.readouterr().out

    def test_stats_empty_ledger_exits_0(self, tmp_path, capsys):
        # the former `repro stats` sections of the analyze report
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["analyze", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_records"] == 0 and doc["groups"] == {}
        assert doc["model_deviation"]["checked"] == 0
        assert doc["model_deviation"]["flagged"] == []

    def test_text_and_json_reports(self, tmp_path, capsys):
        path = self._write(tmp_path, _regression_ledger())
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "latency_regression" in out and "huffman" in out
        assert main(["analyze", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == analytics.REPORT_SCHEMA
        assert doc["verdict"]["latency_regressions"] == 1

    def test_check_gates_on_regression(self, tmp_path, capsys):
        good = self._write(tmp_path, _stationary_ledger(), "good.jsonl")
        bad = self._write(tmp_path, _regression_ledger(), "bad.jsonl")
        assert main(["analyze", good, "--check"]) == 0
        assert main(["analyze", bad, "--check"]) == 1
        capsys.readouterr()

    def test_baseline_save_and_compare(self, tmp_path, capsys):
        path = self._write(tmp_path, _stationary_ledger())
        ref = tmp_path / "ref.json"
        assert main(["analyze", path, "--save-baseline", str(ref)]) == 0
        assert ref.exists()
        slow = self._write(tmp_path, _stationary_ledger(wall=14e-3),
                           "slow.jsonl")
        assert main(["analyze", slow, "--baseline", str(ref),
                     "--check"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out

    def test_doctor_empty_ledger_exits_0(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["doctor", str(path), "--check"]) == 0
        assert "0 run record(s)" in capsys.readouterr().out


class TestOverheadAccounting:
    def test_observe_is_cheap_and_accounted(self):
        engine = AnalyticsEngine()
        for r in _stationary_ledger(n=100, seed=7):
            engine.observe(r)
        over = engine.overhead()
        assert over["scored_runs"] == 100
        assert over["score_total_s"] > 0
        # generous CI bound: well under a millisecond per run
        assert over["score_mean_us"] < 1000
