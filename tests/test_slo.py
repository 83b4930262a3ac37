"""Unit tests for the SLO / error-budget engine
(:mod:`repro.telemetry.slo`) and its doctor integration."""

import json

import pytest

from repro.telemetry import doctor, slo
from repro.telemetry.recorder import RunRecord


def _record(**kw) -> RunRecord:
    base = dict(seq=1, kind="compress", ts=0.0, wall_s=0.01,
                codec="cuszi")
    base.update(kw)
    return RunRecord(**base)


def _status(records, spec):
    (st,) = slo.evaluate(records, [spec])
    return st


class TestSpec:
    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            slo.SLOSpec("x", objective="vibes")

    def test_rejects_bad_budget_and_window(self):
        with pytest.raises(ValueError, match="budget"):
            slo.SLOSpec("x", objective="errors", budget=0.0)
        with pytest.raises(ValueError, match="budget"):
            slo.SLOSpec("x", objective="errors", budget=1.5)
        with pytest.raises(ValueError, match="window"):
            slo.SLOSpec("x", objective="errors", window=0)

    def test_latency_and_ratio_need_positive_target(self):
        with pytest.raises(ValueError, match="target"):
            slo.SLOSpec("x", objective="latency")
        with pytest.raises(ValueError, match="target"):
            slo.SLOSpec("x", objective="ratio")

    def test_kind_matching(self):
        exact = slo.SLOSpec("x", objective="errors", kind="compress")
        prefix = slo.SLOSpec("x", objective="errors", kind="runtime.*")
        anything = slo.SLOSpec("x", objective="errors", kind="*")
        rec = _record(kind="runtime.map_compress")
        assert not exact.matches(rec)
        assert prefix.matches(rec)
        assert anything.matches(rec)
        assert exact.matches(_record(kind="compress"))

    def test_codec_filter(self):
        spec = slo.SLOSpec("x", objective="errors", codec="cuszi")
        assert spec.matches(_record(codec="cuszi"))
        assert not spec.matches(_record(codec="cuzfp"))


class TestEvaluate:
    def test_latency_violations_and_worst(self):
        spec = slo.SLOSpec("lat", objective="latency", target=0.1,
                           budget=0.5)
        recs = [_record(seq=i, wall_s=w)
                for i, w in enumerate([0.05, 0.2, 0.05, 0.3])]
        st = _status(recs, spec)
        assert (st.n, st.violations) == (4, 2)
        assert st.worst == pytest.approx(0.3)
        assert st.compliance == pytest.approx(0.5)
        assert st.budget_consumed == pytest.approx(1.0)
        assert st.exhausted

    def test_stage_latency_skips_records_without_stage(self):
        spec = slo.SLOSpec("lat", objective="latency", target=0.1,
                           stage="huffman")
        recs = [_record(seq=1, stages={"huffman": 0.2}),
                _record(seq=2, stages={"predict": 9.9})]
        st = _status(recs, spec)
        assert (st.n, st.violations) == (1, 1)

    def test_ratio_floor(self):
        spec = slo.SLOSpec("cr", objective="ratio", target=2.0,
                           budget=0.5)
        recs = [_record(seq=1, attrs={"bytes_in": 100, "bytes_out": 20}),
                _record(seq=2, attrs={"bytes_in": 100, "bytes_out": 80}),
                _record(seq=3)]               # no bytes: unjudgeable
        st = _status(recs, spec)
        assert (st.n, st.violations) == (2, 1)
        assert st.worst == pytest.approx(1.25)   # worst ratio is the min

    def test_error_objective(self):
        spec = slo.SLOSpec("err", objective="errors", budget=0.5)
        recs = [_record(seq=1), _record(seq=2, status="error")]
        st = _status(recs, spec)
        assert (st.n, st.violations) == (2, 1)
        assert st.budget_consumed == pytest.approx(1.0)

    def test_quality_judges_only_audited_runs(self):
        spec = slo.SLOSpec("q", objective="quality")
        recs = [_record(seq=1),
                _record(seq=2, attrs={"quality": {"eb_exceeded": 0}}),
                _record(seq=3, attrs={"quality": {"eb_exceeded": 2}})]
        st = _status(recs, spec)
        assert (st.n, st.violations) == (2, 1)

    def test_window_truncates_oldest(self):
        spec = slo.SLOSpec("err", objective="errors", budget=0.9,
                           window=2)
        recs = [_record(seq=1, status="error"), _record(seq=2),
                _record(seq=3)]
        st = _status(recs, spec)
        assert (st.n, st.violations) == (2, 0)

    def test_burn_rate_reacts_to_recent_slice(self):
        # 80 clean runs then 20 errors: the whole-window consumption is
        # moderate but the recent slice burns far over budget
        spec = slo.SLOSpec("err", objective="errors", budget=0.25,
                           window=160)
        recs = [_record(seq=i) for i in range(80)] + \
               [_record(seq=80 + i, status="error") for i in range(20)]
        st = _status(recs, spec)
        assert st.recent_n == 20                 # window // 8
        assert st.burn_rate == pytest.approx(4.0)
        assert st.budget_consumed == pytest.approx(0.8)
        assert not st.exhausted

    def test_empty_window_owes_nothing(self):
        st = _status([], slo.SLOSpec("err", objective="errors"))
        assert st.n == 0 and st.compliance == 1.0
        assert st.budget_consumed == 0.0 and st.burn_rate == 0.0
        assert not st.exhausted

    def test_default_specs_cover_errors_and_latency(self):
        names = {s.name for s in slo.DEFAULT_SLOS}
        assert {"run_errors", "compress_wall_p99",
                "compress_ratio_floor",
                "quality_eb_violations"} <= names
        statuses = slo.evaluate([_record()])
        assert len(statuses) == len(slo.DEFAULT_SLOS)


class TestConfig:
    def test_parse_round_trip(self):
        doc = {"slos": [{"name": "lat", "objective": "latency",
                         "target": 0.5, "budget": 0.05,
                         "kind": "compress", "stage": "huffman",
                         "window": 100}]}
        (spec,) = slo.parse_slos(doc)
        assert spec.to_dict() == {
            "name": "lat", "objective": "latency", "target": 0.5,
            "budget": 0.05, "kind": "compress", "codec": None,
            "stage": "huffman", "window": 100}

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="slos"):
            slo.parse_slos({"objectives": []})
        with pytest.raises(ValueError, match="not an object"):
            slo.parse_slos({"slos": ["x"]})
        with pytest.raises(ValueError, match="unknown field"):
            slo.parse_slos({"slos": [{"name": "a", "objective": "errors",
                                      "threshold": 1}]})
        with pytest.raises(ValueError, match="missing"):
            slo.parse_slos({"slos": [{"name": "a"}]})
        with pytest.raises(ValueError, match="duplicate"):
            slo.parse_slos({"slos": [
                {"name": "a", "objective": "errors"},
                {"name": "a", "objective": "errors"}]})

    def test_load_slos_from_file(self, tmp_path):
        path = tmp_path / "slos.json"
        path.write_text(json.dumps(
            {"slos": [{"name": "a", "objective": "errors"}]}))
        (spec,) = slo.load_slos(str(path))
        assert spec.name == "a"
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ValueError, match="not JSON"):
            slo.load_slos(str(bad))


class TestRendering:
    def test_format_statuses_marks_state(self):
        ok = slo.SLOSpec("fine", objective="errors", budget=0.9)
        blown = slo.SLOSpec("blown", objective="errors", budget=0.001)
        statuses = slo.evaluate(
            [_record(seq=1), _record(seq=2, status="error")],
            [ok, blown])
        text = "\n".join(slo.format_statuses(statuses))
        assert "[       ok] fine" in text
        assert "[EXHAUSTED] blown" in text


class TestDoctorIntegration:
    def test_exhausted_budget_gates(self):
        recs = [_record(seq=i, status="error") for i in range(5)]
        diag = doctor.diagnose(recs, slos=slo.DEFAULT_SLOS)
        slo_checks = {c.name: c for c in diag.checks
                      if c.name.startswith("slo ")}
        assert not slo_checks["slo run_errors"].ok
        assert slo_checks["slo run_errors"].gating
        assert not diag.healthy

    def test_burning_budget_warns_without_gating(self):
        # enough clean history that the window budget holds, but the
        # recent slice is all errors
        spec = slo.SLOSpec("err", objective="errors", budget=0.2,
                           window=80)
        recs = [_record(seq=i) for i in range(70)] + \
               [_record(seq=70 + i, status="error") for i in range(10)]
        diag = doctor.diagnose(recs, slos=[spec])
        check = next(c for c in diag.checks if c.name == "slo err")
        assert not check.ok and not check.gating
        assert "burning over budget" in check.detail
        # every other structural check still sees the error records
        assert not diag.healthy          # run-errors check gates anyway

    def test_unjudgeable_window_is_informational(self):
        spec = slo.SLOSpec("q", objective="quality")
        diag = doctor.diagnose([_record()], slos=[spec])
        check = next(c for c in diag.checks if c.name == "slo q")
        assert check.ok and not check.gating

    def test_no_slos_means_no_slo_checks(self):
        diag = doctor.diagnose([_record()])
        assert not any(c.name.startswith("slo ") for c in diag.checks)
