"""Tests of the benchmark itself: ``pytest bench/`` (about a minute).

They run ``run.py --quick`` (five iterations per workload, plain and
traced) once and check what it prints and writes, then trace one
workload in this process with a wrapper target that does not exist.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    proc = _run("--quick", "--seed", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads((out / "results.json").read_text()), out


def test_every_metric_is_printed_with_its_unit(quick):
    stdout, results, _ = quick
    lines = stdout.splitlines()
    for workload in NAMES:
        entry = results["workloads"][workload]
        assert entry["correct"] and entry["attempted"] > 0
        for section in ("end_to_end", "per_layer"):
            for m in SPEC[section]:
                assert entry[section][m["name"]]["unit"] == m["unit"]
                head = f"{workload:<15} {m['name']:<44}"
                assert any(line.startswith(head)
                           and line.endswith(f" {m['unit']}")
                           for line in lines), (workload, m["name"])
    last = json.loads(lines[-1])
    assert last["correct"] and last["failed"] == 0


def test_self_time_is_non_negative(quick):
    _, results, out = quick
    for workload in NAMES:
        layers = results["workloads"][workload]["per_layer"]
        assert layers["pipeline.compress.self_ms"]["value"] >= 0
        assert layers["pipeline.decompress.self_ms"]["value"] >= 0
        spans = [json.loads(line)
                 for line in (out / f"trace-{workload}.jsonl").open()]
        assert spans
        busy = {}
        for s in spans:
            if s["parent"] is not None:
                busy[s["parent"]] = (busy.get(s["parent"], 0.0)
                                     + s["end"] - s["start"])
        for s in spans:
            assert s["end"] - s["start"] - busy.get(s["id"], 0.0) >= -1e-9


def test_inputs_follow_the_seed():
    def quality(seed):
        proc = _run("--workload", "archive-mixed", "--seed", str(seed),
                    "--quick", "--trace", "0")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        return metrics["ratio"]["value"], metrics["psnr_db"]["value"]

    first = quality(0)
    assert quality(0) == first
    assert quality(1) != first


def test_missing_wrapper_target_is_unmeasured(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import tracing
    import workloads

    targets = dict(tracing.TARGETS)
    targets["ginterp.plans.get_plan"] = ("repro.core.pipeline",
                                         "get_plan_renamed", "both")
    run = workloads.Run("insitu-stream", seed=0, budget_s=30,
                        setup_only=False, tracer=tracing.Tracer(targets))
    workloads.insitu_stream(run, 2)
    assert not run.failures
    values, unmeasured = tracing.layer_metrics(run.result(0.0), None, None)
    assert "get_plan_renamed" in unmeasured["ginterp.plans.get_plan"]
    assert not any(k.startswith("ginterp.plans.get_plan.") for k in values)
    assert values["ginterp.engine.interp_compress.ms_per_op"] > 0
    assert values["pipeline.compress.self_ms"] >= 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", NAMES[0], "--seed", "0", "--seconds", "5",
                "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
