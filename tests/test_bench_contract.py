"""The benchmark's traced pass still measures every per-layer metric.

``bench/tracing.py`` wraps program entry points by name, reads cache hit
ratios from the cache registry by name and maps performance-model kernels
by name. When a change removes or renames one of those names, the traced
``bench/run.py`` run still exits 0, but the metric drops out of its last
line. These checks read ``bench/`` without changing it and fail at the
rename instead. A wrapper target that no longer resolves shows up as
unmeasured in the traced run below (``test_bench_targets.py`` also checks
each target on its own).
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import math
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")


def test_every_cache_metric_is_in_the_snapshot():
    importlib.import_module("repro.core.pipeline")
    from repro.telemetry import caches
    snapshot = caches.snapshot()
    assert set(tracing.CACHE_METRICS.values()) <= set(snapshot)


def test_performance_model_yields_every_kernel():
    from repro.gpu.perfmodel import pipeline_kernels
    names = {k.name for side in tracing.SIDES
             for k in pipeline_kernels("cuszi", side, 4096, 1024)}
    assert set(tracing.MODEL_KERNELS) <= names


def test_traced_insitu_stream_measures_every_layer():
    workloads = _load("workloads")
    tracer = tracing.Tracer()
    run = workloads.Run("insitu-stream", seed=0, budget_s=30,
                        setup_only=False, tracer=tracer)
    try:
        workloads.insitu_stream(run, 2)
    finally:
        tracer.uninstall()      # a failed run must not leave wrappers in
    assert not run.failures
    result = run.result(0.0)
    # the run is its own untraced reference (overhead 0, but computed);
    # the host ceiling is a stand-in, since only bench/probe.py measures it
    host = {"copy_gb_s": 1.0, "triad_gb_s": 1.0, "llc_mib": 1.0,
            "array_mib": 1.0}
    values, unmeasured = tracing.layer_metrics(result, result, host)
    assert not unmeasured, unmeasured
    wanted = {m["name"] for m in SPEC["per_layer"]}
    assert wanted <= set(values), wanted - set(values)
    assert all(math.isfinite(v) for v in values.values()), values
