"""CI bench gates: one test per live performance property of the pipeline.

The CI bench job runs this module next to ``pytest bench/`` and then
judges the run ledger it writes with the one regression verdict::

    PYTHONPATH=src python -m pytest -q bench/ benchmarks/test_ci_gates.py \\
        --ledger ci_ledger.jsonl
    PYTHONPATH=src python -m repro.cli doctor ci_ledger.jsonl --check

One module-scoped workload on the seeded Nyx ``baryon_density`` field
(rel eb 1e-3) records every run in the flight recorder and takes the
measurements the gates read. Each gate is its own test, so one red gate
does not hide the others:

- warm compress wall <= 1.5x warm decompress wall (best of 3), at 64^3
  and at 128^3;
- the Huffman stage under half of a warm 64^3 decompress (best of 3);
- ledger-analytics scoring under 1% of the warm 64^3 compress wall;
- pooled slab decompress <= 1.25x serial on 128^3 (best of 3), skipped
  below 2 usable CPUs, where "pooled" would time contention.

The workload also runs the four fast codecs, serial and pooled slab
round trips at 64^3 and 128^3, and one quality-audited compress, so the
ledger covers every cohort the doctor judges. Without ``--ledger`` the
ledger goes to a pytest temporary directory.
"""

import os
import time

import pytest

from repro import telemetry
from repro.datasets import load_field
from repro.registry import get_compressor
from repro.runtime import (parallel_compress_slabs, parallel_decompress_slabs,
                           resolve_workers)
from repro.streaming import compress_slabs, decompress_slabs
from repro.telemetry import analytics, quality, recorder

EB = 1e-3
DATASET, FIELD = "nyx", "baryon_density"
CODECS = ("cuszi", "cusz", "cuszp", "fzgpu")
#: planes per slab: 8 slabs at 64^3 and 16 at 128^3
SLAB_PLANES = 8
ROUNDS = 3

WALL_RATIO_MAX = 1.5
HUFFMAN_SHARE_MAX = 0.5
ANALYTICS_SHARE_MAX = 0.01
POOLED_SLOWDOWN_MAX = 1.25


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _walls(data) -> tuple[float, float]:
    """Best-of-rounds warm compress and decompress walls."""
    comp = get_compressor("cuszi", eb=EB, mode="rel")
    blob = comp.compress(data)              # warm plan/tune caches
    comp.decompress(blob)                   # warm codebook/LUT caches
    c_s = d_s = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        comp.compress(data)
        c_s = min(c_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        comp.decompress(blob)
        d_s = min(d_s, time.perf_counter() - t0)
    return c_s, d_s


def _huffman_share(data) -> float:
    """Huffman span share of the fastest of a few warm decompresses."""
    comp = get_compressor("cuszi", eb=EB, mode="rel")
    blob = comp.compress(data)
    comp.decompress(blob)
    best = (float("inf"), 0.0)
    for _ in range(ROUNDS):
        with telemetry.recording() as reg:
            comp.decompress(blob)
        total = sum(sp.duration_s for sp in reg.spans
                    if sp.name == "decompress")
        huff = sum(sp.duration_s for sp in reg.spans if sp.name == "huffman")
        best = min(best, (total, huff))
    return best[1] / best[0]


def _slab_round_trip(data, workers: int) -> dict:
    """Serial and pooled slab streams, and best-of-rounds decode walls."""
    kw = dict(codec="cuszi", eb=EB, mode="rel", lossless="none")
    # warm the daemon pool: fork and codec import are one-time costs
    parallel_compress_slabs(data[:2 * SLAB_PLANES], SLAB_PLANES,
                            workers=workers, **kw)
    serial = compress_slabs(data, SLAB_PLANES, **kw)
    pooled = parallel_compress_slabs(data, SLAB_PLANES, workers=workers,
                                     **kw)
    serial_s = pooled_s = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        decompress_slabs(serial)
        t1 = time.perf_counter()
        parallel_decompress_slabs(pooled, workers=workers)
        t2 = time.perf_counter()
        serial_s = min(serial_s, t1 - t0)
        pooled_s = min(pooled_s, t2 - t1)
    return {"identical": pooled == serial, "serial_s": serial_s,
            "pooled_s": pooled_s}


@pytest.fixture(scope="module")
def workload(request, tmp_path_factory):
    recorder.clear()
    data64 = load_field(DATASET, FIELD, shape=(64, 64, 64))
    data128 = load_field(DATASET, FIELD, shape=(128, 128, 128))
    for codec in CODECS:
        comp = get_compressor(codec, eb=EB, mode="rel", lossless="none")
        comp.decompress(comp.compress(data64))
    workers = min(4, max(2, resolve_workers("auto")))
    out = {"slabs": {n: _slab_round_trip(d, workers)
                     for n, d in ((64, data64), (128, data128))},
           "walls": {64: _walls(data64), 128: _walls(data128)},
           "huffman_share": _huffman_share(data64)}
    quality.enable(every=1, fraction=0.25, block=16, seed=0)
    try:
        get_compressor("cuszi", eb=EB, mode="rel").compress(data64)
    finally:
        quality.disable()
    out["records"] = recorder.records()
    path = request.config.getoption("--ledger") or str(
        tmp_path_factory.mktemp("ledger") / "ci_ledger.jsonl")
    recorder.write_ledger(path)
    print(f"\nwrote {len(out['records'])} run record(s) -> {path}")
    return out


@pytest.mark.parametrize("n", [64, 128])
def test_compress_wall_within_1_5x_decompress(workload, n):
    c_s, d_s = workload["walls"][n]
    ratio = c_s / d_s
    print(f"\n{n}^3: compress {c_s * 1e3:.1f} ms, decompress "
          f"{d_s * 1e3:.1f} ms, ratio {ratio:.3f}")
    assert ratio <= WALL_RATIO_MAX, (
        f"{n}^3 compress/decompress wall ratio {ratio:.2f}, expected "
        f"<= {WALL_RATIO_MAX}")


def test_huffman_under_half_of_decompress(workload):
    share = workload["huffman_share"]
    print(f"\nhuffman share of a 64^3 decompress: {share:.3f}")
    assert share < HUFFMAN_SHARE_MAX, (
        f"huffman stage is {share:.1%} of decompress, expected "
        f"< {HUFFMAN_SHARE_MAX:.0%}")


def test_analytics_scoring_under_1pct_of_compress64(workload):
    engine = analytics.AnalyticsEngine()
    for rec in workload["records"]:
        engine.observe(rec)
    over = engine.overhead()
    assert over["scored_runs"] > 0 and engine.report()["n_cohorts"] > 0
    c64 = workload["walls"][64][0]
    share = over["score_mean_us"] * 1e-6 / c64
    print(f"\nanalytics scoring {over['score_mean_us']:.1f} us/run = "
          f"{share:.3%} of a {c64 * 1e3:.1f} ms compress64 wall")
    assert share < ANALYTICS_SHARE_MAX, (
        f"analytics scoring is {share:.2%} of a compress64 wall, "
        f"expected < {ANALYTICS_SHARE_MAX:.0%}")


@pytest.mark.skipif(_usable_cpus() < 2,
                    reason="pooled vs serial needs >= 2 usable CPUs")
def test_pooled_decompress_within_1_25x_serial(workload):
    rt = workload["slabs"][128]
    assert rt["identical"], "pooled slab stream differs from serial"
    print(f"\n128^3 slab decompress: serial {rt['serial_s'] * 1e3:.1f} ms, "
          f"pooled {rt['pooled_s'] * 1e3:.1f} ms")
    assert rt["pooled_s"] <= rt["serial_s"] * POOLED_SLOWDOWN_MAX, (
        f"pooled decompress {rt['pooled_s']:.3f}s vs serial "
        f"{rt['serial_s']:.3f}s, expected <= {POOLED_SLOWDOWN_MAX}x")
