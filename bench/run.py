"""Benchmark of the cuSZ-i reproduction: three workloads, end to end and
per layer, as defined in ``BENCHMARK.json``.

Every workload at once, plain and then traced::

    python bench/run.py --seed 0 [--out DIR] [--quick]

One workload, plain (end-to-end metrics) or traced (per-layer metrics)::

    python bench/run.py --workload insitu-stream --seed 0 --seconds 30 \\
        --trace 0 [--out DIR]

Each workload runs in fresh subprocesses (``workloads.py``) with
``src/`` on ``PYTHONPATH``; nothing needs building. Every metric is
printed with its unit, and the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--out`` also writes ``results.json`` and, for traced
passes, ``trace-<workload>.jsonl`` (one span per line); running every
workload writes them to a new directory under the system temp dir unless
``--out`` is given. The exit code is 0 when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "bench"
#: iterations per workload with --quick
QUICK_ITERS = 5
#: set-ups per plain run; setup_s is their median
SETUP_REPEATS = 5
#: a one-workload run ends within this many seconds, whatever happens
DEADLINE_S = 170
#: the iteration counts in ``workloads.WORKLOADS`` are for this budget
BASE_SECONDS = 30
#: samples a tail latency leaves above itself
TAIL_BEYOND = 10


class BenchError(Exception):
    """A measured process failed to produce a result."""


def _spawn(argv: list[str], deadline: float) -> dict:
    """Run one child process to completion; return its last-line JSON.

    The child gets its own session, so a timeout kills it together with
    any process it started.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(argv[1]).name} timed out") from None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{' '.join(argv[1:4])} exited with "
                         f"{proc.returncode} (its stderr is above)")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name: str, seed: int, iters: int, budget_s: float,
                 deadline: float, *, trace: bool = False,
                 setup_only: bool = False) -> dict:
    argv = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
            "--seed", str(seed), "--iters", str(iters),
            "--budget-s", str(budget_s)]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    return _spawn(argv + ["--t-spawn", repr(time.monotonic())], deadline)


def probe_host(deadline: float) -> dict:
    return _spawn([sys.executable, str(HERE / "probe.py")], deadline)


# -- metrics -----------------------------------------------------------------

def tail_rank(n: int) -> int:
    """Rank of the tail among ``n`` sorted samples: p90, or lower if p90
    would leave fewer than ``TAIL_BEYOND`` samples beyond it, but never
    below the median."""
    return max((n - 1) // 2, min(n - TAIL_BEYOND - 1, round(0.9 * (n - 1))))


def tail(values: list[float]) -> float:
    return sorted(values)[tail_rank(len(values))]


def setup_s(result: dict) -> float:
    """Set-up time of one process, scaled to the reference host speed."""
    return result["setup_s"] * result["ref_scale"]


def end_to_end(result: dict, setup_runs: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one plain run (see BENCHMARK.json).

    Every timing is scaled by the run's host-reference factor
    (``workloads.HostReference``): it reads as on the quiet host the
    bounds were set on.
    """
    scale = result["ref_scale"]
    ok = [c for c in result["calls"] if c["ok"]]
    out: dict[str, float] = {}
    for kind in ("compress", "decompress"):
        ms = [c["ms"] * scale for c in ok if c["kind"] == kind]
        if not ms:
            continue
        raw = sum(c["raw_nbytes"] for c in ok if c["kind"] == kind)
        out[f"{kind}_mb_s"] = raw / 1e6 / (sum(ms) / 1e3)
        out[f"{kind}_ms_p50"] = float(np.percentile(ms, 50))
        out[f"{kind}_ms_tail"] = tail(ms)
    if result["transfers_ms"]:
        out["transfer_ms_p50"] = scale * float(
            np.percentile(result["transfers_ms"], 50))
    fields = result["fields"]
    if fields:
        out["ratio"] = (sum(f["raw_nbytes"] for f in fields)
                        / sum(f["blob_nbytes"] for f in fields))
        out["psnr_db"] = statistics.fmean(f["psnr"] for f in fields)
    out["setup_s"] = statistics.median(setup_runs)
    out["peak_rss_mb"] = result["peak_rss_mb"]
    return out


def _tally(results: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(len(r["calls"]) for r in results)
    failures = [f for r in results for f in r["failures"]]
    failed = sum(1 for r in results for c in r["calls"] if not c["ok"])
    return attempted, failed, failures


def _reason(metric: str, unmeasured: dict[str, str]) -> str:
    for key, why in unmeasured.items():
        if metric == key or metric.startswith(key + "."):
            return why
    return "not computed"


class Report:
    """Collects and prints the metrics of one benchmark invocation."""

    def __init__(self, spec: dict):
        self.units = {m["name"]: m["unit"]
                      for m in spec["end_to_end"] + spec["per_layer"]}
        self.spec = spec
        self.workloads: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, workload: str, section: str, values: dict[str, float],
            results: list[dict], unmeasured: dict[str, str] | None = None,
            **info) -> None:
        attempted, failed, failures = _tally(results)
        self.attempted += attempted
        self.failed += failed
        entry = self.workloads.setdefault(workload, {
            "correct": True, "attempted": 0, "failed": 0, "failures": []})
        entry["attempted"] += attempted
        entry["failed"] += failed
        entry["failures"] += failures
        entry["correct"] = entry["failed"] == 0
        names = [m["name"] for m in self.spec[section]]
        entry[section] = {n: {"value": values[n], "unit": self.units[n]}
                          for n in names if n in values}
        missing = {n: _reason(n, unmeasured or {})
                   for n in names if n not in values}
        if missing:
            entry.setdefault("unmeasured", {}).update(missing)
        entry.update(info)
        for name in names:
            if name in values:
                print(f"{workload:<15} {name:<44} {values[name]:>14.4f} "
                      f"{self.units[name]}")
            else:
                print(f"{workload:<15} {name:<44} {'unmeasured':>14} "
                      f"({missing[name]})")
        for failure in failures:
            print(f"{workload:<15} FAILED {failure}")
        sys.stdout.flush()

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def last_line(self, metrics: dict) -> str:
        return json.dumps({"correct": self.correct,
                           "attempted": self.attempted,
                           "failed": self.failed, "metrics": metrics})


# -- passes ------------------------------------------------------------------

def plain_pass(report: Report, name: str, seed: int, iters: int,
               budget_s: float, deadline: float) -> dict:
    """Set up ``SETUP_REPEATS`` times (the last one runs the timed loop)."""
    setups = [setup_s(run_workload(name, seed, iters, budget_s, deadline,
                                   setup_only=True))
              for _ in range(SETUP_REPEATS - 1)]
    result = run_workload(name, seed, iters, budget_s, deadline)
    setups.append(setup_s(result))
    calls = {k: sum(1 for c in result["calls"] if c["kind"] == k)
             for k in ("compress", "decompress")}
    ref = result["ref_ms"]
    report.add(name, "end_to_end", end_to_end(result, setups), [result],
               setup_runs_s=setups, gen_s=result["gen_s"], calls=calls,
               ref_ms=statistics.median(ref), ref_scale=result["ref_scale"])
    tails = ", ".join(
        f"{kind} tail = p{100 * tail_rank(n) / max(1, n - 1):.0f}"
        for kind, n in calls.items())
    print(f"{name:<15} info: {calls['compress']} compress and "
          f"{calls['decompress']} decompress calls timed ({tails}); set-ups "
          + ", ".join(f"{s:.3f}" for s in setups)
          + f" s; input generation {result['gen_s']:.2f} s (untimed)")
    print(f"{name:<15} info: host reference {statistics.median(ref):.3f} ms "
          f"(median of {len(ref)} samples, {result['ref_skipped']} skipped "
          f"while another thread ran); timings scaled by "
          f"{result['ref_scale']:.3f}")
    return result


def traced_pass(report: Report, name: str, seed: int, iters: int,
                budget_s: float, deadline: float, plain: dict | None,
                host: dict | None, host_error: str | None,
                out_dir: Path | None) -> None:
    """The traced pass over the first ``iters`` iterations. ``plain`` is a
    plain run over the same inputs, for the tracing overhead; without one,
    an untraced run of ``iters`` iterations is made here."""
    results = []
    if plain is None:
        plain = run_workload(name, seed, iters, budget_s, deadline)
        results.append(plain)
    traced = run_workload(name, seed, iters, budget_s, deadline, trace=True)
    results.append(traced)
    values, unmeasured = tracing.layer_metrics(traced, plain, host)
    if host_error:
        unmeasured["host"] = host_error
    report.add(name, "per_layer", values, results, unmeasured,
               traced_calls=len(traced["calls"]))
    if out_dir is not None:
        with open(out_dir / f"trace-{name}.jsonl", "w") as fp:
            for span in traced["trace"]["spans"]:
                fp.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, plain and "
                             "traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="time budget of each timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = per-layer metrics")
    parser.add_argument("--out", type=Path,
                        help="directory for results.json and traces")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_ITERS} iterations per workload")
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps its measured process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if sorted(names) != sorted(WORKLOADS):
        print("error: BENCHMARK.json workloads differ from workloads.py",
              file=sys.stderr)
        return 2

    selected = [args.workload] if args.workload else names
    out_dir = args.out
    if out_dir is None and args.workload is None:
        out_dir = Path(tempfile.mkdtemp(prefix="repro-bench-"))
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S * len(selected)
    report = Report(spec)

    def iterations(name):
        _, full, traced = WORKLOADS[name]
        n = (QUICK_ITERS if args.quick
             else max(1, round(full * args.seconds / BASE_SECONDS)))
        return n, min(traced, n)

    want_plain = args.workload is None or args.trace == 0
    want_traced = args.workload is None or args.trace == 1
    host, host_error = None, None
    if want_traced:
        try:
            host = probe_host(deadline)
        except BenchError as exc:
            host_error = str(exc)
    try:
        for name in selected:
            iters, trace_iters = iterations(name)
            plain = None
            if want_plain:
                plain = plain_pass(report, name, args.seed, iters,
                                   args.seconds, deadline)
            if want_traced:
                traced_pass(report, name, args.seed, trace_iters,
                            args.seconds, deadline, plain, host, host_error,
                            out_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if out_dir is not None:
        (out_dir / "results.json").write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "quick": args.quick,
             "workloads": report.workloads}, indent=1))
        print(f"results written to {out_dir}")
    if args.workload is None:
        metrics = {f"{w}.{n}": m for w, entry in report.workloads.items()
                   for section in ("end_to_end", "per_layer")
                   for n, m in entry.get(section, {}).items()}
    else:
        section = "per_layer" if args.trace else "end_to_end"
        metrics = report.workloads[args.workload][section]
    print(report.last_line(metrics))
    return 0 if report.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
