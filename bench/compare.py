"""Compare benchmark runs of a parent commit and of a change.

    python bench/compare.py PARENT_DIR... -- CHANGE_DIR...

Each DIR holds the ``results.json`` of one ``run.py --out DIR``
invocation. For every workload and metric the table shows each side's
median with its quartiles, the change of the median, and the share of
run pairs each side won (runs are paired in the order given; ties count
for neither). End-to-end metrics get a verdict against their bound in
``BENCHMARK.json``:

* ``regressed``  -- the change's median is worse than the parent's by more
  than the bound;
* ``unresolved`` -- the parent's own spread (quartile distance over the
  median) exceeds the bound, so the bound cannot be judged, unless every
  change run beats every parent run;
* ``ok`` otherwise. Per-layer metrics have no bound and no verdict.

The exit code is 1 if any metric regressed or is unresolved, or any
change run produced a wrong output.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


def load(dirs: list[str]) -> tuple[dict, dict]:
    """``({(workload, metric): [values]}, {workload: failed calls})``."""
    values: dict[tuple[str, str], list[float]] = {}
    failed: dict[str, int] = {}
    for d in dirs:
        data = json.loads((Path(d) / "results.json").read_text())
        for workload, entry in data["workloads"].items():
            failed[workload] = failed.get(workload, 0) + entry["failed"]
            for section in ("end_to_end", "per_layer"):
                for name, m in entry.get(section, {}).items():
                    values.setdefault((workload, name), []).append(
                        m["value"])
    return values, failed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, how much worse the change's median is, as a share of
    the parent's; negative = better)``."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if worse > bound:
        return "regressed", worse
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", worse
    return "ok", worse


def wins(parent: list[float], change: list[float], better: str
         ) -> tuple[float, float]:
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    if not pairs:
        return 0.0, 0.0
    change_won = sum(1 for p, c in pairs if sign * (c - p) < 0)
    parent_won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    return parent_won / len(pairs), change_won / len(pairs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    cut = argv.index("--")
    parent_dirs, change_dirs = argv[:cut], argv[cut + 1:]
    if not parent_dirs or not change_dirs:
        print("need at least one run on each side of --", file=sys.stderr)
        return 2
    parent, _ = load(parent_dirs)
    change, change_failed = load(change_dirs)
    metrics = [(m, "end_to_end") for m in SPEC["end_to_end"]] \
        + [(m, "per_layer") for m in SPEC["per_layer"]]
    workloads = [w["name"] for w in SPEC["workloads"]]

    print(f"{len(parent_dirs)} parent runs, {len(change_dirs)} change runs")
    print(f"{'workload':<15} {'metric':<44} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'worse':>7} "
          f"{'won p/c':>9}  verdict")
    bad = 0
    for workload in workloads:
        if change_failed.get(workload):
            print(f"{workload:<15} FAILED: {change_failed[workload]} change "
                  f"calls gave a wrong output")
            bad += 1
        for m, section in metrics:
            key = (workload, m["name"])
            if key not in parent or key not in change:
                continue
            p, c = parent[key], change[key]
            if section == "end_to_end":
                word, worse = verdict(p, c, m["better"], m["bound"])
                bad += word != "ok"
            else:
                word, worse = "-", verdict(p, c, m["better"], 1.0)[1]
            p_won, c_won = wins(p, c, m["better"])
            won = f"{p_won:.0%}/{c_won:.0%}"
            print(f"{workload:<15} {m['name']:<44} {_fmt(p):>34} "
                  f"{_fmt(c):>34} {worse:>+7.1%} {won:>9}  {word}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
