"""Ledger + environment + cache health diagnosis (``repro doctor``).

The flight recorder (:mod:`repro.telemetry.recorder`) tells you what
runs happened; the doctor reads a run ledger and says whether the
*system* looks healthy. It is deliberately structural — it flags states
that are wrong regardless of machine speed, so its findings can gate CI
via ``repro doctor --check``, the one regression verdict:

- **error records** — any run that ended in an exception;
- **warm-cache hit rate** — per cache, lookups across every record
  *after* the cache's first active record (the cold fill) should mostly
  hit; a warm ratio below the threshold means a cache key is broken or
  thrashing;
- **never-expand guard trips** — the lossless orchestrator predicted a
  backend that *expanded* a segment; correctness survives (the guard
  stores raw) but the predictor is mismodelling;
- **serial fallbacks** — pooled requests that degraded to the serial
  path: ``size_floor`` is expected (informational), ``spawn_failure``
  means worker processes could not be (re)spawned in that environment
  or it has no shared memory,
  and ``worker_crash`` means a shm daemon worker died mid-request (the
  pool is rebuilt, but a crash is never expected);
- **quality audits** — sampled error-bound violations are always
  anomalies;
- **compress ratio floor / wall ceiling** — compress runs that expand
  their input (ratio under 1x) or take over a minute each gate once
  they reach :data:`BUDGET` of the judged compress runs;
- **ledger analytics drift** (:mod:`repro.telemetry.analytics`, whose
  ``REGRESSION_THRESHOLD`` is the one regression threshold) — a
  sustained, stage-attributed latency regression or a sustained quality
  drift detected over the run sequence gates; a ratio drift and
  per-run anomaly flags warn. Cold-start warm-ups are improvements and
  never trip these.
"""

from __future__ import annotations

import os
import platform
import sys
from dataclasses import dataclass, field

from repro.telemetry.recorder import RunRecord

__all__ = ["Check", "Diagnosis", "diagnose", "environment_report",
           "WARM_HIT_THRESHOLD", "UNBUDGETED_BYTES_WARN", "RATIO_FLOOR",
           "WALL_CEILING_S", "BUDGET"]

#: minimum acceptable warm (post-cold-fill) cache hit ratio
WARM_HIT_THRESHOLD = 0.5

#: resident bytes above which a cache with *no* byte budget
#: (``byte_limit`` -1/0) is flagged as growing without bound
UNBUDGETED_BYTES_WARN = 64 << 20

#: compression ratio a compress run must reach (below it, it expanded)
RATIO_FLOOR = 1.0

#: seconds a compress run may take
WALL_CEILING_S = 60.0

#: share of judged compress runs that may miss the floor or the ceiling
#: before the check gates (the p99 phrasing: fails at >= 1%)
BUDGET = 0.01

#: worker-resident aggregates where the ``size`` gauge counts daemons,
#: not cache entries — per-worker cold fills are invisible as size
#: growth, so the warm-ratio heuristic would misfire; their warmth is
#: asserted directly by the runtime tests and the bench instead
_AGGREGATED_CACHES = frozenset({"runtime.workers"})


@dataclass
class Check:
    """One health check outcome."""

    name: str
    ok: bool
    detail: str
    gating: bool = True          # informational checks never fail --check


@dataclass
class Diagnosis:
    """All checks over one ledger."""

    n_records: int
    checks: list = field(default_factory=list)

    @property
    def anomalies(self) -> list:
        return [c for c in self.checks if c.gating and not c.ok]

    @property
    def healthy(self) -> bool:
        return not self.anomalies

    def format(self) -> str:
        lines = [f"ledger: {self.n_records} run record(s)"]
        for c in self.checks:
            mark = "ok  " if c.ok else ("WARN" if not c.gating
                                        else "FAIL")
            lines.append(f"  [{mark}] {c.name}: {c.detail}")
        lines.append("diagnosis: " + ("healthy" if self.healthy else
                                      f"{len(self.anomalies)} anomaly(ies)"))
        return "\n".join(lines)


def environment_report() -> dict:
    """The environment facts worth pinning next to a ledger."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
        "flight_recorder": os.environ.get("REPRO_FLIGHT_RECORDER", "1"),
    }


def _warm_cache_ratios(records: list[RunRecord]) -> dict[str, tuple]:
    """Per cache: (warm_hits, warm_lookups) over every record after the
    cache's first active one (which pays the cold fill).

    A miss that *inserted* a new entry is a per-key cold fill — a
    workload over many distinct fields legitimately misses once per
    field — so insertions (net size growth plus evictions, since every
    LRU eviction is displaced by an insertion) are subtracted from the
    warm lookup base. What remains are re-lookups of keys the cache has
    already seen, which is where a broken key or thrashing shows up.
    """
    seen: set[str] = set()
    warm: dict[str, list[int]] = {}
    for rec in records:
        for name, delta in rec.caches.items():
            if name in _AGGREGATED_CACHES:
                continue
            lookups = delta.get("lookups", 0)
            if not lookups:
                continue
            if name not in seen:
                seen.add(name)        # cold fill: exempt
                continue
            inserted = (max(0, delta.get("size_growth", 0))
                        + delta.get("evictions", 0))
            warm_lookups = max(0, lookups - inserted)
            if not warm_lookups:
                continue
            h, total = warm.get(name, (0, 0))
            warm[name] = [h + min(delta.get("hits", 0), warm_lookups),
                          total + warm_lookups]
    return {name: tuple(v) for name, v in warm.items()}


def _counter_total(records: list[RunRecord], name: str) -> float:
    return sum(rec.counters.get(name, 0) for rec in records)


def _format_cp(cp: dict) -> str:
    line = (f"{cp['cohort']} {cp['metric']} {cp['before']:.4g} -> "
            f"{cp['after']:.4g} ({cp['rel']:+.0%}) since "
            f"seq={cp['since_seq']}")
    if cp.get("stage"):
        line += (f" [stage '{cp['stage']}' explains "
                 f"{cp.get('stage_share') or 0:.0%}]")
    return line


def _analytics_checks(records: list[RunRecord], checks: list) -> None:
    """Ledger-analytics drift checks (:mod:`repro.telemetry.analytics`).

    A sustained latency regression (with stage attribution when the
    mover is identifiable) or a sustained quality drift is wrong
    regardless of machine speed — the detector compares the ledger
    against itself, so these can gate.
    Ratio drifts and per-run anomaly flags warn only.
    """
    from repro.telemetry import analytics as analytics_mod

    report = analytics_mod.analyze(records)
    cps = report["change_points"]
    lat = [cp for cp in cps if cp["kind"] == "latency_regression"]
    qual = [cp for cp in cps if cp["kind"] == "quality_drift"]
    ratio = [cp for cp in cps if cp["kind"] == "ratio_drift"]
    checks.append(Check(
        "analytics latency drift", not lat,
        "; ".join(_format_cp(cp) for cp in lat) if lat
        else "no sustained latency regression",
        gating=bool(lat)))
    checks.append(Check(
        "analytics quality drift", not qual,
        "; ".join(_format_cp(cp) for cp in qual) if qual
        else "no sustained quality drift",
        gating=bool(qual)))
    checks.append(Check(
        "analytics ratio drift", not ratio,
        "; ".join(_format_cp(cp) for cp in ratio) if ratio
        else "no sustained ratio drift", gating=False))
    anomalous = report["verdict"]["anomalous_runs"]
    checks.append(Check(
        "analytics run anomalies", anomalous == 0,
        f"{anomalous}/{report['n_records']} run(s) scored anomalous "
        f"vs cohort baselines" if anomalous
        else f"{report['n_records']} run(s) scored, none anomalous",
        gating=False))


def _budget_check(checks: list, name: str, what: str,
                  values: list[float], bad) -> None:
    """Gate when at least :data:`BUDGET` of ``values`` are ``bad``."""
    n_bad = sum(1 for v in values if bad(v))
    if not values:
        checks.append(Check(name, True, "no compress runs to judge",
                            gating=False))
        return
    checks.append(Check(
        name, n_bad / len(values) < BUDGET,
        f"{n_bad}/{len(values)} compress run(s) {what} "
        f"(allowed: under {BUDGET:.0%})"))


def diagnose(records: list[RunRecord],
             warm_hit_threshold: float = WARM_HIT_THRESHOLD,
             analytics: bool = True) -> Diagnosis:
    """Run every structural health check over a list of run records.

    ``analytics`` (default on) adds the ledger-analytics drift checks —
    sustained latency regressions (stage-attributed) and quality drifts
    gate, ratio drifts and per-run anomaly counts warn.
    """
    diag = Diagnosis(n_records=len(records))
    checks = diag.checks

    errors = [r for r in records if r.status != "ok"]
    checks.append(Check(
        "run errors", not errors,
        f"{len(errors)}/{len(records)} record(s) ended in error"
        + (f" (first: {errors[0].kind} seq={errors[0].seq})" if errors
           else "")))

    warm = _warm_cache_ratios(records)
    if warm:
        bad = {}
        for name, (hits, lookups) in warm.items():
            ratio = hits / lookups if lookups else 1.0
            if ratio < warm_hit_threshold:
                bad[name] = ratio
        detail = ", ".join(f"{n}={hits}/{lk}"
                           for n, (hits, lk) in sorted(warm.items()))
        if bad:
            detail += ("; below threshold "
                       f"{warm_hit_threshold:.0%}: "
                       + ", ".join(f"{n} ({r:.0%})"
                                   for n, r in sorted(bad.items())))
        checks.append(Check("warm cache hit rate", not bad, detail))
    else:
        checks.append(Check(
            "warm cache hit rate", True,
            "no repeated cache activity to judge", gating=False))

    # worker-resident aggregates are exempt from the warm-ratio check
    # above, but one structural signal still applies: when the summed
    # eviction count overtakes the summed hit count, the per-worker LRUs
    # are cycling entries faster than they serve them — the limit is too
    # small for the workload (raise REPRO_WORKER_CACHE_LIMIT). Warn-only:
    # correctness is unaffected, and short churn-heavy runs can trip it.
    agg: dict[str, list[int]] = {}
    for rec in records:
        for name, delta in rec.caches.items():
            if name not in _AGGREGATED_CACHES:
                continue
            tot = agg.setdefault(name, [0, 0])
            tot[0] += delta.get("hits", 0)
            tot[1] += delta.get("evictions", 0)
    churning = {n: (h, e) for n, (h, e) in agg.items() if e > h}
    if agg:
        detail = ", ".join(f"{n} hits={h} evictions={e}"
                           for n, (h, e) in sorted(agg.items()))
        if churning:
            detail += ("; evictions exceed hits: "
                       + ", ".join(sorted(churning))
                       + " — worker cache limit too small "
                       "(REPRO_WORKER_CACHE_LIMIT)")
        checks.append(Check("worker cache churn", not churning, detail,
                            gating=False))

    # byte pressure: gauges pass through the diff from the *latest*
    # snapshot, so the last record that touched a cache carries its
    # current resident bytes. A budgeted cache (byte_limit > 0) sitting
    # over its budget means eviction is broken — that gates. An
    # unbudgeted cache holding a lot of memory only warns: it may be
    # legitimate, but it is exactly where unbounded growth hides.
    latest_bytes: dict[str, tuple[int, int]] = {}
    for rec in records:
        for name, delta in rec.caches.items():
            if name in _AGGREGATED_CACHES:
                continue
            latest_bytes[name] = (delta.get("size_bytes", 0),
                                  delta.get("byte_limit", -1))
    if latest_bytes:
        over = {n: (b, lim) for n, (b, lim) in latest_bytes.items()
                if lim > 0 and b > lim}
        fat = {n: b for n, (b, lim) in latest_bytes.items()
               if lim <= 0 and b > UNBUDGETED_BYTES_WARN}
        budgeted = sum(1 for _b, lim in latest_bytes.values() if lim > 0)
        detail = (f"{len(latest_bytes)} cache(s), {budgeted} byte-budgeted")
        if over:
            detail += ("; OVER BUDGET: "
                       + ", ".join(f"{n} ({b >> 10} KiB > {lim >> 10} KiB)"
                                   for n, (b, lim) in sorted(over.items())))
        if fat:
            detail += ("; unbudgeted growth: "
                       + ", ".join(f"{n} ({b >> 20} MiB)"
                                   for n, b in sorted(fat.items())))
        # over-budget gates; unbudgeted growth alone is a warning
        checks.append(Check("cache byte pressure", not (over or fat),
                            detail, gating=bool(over)))

    # a trip is correctness-preserving (the guard stores raw) and small
    # incompressible segments legitimately mispredict now and then, so
    # this warns rather than failing --check
    trips = _counter_total(records, "lossless.never_expand")
    checks.append(Check(
        "never-expand guard", trips == 0,
        f"{trips:g} segment backend misprediction(s) stored raw"
        if trips else "no trips", gating=False))

    floor = _counter_total(records, "runtime.serial_fallback.size_floor")
    spawn = _counter_total(records, "runtime.serial_fallback.spawn_failure")
    checks.append(Check(
        "serial fallbacks (size floor)", True,
        f"{floor:g} pooled request(s) below the IPC break-even floor",
        gating=False))
    checks.append(Check(
        "serial fallbacks (pool spawn)", spawn == 0,
        f"{spawn:g} pooled request(s) degraded because worker processes "
        f"could not be spawned or shared memory is unavailable"
        if spawn else "none"))
    crash = _counter_total(records, "runtime.serial_fallback.worker_crash")
    checks.append(Check(
        "serial fallbacks (worker crash)", crash == 0,
        f"{crash:g} pooled request(s) degraded because a shm daemon "
        f"worker died mid-request" if crash else "none"))

    audited = [r for r in records if "quality" in r.attrs]
    violations = sum(int(r.attrs["quality"].get("eb_exceeded", 0))
                     for r in audited)
    if audited:
        checks.append(Check(
            "quality audits", violations == 0,
            f"{len(audited)} audited run(s), {violations} sampled "
            f"error-bound violation(s)"))
    else:
        checks.append(Check("quality audits", True,
                            "no audited runs in ledger", gating=False))

    workers = [r for r in records if r.worker.get("tasks")]
    if workers:
        peak = max(r.worker.get("peak_rss_kb", 0) for r in workers)
        checks.append(Check(
            "worker memory merge", peak > 0,
            f"{len(workers)} pooled run(s), worker peak RSS "
            f"{peak / 1024:.1f} MiB", gating=False))

    compress = [r for r in records if r.kind == "compress"]
    _budget_check(checks, "compress ratio floor",
                  f"under {RATIO_FLOOR:g}x",
                  [r.ratio for r in compress if r.ratio > 0],
                  lambda ratio: ratio < RATIO_FLOOR)
    _budget_check(checks, "compress wall ceiling",
                  f"over {WALL_CEILING_S:g} s",
                  [r.wall_s for r in compress],
                  lambda wall: wall > WALL_CEILING_S)

    if analytics and records:
        _analytics_checks(records, checks)
    return diag
