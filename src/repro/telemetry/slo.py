"""Declarative SLOs with error budgets over the run ledger.

The flight recorder gives every run one :class:`RunRecord`; the doctor
checks *structure* (states that are wrong on any machine). What neither
answers is the service question — "are we meeting the objectives we
promised, and how fast are we spending the slack?" — which is what this
module adds, in the Google-SRE error-budget formulation:

* an :class:`SLOSpec` declares an objective over a sliding window of
  matching ledger records: a latency target ("p99 compress wall under
  500 ms" expressed as "at most ``budget`` of runs may exceed
  ``target``"), a compression-ratio floor, a run-error rate, or sampled
  quality-audit error-bound violations;
* :func:`evaluate` measures each spec over a record list and returns an
  :class:`SLOStatus` carrying the compliance ratio, the fraction of the
  error budget consumed, and the **burn rate** — the violation rate of
  the most recent slice of the window divided by the budgeted rate, so
  ``1.0`` means "spending exactly the budget", ``>1`` means "on pace to
  exhaust it", and a sudden regression shows up here long before the
  whole window degrades;
* :func:`format_statuses` renders the statuses for ``repro stats`` /
  ``repro doctor``, and :func:`repro.telemetry.doctor.diagnose` turns an
  exhausted budget into a gating anomaly, which makes
  ``repro doctor --check --slo objectives.json`` a CI/deploy gate.

The p-quantile phrasing and the per-record violation phrasing are the
same thing: "p99 latency <= target" holds exactly when at most 1% of
runs exceed the target, i.e. ``budget = 0.01``. Working per-record keeps
the math exact on small windows and makes the budget arithmetic trivial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.telemetry.recorder import RunRecord

__all__ = ["SLOSpec", "SLOStatus", "OBJECTIVES", "DEFAULT_WINDOW",
           "DEFAULT_SLOS", "evaluate", "parse_slos", "load_slos",
           "format_statuses"]

#: ledger records considered per objective when the spec does not say
DEFAULT_WINDOW = 500

#: supported objective kinds -> one-line meaning of ``target``
OBJECTIVES = {
    "latency": "seconds the (stage or wall) time must stay under",
    "ratio": "compression-ratio floor the run must stay above",
    "errors": "runs must finish without error (target unused)",
    "quality": "sampled eb violations must be zero (target unused)",
}


@dataclass(frozen=True)
class SLOSpec:
    """One declared objective over a window of run records."""

    name: str
    objective: str              # one of :data:`OBJECTIVES`
    target: float = 0.0
    budget: float = 0.01        # allowed violating fraction of the window
    kind: str = "*"             # record-kind filter; trailing * = prefix
    codec: str | None = None    # optional codec filter
    stage: str | None = None    # latency: a stage name instead of wall
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown SLO objective "
                             f"{self.objective!r}; "
                             f"use one of {sorted(OBJECTIVES)}")
        if not (0.0 < self.budget <= 1.0):
            raise ValueError(f"SLO budget must be in (0, 1], got "
                             f"{self.budget}")
        if self.window < 1:
            raise ValueError(f"SLO window must be >= 1, got "
                             f"{self.window}")
        if self.objective in ("latency", "ratio") and self.target <= 0:
            raise ValueError(f"SLO {self.name!r}: {self.objective} "
                             f"objective needs a positive target")

    def matches(self, rec: RunRecord) -> bool:
        if self.codec is not None and rec.codec != self.codec:
            return False
        if self.kind == "*":
            return True
        if self.kind.endswith("*"):
            return rec.kind.startswith(self.kind[:-1])
        return rec.kind == self.kind

    def observe(self, rec: RunRecord) -> tuple[bool, float] | None:
        """``(violated, observed_value)`` for one record, or ``None``
        when the record carries nothing this objective can judge."""
        if self.objective == "latency":
            if self.stage is not None:
                val = rec.stages.get(self.stage)
                if val is None:
                    return None
            else:
                val = rec.wall_s
            return val > self.target, float(val)
        if self.objective == "ratio":
            ratio = rec.ratio
            if ratio <= 0:
                return None
            return ratio < self.target, float(ratio)
        if self.objective == "errors":
            return rec.status != "ok", 0.0 if rec.status == "ok" else 1.0
        # quality: judged only on audited runs
        q = rec.attrs.get("quality")
        if not isinstance(q, dict):
            return None
        bad = float(q.get("eb_exceeded", 0) or 0)
        return bad > 0, bad

    def to_dict(self) -> dict:
        return {"name": self.name, "objective": self.objective,
                "target": self.target, "budget": self.budget,
                "kind": self.kind, "codec": self.codec,
                "stage": self.stage, "window": self.window}


@dataclass
class SLOStatus:
    """One spec measured over a record window."""

    spec: SLOSpec
    n: int                      # judgeable records in the window
    violations: int
    worst: float = 0.0          # worst observed value (max latency /
                                # min ratio / violation count)
    recent_n: int = 0
    recent_violations: int = 0
    details: dict = field(default_factory=dict)

    @property
    def compliance(self) -> float:
        """Fraction of judged runs meeting the objective (1.0 when no
        run could be judged — an empty window owes nothing)."""
        return 1.0 - self.violations / self.n if self.n else 1.0

    @property
    def budget_consumed(self) -> float:
        """Fraction of the error budget spent over the window; >= 1.0
        means the budget is exhausted."""
        if not self.n:
            return 0.0
        return (self.violations / self.n) / self.spec.budget

    @property
    def budget_remaining(self) -> float:
        return max(0.0, 1.0 - self.budget_consumed)

    @property
    def burn_rate(self) -> float:
        """Violation rate of the most recent window slice relative to
        the budgeted rate (1.0 = spending exactly the budget)."""
        if not self.recent_n:
            return 0.0
        return (self.recent_violations / self.recent_n) / self.spec.budget

    @property
    def exhausted(self) -> bool:
        return self.budget_consumed >= 1.0

    def to_dict(self) -> dict:
        return {"slo": self.spec.to_dict(), "n": self.n,
                "violations": self.violations, "worst": self.worst,
                "compliance": self.compliance,
                "budget_consumed": self.budget_consumed,
                "budget_remaining": self.budget_remaining,
                "burn_rate": self.burn_rate,
                "exhausted": self.exhausted}


#: objectives evaluated when no config is supplied: lenient guardrails
#: (every run must round-trip without error, audited runs must honor the
#: error bound, archives must not expand, nothing may take absurdly
#: long) rather than site-specific latency promises
DEFAULT_SLOS = (
    SLOSpec("run_errors", objective="errors", budget=0.001, kind="*"),
    SLOSpec("quality_eb_violations", objective="quality", budget=0.001,
            kind="compress"),
    SLOSpec("compress_ratio_floor", objective="ratio", target=1.0,
            budget=0.01, kind="compress"),
    SLOSpec("compress_wall_p99", objective="latency", target=60.0,
            budget=0.01, kind="compress"),
)


def evaluate(records: list[RunRecord],
             specs: tuple[SLOSpec, ...] | list[SLOSpec] | None = None,
             ) -> list[SLOStatus]:
    """Measure every spec (default :data:`DEFAULT_SLOS`) over records.

    The *recent* slice feeding the burn rate is the last eighth of each
    spec's window (at least one record): long enough to smooth noise,
    short enough that a fresh regression dominates it immediately.
    """
    specs = DEFAULT_SLOS if specs is None else tuple(specs)
    out = []
    for spec in specs:
        matched = [r for r in records if spec.matches(r)]
        matched = matched[-spec.window:]
        outcomes: list[tuple[bool, float]] = []
        for rec in matched:
            obs = spec.observe(rec)
            if obs is not None:
                outcomes.append(obs)
        n = len(outcomes)
        bad = sum(1 for violated, _ in outcomes if violated)
        if spec.objective == "ratio":
            worst = min((v for _, v in outcomes), default=0.0)
        else:
            worst = max((v for _, v in outcomes), default=0.0)
        recent = outcomes[-max(1, spec.window // 8):]
        out.append(SLOStatus(
            spec=spec, n=n, violations=bad, worst=worst,
            recent_n=len(recent),
            recent_violations=sum(1 for violated, _ in recent
                                  if violated)))
    return out


# -- configuration ----------------------------------------------------------

def parse_slos(doc: dict) -> tuple[SLOSpec, ...]:
    """Build specs from a config document: ``{"slos": [{...}, ...]}``.

    Each entry takes the :class:`SLOSpec` field names; ``name`` and
    ``objective`` are required, everything else defaults. Raises
    ``ValueError`` on malformed entries so a bad config fails loudly
    at boot, not silently at evaluation time.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("slos"), list):
        raise ValueError('SLO config must be {"slos": [...]}')
    specs = []
    for i, entry in enumerate(doc["slos"]):
        if not isinstance(entry, dict):
            raise ValueError(f"SLO entry {i} is not an object")
        unknown = set(entry) - {"name", "objective", "target", "budget",
                                "kind", "codec", "stage", "window"}
        if unknown:
            raise ValueError(f"SLO entry {i}: unknown field(s) "
                             f"{sorted(unknown)}")
        try:
            name = str(entry["name"])
            objective = str(entry["objective"])
        except KeyError as exc:
            raise ValueError(f"SLO entry {i} is missing {exc}")
        specs.append(SLOSpec(
            name=name, objective=objective,
            target=float(entry.get("target", 0.0)),
            budget=float(entry.get("budget", 0.01)),
            kind=str(entry.get("kind", "*")),
            codec=entry.get("codec"),
            stage=entry.get("stage"),
            window=int(entry.get("window", DEFAULT_WINDOW))))
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate SLO names in config: {names}")
    return tuple(specs)


def load_slos(path: str) -> tuple[SLOSpec, ...]:
    """Load an SLO config file (JSON; see :func:`parse_slos`)."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"SLO config {path!r} is not JSON: {exc}")
    return parse_slos(doc)


# -- rendering --------------------------------------------------------------

def format_statuses(statuses: list[SLOStatus]) -> list[str]:
    """Human-readable one-liners for ``repro stats`` / ``repro doctor``."""
    out = []
    for st in statuses:
        spec = st.spec
        mark = ("EXHAUSTED" if st.exhausted
                else "burning" if st.burn_rate > 1.0 else "ok")
        goal = {"latency": f"<= {spec.target:g}s"
                           + (f" [{spec.stage}]" if spec.stage else ""),
                "ratio": f">= {spec.target:g}x",
                "errors": "no errors",
                "quality": "no eb violations"}[spec.objective]
        out.append(
            f"[{mark:>9}] {spec.name}: {goal} for {spec.kind} "
            f"(budget {spec.budget:.2%}) — {st.violations}/{st.n} "
            f"violation(s), compliance {st.compliance:.2%}, "
            f"budget used {st.budget_consumed:.0%}, "
            f"burn {st.burn_rate:.2f}x")
    return out
