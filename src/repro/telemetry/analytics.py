"""Incremental ledger analytics: baselines, anomalies, drift attribution.

The flight recorder (:mod:`repro.telemetry.recorder`) captures what every
run looked like. cuSZ-i's quality/ratio tradeoff varies strongly per
field, so "is this run normal" can only be answered against runs of the
**same field class under the same configuration**. This module
maintains exactly those references, and :data:`REGRESSION_THRESHOLD` is
the one definition of "how much relative regression is real" that
``repro doctor --check`` judges by (``repro analyze`` reports the same
findings without a verdict):

**Fingerprint-keyed baselines.**
    Records group into cohorts keyed by ``{kind, field fingerprint,
    codec, error-bound decade, transport}`` — the sampled content
    fingerprint comes from the autotune profiling kernel
    (:func:`repro.core.ginterp.autotune.field_fingerprint`) and travels
    in ``attrs["fingerprint"]``. Per cohort and per metric (wall, each
    stage wall, compression ratio, throughput, cache hit ratio, and the
    quality auditor's PSNR / max-error-vs-eb) a :class:`MetricBaseline`
    keeps a bounded window, kept sorted as it slides, with a lazily
    refreshed median/MAD pair plus an EWMA.

**Append-time anomaly scoring.**
    :meth:`AnalyticsEngine.observe` scores each new record against the
    cohort baselines *before* folding it in: a robust z-score
    ``(x - median) / (1.4826 * MAD)`` past :data:`Z_THRESHOLD` in the
    degrading direction (and at least :data:`REL_FLOOR` away in relative
    terms, so near-constant series cannot alarm on noise) flags an
    :class:`Anomaly`.

**Change-point detection with stage attribution.**
    :meth:`AnalyticsEngine.change_points` scans each cohort's run
    sequence for the split that maximizes the median shift in pooled-MAD
    units; a significant, direction-aware shift past
    :data:`REGRESSION_THRESHOLD` becomes a :class:`ChangePoint` carrying
    *since which run* (``since_seq`` / ``since_trace_id``). Wall-time change
    points are **attributed**: the per-stage before/after medians name
    which stage (ginterp predict, huffman, lossless, transport, ...)
    moved and what share of the wall shift it explains. Only
    degradations are reported — a cold-start that warms up is not a
    regression.

**Measured vs modelled stage shares.**
    :func:`model_deviation` folds each ``compress``/``decompress``
    record's stages into the GPU perf model's stage vocabulary
    (:data:`MEASURED_STAGES`, :data:`MODEL_STAGES`) and flags records
    whose relative stage cost skews more than :data:`SKEW_THRESHOLD`
    from the modelled kernel shares of
    :func:`repro.gpu.perfmodel.estimate_throughput`.

Surfaces: ``repro analyze`` (text / ``--json``, next to the per-group
percentiles of :func:`repro.telemetry.recorder.aggregate`) and the
gating doctor checks, both over a finished ledger. See
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.gpu.device import DEVICES
from repro.gpu.perfmodel import estimate_throughput
from repro.telemetry.recorder import RunRecord

__all__ = ["AnalyticsEngine", "MetricBaseline", "Anomaly", "RunScore",
           "ChangePoint", "cohort_key", "cohort_label", "record_metrics",
           "analyze", "model_deviation", "format_report",
           "REPORT_SCHEMA", "DEFAULT_WINDOW", "REGRESSION_THRESHOLD",
           "MEASURED_STAGES", "MODEL_STAGES", "COMPRESSED_ATTR",
           "SKEW_THRESHOLD",
           "MIN_BASELINE", "Z_THRESHOLD", "REL_FLOOR", "EWMA_ALPHA",
           "MIN_SEGMENT", "MAD_SCALE"]

#: report format version
REPORT_SCHEMA = 1

#: relative shift in the degrading direction that counts as a regression
REGRESSION_THRESHOLD = 0.25

#: per-(cohort, metric) rolling window backing the median/MAD baseline
DEFAULT_WINDOW = 128

#: observations a baseline needs before it scores newcomers
MIN_BASELINE = 8

#: EWMA smoothing factor (recent-run weight)
EWMA_ALPHA = 0.2

#: robust z-score magnitude that flags an anomaly
Z_THRESHOLD = 3.5

#: minimum relative deviation for an anomaly — a tight MAD on a
#: near-constant series must not turn measurement noise into alarms
REL_FLOOR = 0.10

#: consistency constant: 1.4826 * MAD estimates sigma for a normal dist.
MAD_SCALE = 1.4826

#: runs on each side a change-point split must keep
MIN_SEGMENT = 5

#: median-shift size (in pooled-MAD sigmas) for a significant change point
SHIFT_SIGMA = 3.0

#: flagged anomalies an engine retains (oldest dropped first)
_ANOMALY_KEEP = 256

#: metrics where *larger* is a degradation; everything else measured
#: here (ratio, throughput, cache hit ratio, PSNR) degrades downward
_HIGHER_IS_WORSE_PREFIXES = ("wall_s", "stage.", "quality.max_err_rel",
                             "quality.outlier_rate")

#: change-point kinds per metric family (metrics not listed here are
#: scored per-run but not sequence-scanned)
_DRIFT_KINDS = {
    "wall_s": "latency_regression",
    "quality.psnr_db": "quality_drift",
    "quality.max_err_rel": "quality_drift",
    "ratio": "ratio_drift",
}


def _higher_is_worse(metric: str) -> bool:
    return metric.startswith(_HIGHER_IS_WORSE_PREFIXES)


# -- cohort keying -----------------------------------------------------------

def _eb_bucket(rec: RunRecord) -> str:
    """The error-bound decade, e.g. ``e-3`` for abs_eb 1.2e-3.

    Bucketing by decade keeps cohorts stable under the tiny abs-eb
    variations a value-range-relative bound produces across snapshots of
    the same field, while still separating genuinely different bounds
    (whose ratio/quality character differs by construction).
    """
    eb = rec.attrs.get("abs_eb") or rec.attrs.get("eb")
    try:
        eb = float(eb)
    except (TypeError, ValueError):
        return "-"
    if not eb or eb <= 0 or not math.isfinite(eb):
        return "-"
    return f"e{int(math.floor(math.log10(eb)))}"


def cohort_key(rec: RunRecord) -> tuple[str, str, str, str, str]:
    """``(kind, fingerprint, codec, eb-bucket, transport)`` for a record.

    Records without a content fingerprint — decompress runs (the blob
    does not carry one) and ledger lines older than the fingerprint —
    fall back to a shape signature (``64x64x64``) so fields of different
    sizes never share a baseline; with neither, the ``-`` cohort.
    Tolerated, not rejected.

    A run that executed inside a pool worker (the parent stamps
    ``worker_pid`` when it merges the record) is transport ``worker``:
    workers run side by side with cold caches, so their slab runs must
    not share a baseline with the parent's serial runs of the same shape.
    """
    fp = rec.attrs.get("fingerprint")
    if not fp:
        shape = rec.attrs.get("shape")
        try:
            fp = "x".join(str(int(n)) for n in shape) if shape else "-"
        except (TypeError, ValueError):
            fp = "-"
    transport = rec.attrs.get("transport") or (
        "worker" if "worker_pid" in rec.attrs else "serial")
    return (rec.kind, str(fp), rec.codec or "-", _eb_bucket(rec),
            str(transport))


def cohort_label(key: tuple[str, str, str, str, str]) -> str:
    """Human/Prometheus-stable rendering of a cohort key."""
    return "|".join(key)


# -- per-record metric extraction -------------------------------------------

def record_metrics(rec: RunRecord) -> dict[str, float]:
    """The scored metrics of one record (only those it actually has)."""
    out: dict[str, float] = {}
    if rec.wall_s > 0:
        out["wall_s"] = rec.wall_s
    for stage, sec in rec.stages.items():
        if sec > 0:
            out[f"stage.{stage}"] = float(sec)
    ratio = rec.ratio
    if ratio > 0:
        out["ratio"] = ratio
    thr = rec.throughput_mb_s
    if thr > 0:
        out["throughput_mb_s"] = thr
    hits = sum(d.get("hits", 0) for d in rec.caches.values())
    lookups = hits + sum(d.get("misses", 0) for d in rec.caches.values())
    if lookups:
        out["cache_hit_ratio"] = hits / lookups
    quality = rec.attrs.get("quality")
    if isinstance(quality, dict):
        psnr = quality.get("psnr_db")
        if isinstance(psnr, (int, float)) and math.isfinite(psnr):
            out["quality.psnr_db"] = float(psnr)
        abs_eb = quality.get("abs_eb")
        max_err = quality.get("max_abs_error")
        if isinstance(abs_eb, (int, float)) and abs_eb and \
                isinstance(max_err, (int, float)):
            out["quality.max_err_rel"] = float(max_err) / float(abs_eb)
        rate = quality.get("outlier_rate")
        if isinstance(rate, (int, float)) and rate > 0:
            out["quality.outlier_rate"] = float(rate)
    # a ledger read from disk may carry NaN, which has no place in the
    # sorted baseline window
    return {k: v for k, v in out.items() if not math.isnan(v)}


# -- baselines ---------------------------------------------------------------

def _sorted_median(s: list[float]) -> float:
    """Median of an ascending list, as :func:`numpy.median` computes it
    (the mean of the two middle values for an even length)."""
    h = len(s) // 2
    return s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2


class MetricBaseline:
    """Rolling robust baseline of one metric within one cohort.

    Keeps a bounded window (arrival order, for eviction) beside the same
    values sorted (``bisect`` insert and remove), an incrementally
    updated EWMA, and a median/MAD pair refreshed lazily (every append
    while the window is small, then every few appends). Both statistics
    read the sorted window, with the values :func:`numpy.median` gives.
    """

    __slots__ = ("values", "_sorted", "ewma", "count", "_median", "_mad",
                 "_dirty")

    def __init__(self, window: int = DEFAULT_WINDOW):
        self.values: deque[float] = deque(maxlen=window)
        self._sorted: list[float] = []
        self.ewma: float | None = None
        self.count = 0
        self._median = 0.0
        self._mad = 0.0
        self._dirty = 0

    @property
    def n(self) -> int:
        return len(self.values)

    def _refresh(self) -> None:
        s = self._sorted
        m = _sorted_median(s)
        # |x - m| as two ascending runs (negation is exact), which one
        # timsort merge orders
        h = bisect_left(s, m)
        self._median = m
        self._mad = _sorted_median(sorted([m - v for v in reversed(s[:h])]
                                          + [v - m for v in s[h:]]))
        self._dirty = 0

    @property
    def median(self) -> float:
        if self._dirty and (self.n < 32 or self._dirty >= 8):
            self._refresh()
        return self._median

    @property
    def mad(self) -> float:
        self.median   # noqa: B018 - triggers the lazy refresh
        return self._mad

    def sigma(self) -> float:
        """Robust scale with a floor: MAD-sigma, but never below 1% of
        the median's magnitude (a near-constant window must not make
        every jitter a 100-sigma event)."""
        return max(MAD_SCALE * self.mad, abs(self.median) * 0.01, 1e-12)

    def score(self, x: float) -> float:
        """Robust z-score of ``x`` against the current baseline."""
        return (x - self.median) / self.sigma()

    def update(self, x: float) -> None:
        x = float(x)
        if len(self.values) == self.values.maxlen:
            s = self._sorted
            del s[bisect_left(s, self.values[0])]
        self.values.append(x)
        insort(self._sorted, x)
        self.count += 1
        self._dirty += 1
        self.ewma = x if self.ewma is None \
            else EWMA_ALPHA * x + (1.0 - EWMA_ALPHA) * self.ewma

    def to_dict(self) -> dict:
        return {"n": self.n, "count": self.count, "median": self.median,
                "mad": self.mad, "ewma": self.ewma}


# -- findings ----------------------------------------------------------------

@dataclass
class Anomaly:
    """One metric of one run scored far outside its cohort baseline."""

    cohort: str
    metric: str
    value: float
    baseline_median: float
    z: float
    rel: float                     # relative deviation from the median
    seq: int
    trace_id: str | None
    ts: float

    def to_dict(self) -> dict:
        return {"cohort": self.cohort, "metric": self.metric,
                "value": self.value,
                "baseline_median": self.baseline_median,
                "z": self.z, "rel": self.rel, "seq": self.seq,
                "trace_id": self.trace_id, "ts": self.ts}

    def format(self) -> str:
        return (f"{self.cohort} {self.metric}: {self.value:.4g} vs "
                f"median {self.baseline_median:.4g} "
                f"(z={self.z:+.1f}, {self.rel:+.0%}) seq={self.seq}")


@dataclass
class RunScore:
    """Outcome of scoring one record at append time."""

    seq: int
    cohort: str
    n_scored: int                  # metrics that had a mature baseline
    anomalies: list = field(default_factory=list)

    @property
    def anomalous(self) -> bool:
        return bool(self.anomalies)


@dataclass
class ChangePoint:
    """A sustained level shift in one cohort metric, with provenance."""

    cohort: str
    metric: str
    kind: str                      # latency_regression / quality_drift /
                                   # ratio_drift
    since_seq: int
    since_trace_id: str | None
    before: float                  # segment medians around the split
    after: float
    rel: float                     # (after - before) / |before|
    shift_sigma: float             # shift size in pooled-MAD sigmas
    stage: str | None = None       # attributed stage (wall_s only)
    stage_share: float | None = None   # share of the wall shift explained
    stage_before: float | None = None
    stage_after: float | None = None

    def to_dict(self) -> dict:
        out = {"cohort": self.cohort, "metric": self.metric,
               "kind": self.kind, "since_seq": self.since_seq,
               "since_trace_id": self.since_trace_id,
               "before": self.before, "after": self.after,
               "rel": self.rel, "shift_sigma": self.shift_sigma}
        if self.stage is not None:
            out.update(stage=self.stage, stage_share=self.stage_share,
                       stage_before=self.stage_before,
                       stage_after=self.stage_after)
        return out

    def format(self) -> str:
        line = (f"{self.kind}: {self.cohort} {self.metric} "
                f"{self.before:.4g} -> {self.after:.4g} "
                f"({self.rel:+.0%}, {self.shift_sigma:.1f} sigma) "
                f"since seq={self.since_seq}")
        if self.since_trace_id:
            line += f" trace={self.since_trace_id}"
        if self.stage is not None:
            line += (f"; attributed to stage '{self.stage}' "
                     f"({self.stage_before:.4g}s -> "
                     f"{self.stage_after:.4g}s, "
                     f"{self.stage_share:.0%} of the shift)")
        return line


# -- change-point scan -------------------------------------------------------

def _best_split(x: np.ndarray) -> tuple[int, float, float, float] | None:
    """The split maximizing the median shift in pooled-MAD sigmas.

    Returns ``(index, before_median, after_median, shift_sigma)`` or
    ``None`` when the series is too short. O(n * n log n) with n capped
    by the caller — fine for ledger-scale sequences.
    """
    n = x.size
    if n < 2 * MIN_SEGMENT:
        return None
    best = None
    for i in range(MIN_SEGMENT, n - MIN_SEGMENT + 1):
        left, right = x[:i], x[i:]
        m1 = float(np.median(left))
        m2 = float(np.median(right))
        dev = np.concatenate([np.abs(left - m1), np.abs(right - m2)])
        sigma = max(MAD_SCALE * float(np.median(dev)),
                    0.01 * max(abs(m1), abs(m2)), 1e-12)
        score = abs(m2 - m1) / sigma
        if best is None or score > best[3]:
            best = (i, m1, m2, score)
    return best


# -- the engine --------------------------------------------------------------

class AnalyticsEngine:
    """Incremental per-cohort baselines + anomaly scoring + drift scan.

    Thread-safe: :meth:`observe`, :meth:`report` and
    :meth:`change_points` may be called from different threads.
    """

    def __init__(self, *, window: int = DEFAULT_WINDOW):
        self._window = int(window)
        self._lock = threading.Lock()
        self._cohorts: dict[tuple, dict] = {}
        self._anomalies: deque[Anomaly] = deque(maxlen=_ANOMALY_KEEP)
        self._scored_runs = 0
        self._anomalous_runs = 0
        self._score_time_s = 0.0

    # -- scoring -----------------------------------------------------------

    def observe(self, rec: RunRecord) -> RunScore:
        """Score ``rec`` against its cohort, then fold it in."""
        t0 = time.perf_counter()
        metrics = record_metrics(rec)
        key = cohort_key(rec)
        label = cohort_label(key)
        anomalies: list[Anomaly] = []
        n_scored = 0
        with self._lock:
            entry = self._cohorts.get(key)
            if entry is None:
                entry = self._cohorts[key] = {
                    "baselines": {},
                    "history": deque(maxlen=2 * self._window),
                    "n": 0,
                }
            baselines = entry["baselines"]
            for metric, value in metrics.items():
                mb = baselines.get(metric)
                if mb is None:
                    mb = baselines[metric] = MetricBaseline(self._window)
                elif mb.n >= MIN_BASELINE:
                    n_scored += 1
                    z = mb.score(value)
                    rel = (value - mb.median) / abs(mb.median) \
                        if mb.median else 0.0
                    degrading = z > 0 if _higher_is_worse(metric) \
                        else z < 0
                    if abs(z) >= Z_THRESHOLD and degrading \
                            and abs(rel) >= REL_FLOOR:
                        anomalies.append(Anomaly(
                            cohort=label, metric=metric, value=value,
                            baseline_median=mb.median, z=z, rel=rel,
                            seq=rec.seq, trace_id=rec.trace_id,
                            ts=rec.ts))
                mb.update(value)
            entry["history"].append(
                (rec.seq, rec.trace_id, metrics))
            entry["n"] += 1
            self._scored_runs += 1
            if anomalies:
                self._anomalous_runs += 1
                self._anomalies.extend(anomalies)
            self._score_time_s += time.perf_counter() - t0
        return RunScore(seq=rec.seq, cohort=label, n_scored=n_scored,
                        anomalies=anomalies)

    def anomalies(self) -> list[Anomaly]:
        with self._lock:
            return list(self._anomalies)

    def overhead(self) -> dict:
        """Append-time scoring cost accounting."""
        with self._lock:
            mean_us = (1e6 * self._score_time_s / self._scored_runs
                       if self._scored_runs else 0.0)
            return {"scored_runs": self._scored_runs,
                    "score_total_s": self._score_time_s,
                    "score_mean_us": mean_us}

    # -- drift scan --------------------------------------------------------

    def change_points(self) -> list[ChangePoint]:
        """Scan every cohort's run sequence for sustained regressions."""
        with self._lock:
            snapshot = [(key, list(entry["history"]))
                        for key, entry in self._cohorts.items()]
        out: list[ChangePoint] = []
        for key, history in snapshot:
            if len(history) < 2 * MIN_SEGMENT:
                continue
            label = cohort_label(key)
            for metric, kind in _DRIFT_KINDS.items():
                cp = self._scan_metric(label, metric, kind, history)
                if cp is not None:
                    out.append(cp)
        return out

    def _scan_metric(self, label: str, metric: str, kind: str,
                     history: list) -> ChangePoint | None:
        idx = [i for i, (_s, _t, m) in enumerate(history) if metric in m]
        if len(idx) < 2 * MIN_SEGMENT:
            return None
        x = np.array([history[i][2][metric] for i in idx],
                     dtype=np.float64)
        best = _best_split(x)
        if best is None:
            return None
        split, before, after, shift_sigma = best
        rel = (after - before) / abs(before) if before else 0.0
        worse = rel > 0 if _higher_is_worse(metric) else rel < 0
        if shift_sigma < SHIFT_SIGMA or not worse \
                or abs(rel) < REGRESSION_THRESHOLD:
            return None
        since = history[idx[split]]
        cp = ChangePoint(cohort=label, metric=metric, kind=kind,
                         since_seq=since[0], since_trace_id=since[1],
                         before=before, after=after, rel=rel,
                         shift_sigma=shift_sigma)
        if metric == "wall_s":
            self._attribute(cp, history, idx, split)
        return cp

    @staticmethod
    def _attribute(cp: ChangePoint, history: list, idx: list[int],
                   split: int) -> None:
        """Name the stage that explains a wall-time change point.

        Per-stage before/after medians over the same (aligned) runs the
        wall split used; the stage with the largest positive median
        delta is the mover, its share the fraction of the wall shift it
        explains.
        """
        stages: set[str] = set()
        for i in idx:
            stages.update(k for k in history[i][2]
                          if k.startswith("stage."))
        wall_delta = cp.after - cp.before
        best_stage = None
        for stage in sorted(stages):
            series = np.array([history[i][2].get(stage, np.nan)
                               for i in idx], dtype=np.float64)
            before = series[:split]
            after = series[split:]
            if np.all(np.isnan(before)) or np.all(np.isnan(after)):
                continue
            m1 = float(np.nanmedian(before))
            m2 = float(np.nanmedian(after))
            delta = m2 - m1
            if best_stage is None or delta > best_stage[1]:
                best_stage = (stage, delta, m1, m2)
        if best_stage is None or best_stage[1] <= 0:
            return
        name, delta, m1, m2 = best_stage
        cp.stage = name[len("stage."):]
        cp.stage_share = delta / wall_delta if wall_delta else 0.0
        cp.stage_before = m1
        cp.stage_after = m2

    # -- reporting ---------------------------------------------------------

    def baselines(self) -> dict[str, dict[str, dict]]:
        """``{cohort label: {metric: baseline summary}}`` snapshot."""
        with self._lock:
            return {cohort_label(key): {metric: mb.to_dict()
                                        for metric, mb
                                        in entry["baselines"].items()}
                    for key, entry in self._cohorts.items()}

    def report(self) -> dict:
        """The full analytics report over everything observed so far."""
        change_points = self.change_points()
        with self._lock:
            cohorts = {}
            for key, entry in self._cohorts.items():
                label = cohort_label(key)
                cohorts[label] = {
                    "n": entry["n"],
                    "key": {"kind": key[0], "fingerprint": key[1],
                            "codec": key[2], "eb_bucket": key[3],
                            "transport": key[4]},
                    "baselines": {m: mb.to_dict() for m, mb
                                  in entry["baselines"].items()},
                }
            anomalies = [a.to_dict() for a in self._anomalies]
            n_records = self._scored_runs
            anomalous = self._anomalous_runs
        kinds = {"latency_regression": 0, "quality_drift": 0,
                 "ratio_drift": 0}
        for cp in change_points:
            kinds[cp.kind] = kinds.get(cp.kind, 0) + 1
        verdict = {
            "anomalous_runs": anomalous,
            "latency_regressions": kinds["latency_regression"],
            "quality_drifts": kinds["quality_drift"],
            "ratio_drifts": kinds["ratio_drift"],
            "healthy": not (kinds["latency_regression"]
                            or kinds["quality_drift"]),
        }
        return {"schema": REPORT_SCHEMA,
                "n_records": n_records,
                "n_cohorts": len(cohorts),
                "cohorts": cohorts,
                "anomalies": anomalies,
                "change_points": [cp.to_dict() for cp in change_points],
                "verdict": verdict,
                "overhead": self.overhead()}


# -- one-shot analysis (CLI / doctor) ----------------------------------------

def analyze(records: list[RunRecord]) -> dict:
    """Run the engine over a finished ledger and return its report."""
    engine = AnalyticsEngine()
    for rec in records:
        engine.observe(rec)
    return engine.report()


# -- measured vs modelled stage shares (repro analyze) -----------------------

#: measured record stages folded into each GPU-model stage, per direction.
#: The GPU fuses quantization into the prediction kernel, so the
#: ``tune``/``predict``/``quantize`` stages all map onto ``predict``.
MEASURED_STAGES = {
    "compress": {
        "predict": ("tune", "predict", "quantize"),
        "huffman": ("huffman",),
        "lossless": ("lossless",),
    },
    "decompress": {
        "predict": ("predict",),
        "huffman": ("huffman",),
        "lossless": ("lossless",),
    },
}

#: run attribute holding the compressed size, per direction
COMPRESSED_ATTR = {"compress": "bytes_out", "decompress": "bytes_in"}

#: modelled kernel names folded into each stage, per (codec, direction)
MODEL_STAGES = {
    ("cuszi", "compress"): {
        "predict": ("profile-autotune", "ginterp-predict-quant"),
        "huffman": ("histogram", "huffman-encode"),
        "lossless": ("gle-deredundancy",),
    },
    ("cuszi", "decompress"): {
        "predict": ("ginterp-reconstruct",),
        "huffman": ("huffman-decode",),
        "lossless": ("gle-deredundancy",),
    },
}

#: measured share / modelled share (either way round) that flags a stage
SKEW_THRESHOLD = 5.0


def _record_deviation(rec: RunRecord, device: str) -> dict | None:
    """One pipeline record's stage shares against the GPU perf model.

    Returns ``{stage: {"measured_share", "modelled_share", "skew"}}``
    (``skew`` = measured share / modelled share), or ``None`` when the
    record cannot be modelled (unknown codec/direction, missing
    attributes). Absolute times are incomparable (NumPy on a CPU vs a
    roofline model of a GPU); relative stage shares are the comparable
    quantity. A stage the model does not price (the passthrough
    ``lossless`` stage of a ``lossless="none"`` run) has no share to
    compare against: it is left out of the result and of the measured
    total, so every skew is finite.
    """
    stage_names = MODEL_STAGES.get((rec.codec, rec.kind))
    if stage_names is None:
        return None
    n_elements = rec.attrs.get("n_elements")
    compressed = rec.attrs.get(COMPRESSED_ATTR[rec.kind])
    if not n_elements or not compressed:
        return None
    # the perf model only knows the paper's GLE pass; the orchestrator
    # ("auto") is GLE-dominated so it borrows that model, while other
    # outer codecs (zlib) are modelled as absent
    lossless = str(rec.attrs.get("lossless", "none"))
    model_lossless = "gle" if lossless in ("gle", "auto") else "none"
    timing = estimate_throughput(rec.codec, rec.kind, int(n_elements),
                                 int(compressed), DEVICES[device],
                                 model_lossless)
    kernel_s = dict(timing.kernels)
    modelled = {stage: sum(kernel_s.get(n, 0.0) for n in names)
                for stage, names in stage_names.items()}
    modelled = {stage: s for stage, s in modelled.items() if s > 0}
    measured = {stage: sum(rec.stages.get(n, 0.0) for n in names)
                for stage, names in MEASURED_STAGES[rec.kind].items()
                if stage in modelled}
    m_total = sum(measured.values())
    mod_total = sum(modelled.values())
    if not m_total or not mod_total:
        return None
    stages = {}
    for stage, mod_s in modelled.items():
        ms = measured[stage] / m_total
        os_ = mod_s / mod_total
        stages[stage] = {"measured_share": ms, "modelled_share": os_,
                         "skew": ms / os_}
    return stages


def _skew_factor(skew: float) -> float:
    """How many times off a skew is, either way round (an unmeasured
    stage, skew 0, counts as on the model)."""
    return max(skew, 1.0 / skew) if skew else 1.0


def model_deviation(records: list[RunRecord], device: str = "a100") -> dict:
    """Pipeline records whose measured stage shares skew more than
    :data:`SKEW_THRESHOLD` from the perf model's kernel shares on
    ``device``: ``{"device", "checked", "flagged"}``, each flagged entry
    naming the record and its worst stage."""
    flagged = []
    checked = 0
    for rec in records:
        stages = _record_deviation(rec, device)
        if stages is None:
            continue
        checked += 1
        stage, worst = max(stages.items(),
                           key=lambda kv: _skew_factor(kv[1]["skew"]))
        if _skew_factor(worst["skew"]) > SKEW_THRESHOLD:
            flagged.append({"kind": rec.kind, "codec": rec.codec,
                            "seq": rec.seq, "stage": stage,
                            "skew": worst["skew"]})
    return {"device": device, "checked": checked, "flagged": flagged}


# -- text rendering (repro analyze) ------------------------------------------

def format_report(report: dict) -> str:
    """Human-readable rendering of an :func:`analyze` report."""
    verdict = report.get("verdict", {})
    lines = [f"analytics: {report.get('n_records', 0)} run(s) across "
             f"{report.get('n_cohorts', 0)} cohort(s)"]
    for label, entry in sorted(report.get("cohorts", {}).items()):
        lines.append(f"  cohort {label}: n={entry.get('n', 0)}")
        for metric, mb in sorted(entry.get("baselines", {}).items()):
            ewma = mb.get("ewma")
            lines.append(
                f"    {metric:<20} median {mb.get('median', 0):.5g} "
                f"mad {mb.get('mad', 0):.3g} "
                f"ewma {ewma if ewma is None else round(ewma, 6)}")
    anomalies = report.get("anomalies", [])
    if anomalies:
        lines.append(f"anomalies ({len(anomalies)}):")
        for a in anomalies[-20:]:
            lines.append(
                f"  {a.get('cohort')} {a.get('metric')}: "
                f"{a.get('value', 0):.4g} vs median "
                f"{a.get('baseline_median', 0):.4g} "
                f"(z={a.get('z', 0):+.1f}) seq={a.get('seq')}")
    else:
        lines.append("anomalies: none")
    change_points = report.get("change_points", [])
    if change_points:
        lines.append(f"change points ({len(change_points)}):")
        for cp in change_points:
            line = (f"  {cp.get('kind')}: {cp.get('cohort')} "
                    f"{cp.get('metric')} {cp.get('before', 0):.4g} -> "
                    f"{cp.get('after', 0):.4g} ({cp.get('rel', 0):+.0%})"
                    f" since seq={cp.get('since_seq')}")
            if cp.get("stage"):
                line += (f" [stage '{cp['stage']}' explains "
                         f"{cp.get('stage_share') or 0:.0%}]")
            lines.append(line)
    else:
        lines.append("change points: none")
    lines.append("verdict: " + ("healthy" if verdict.get("healthy", True)
                                else "regressed")
                 + f" (anomalous_runs={verdict.get('anomalous_runs', 0)}"
                 f" latency_regressions="
                 f"{verdict.get('latency_regressions', 0)}"
                 f" quality_drifts={verdict.get('quality_drifts', 0)}"
                 f" ratio_drifts={verdict.get('ratio_drifts', 0)})")
    return "\n".join(lines)
