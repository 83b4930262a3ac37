"""Always-on flight recorder: bounded per-run records and the run ledger.

Span tracing (:mod:`repro.telemetry`) answers "what happened inside this
one run I chose to trace"; it is off by default and records nothing in
normal operation. The flight recorder answers the production question —
"what have the last N runs looked like" — and is therefore **on by
default**: every top-level pipeline run (``compress`` / ``decompress``),
every runtime batch (parallel slabs, field maps) and every archive
pack/unpack appends one compact :class:`RunRecord` to a bounded ring
buffer, even while span tracing is off.

The run capture is the one instrumentation call for runs and stages:
:func:`capture` also opens the run's root span while tracing is on, and
one timer reading per :meth:`RunCapture.stage` feeds both the record
stage and its span. Tracing with the recorder off (or
:func:`suppressed`) still yields the full span tree.

A record carries the codec, error bound, shape, byte volumes, wall time
split per top-level stage, worker count, per-run cache behaviour (hit /
miss / eviction deltas of every cache in
:mod:`repro.telemetry.caches`), peak-memory high-water marks (own
process plus merged worker processes), the lossless plan the
orchestrator chose, and — when the opt-in quality auditor ran — the
sampled error/entropy summary.

The ring persists on demand as a JSONL **run ledger**
(:func:`write_ledger` / :func:`read_ledger`) which ``repro stats`` and
``repro doctor`` aggregate: per-stage latency percentiles, compression-
ratio distributions, cache health, anomaly flags. See
``docs/OBSERVABILITY.md``.

Overhead discipline mirrors the span tracer: with both sinks off the
path is two flag checks returning a shared no-op capture (the unit
suite asserts sub-microsecond per append), and the recording path costs
two cache snapshots plus a handful of ``perf_counter`` reads per run:
about 0.09 ms with the caches full (measured on a 2-vCPU Xeon VM),
~1-2% of a small 4-9 ms call and under 0.5% of a 96^3 field. The
snapshots read each cache's running totals and walk no entries. Set
``REPRO_FLIGHT_RECORDER=0`` in the environment to start disabled.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import tracemalloc
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import telemetry
from repro.telemetry import caches

__all__ = ["RunRecord", "RunCapture", "capture", "current", "annotate",
           "count", "suppressed", "records", "clear", "set_capacity",
           "capacity", "enabled", "enable", "disable",
           "to_jsonl", "from_jsonl", "write_ledger", "read_ledger",
           "worker_baseline", "worker_aux", "aggregate", "model_deviation",
           "mint_id", "propagation_context", "trace_scope",
           "current_trace_id", "DEFAULT_CAPACITY", "LEDGER_SCHEMA"]

#: run records kept in the ring before the oldest is dropped
DEFAULT_CAPACITY = 1024

#: ledger line format version, stamped as ``"schema"`` on every line.
#: History: 1 = original ring dump, 2 = trace lineage fields (written as
#: the legacy ``"v"`` key), 3 = explicit ``schema`` stamp + the sampled
#: field fingerprint in ``attrs``. Readers accept unversioned /
#: ``"v"``-keyed lines (pre-schema-3 ledgers) and reject future majors.
LEDGER_SCHEMA = 3

#: worker-aux cache counters folded into the parent record
_WORKER_CACHE_KEYS = ("hits", "misses", "evictions")


def _peak_rss_kb() -> int:
    """Process peak resident set size in KiB (0 where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes
        peak //= 1024
    return int(peak)


@dataclass
class RunRecord:
    """One completed top-level run, as recorded in the ring / ledger."""

    seq: int
    kind: str                     # compress / decompress / runtime.* / ...
    ts: float                     # unix time at record close
    wall_s: float
    status: str = "ok"
    codec: str | None = None
    stages: dict = field(default_factory=dict)      # stage -> seconds
    attrs: dict = field(default_factory=dict)       # shape, eb, bytes ...
    caches: dict = field(default_factory=dict)      # cache -> delta dict
    counters: dict = field(default_factory=dict)
    memory: dict = field(default_factory=dict)      # peak_rss_kb, ...
    worker: dict = field(default_factory=dict)      # merged worker stats
    trace_id: str | None = None   # one id per end-to-end request tree
    run_id: str | None = None     # this record's own id within the trace
    parent_run_id: str | None = None

    @property
    def bytes_in(self) -> int:
        return int(self.attrs.get("bytes_in", 0) or 0)

    @property
    def bytes_out(self) -> int:
        return int(self.attrs.get("bytes_out", 0) or 0)

    @property
    def ratio(self) -> float:
        """Compression ratio (raw / compressed), direction-aware."""
        raw, comp = self.bytes_in, self.bytes_out
        if self.kind.startswith("decompress") or ".decompress" in self.kind \
                or self.kind.endswith((".load", ".unpack", ".read")):
            raw, comp = comp, raw
        return raw / comp if comp else 0.0

    @property
    def raw_bytes(self) -> int:
        """Uncompressed side of the run (throughput denominator)."""
        return max(self.bytes_in, self.bytes_out)

    @property
    def throughput_mb_s(self) -> float:
        return self.raw_bytes / self.wall_s / 1e6 if self.wall_s else 0.0

    @property
    def fingerprint(self) -> str | None:
        """The sampled field-content fingerprint, when the run carried
        one (``None`` tolerantly for pre-schema-3 ledger lines)."""
        fp = self.attrs.get("fingerprint")
        return str(fp) if fp else None

    def to_dict(self) -> dict:
        out = {"schema": LEDGER_SCHEMA, "seq": self.seq, "kind": self.kind,
               "ts": self.ts, "wall_s": self.wall_s,
               "status": self.status, "codec": self.codec,
               "stages": self.stages, "attrs": self.attrs,
               "caches": self.caches, "counters": self.counters,
               "memory": self.memory, "worker": self.worker}
        # trace lineage only when present: version-1 ledgers stay parseable
        # and records without lineage stay byte-compact
        if self.trace_id:
            out["trace_id"] = self.trace_id
        if self.run_id:
            out["run_id"] = self.run_id
        if self.parent_run_id:
            out["parent_run_id"] = self.parent_run_id
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "RunRecord":
        return cls(seq=int(obj.get("seq", 0)),
                   kind=str(obj.get("kind", "?")),
                   ts=float(obj.get("ts", 0.0)),
                   wall_s=float(obj.get("wall_s", 0.0)),
                   status=str(obj.get("status", "ok")),
                   codec=obj.get("codec"),
                   stages=dict(obj.get("stages", {})),
                   attrs=dict(obj.get("attrs", {})),
                   caches=dict(obj.get("caches", {})),
                   counters=dict(obj.get("counters", {})),
                   memory=dict(obj.get("memory", {})),
                   worker=dict(obj.get("worker", {})),
                   trace_id=obj.get("trace_id"),
                   run_id=obj.get("run_id"),
                   parent_run_id=obj.get("parent_run_id"))


# -- module state -----------------------------------------------------------

_enabled = os.environ.get("REPRO_FLIGHT_RECORDER", "1").lower() \
    not in ("0", "off", "false")
_lock = threading.Lock()
_ring: deque = deque(maxlen=DEFAULT_CAPACITY)
_seq = 0
_tls = threading.local()


def _reset_after_fork() -> None:
    """Start a forked child with a clean per-process recorder.

    A fork-started pool worker inherits the parent's memory image:
    captures open in the parent sit on the child's thread-local stack
    (they will never exit there, and would wrongly parent every worker
    capture) and the ring holds parent records the worker must not
    re-ship. Trace identity in a worker comes exclusively from the
    propagated payload context (:func:`trace_scope`), so everything
    inherited is dropped.
    """
    global _lock, _seq
    _lock = threading.Lock()      # parent may have held it mid-fork
    _ring.clear()
    _seq = 0
    _tls.stack = []
    _tls.trace_ctx = None
    _tls.suppress = 0


if hasattr(os, "register_at_fork"):   # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=_reset_after_fork)


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def enabled() -> bool:
    """Is the flight recorder currently on?"""
    return _enabled


def enable() -> None:
    """Turn the recorder on (it starts on unless REPRO_FLIGHT_RECORDER=0)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn the recorder off (the ring and its records are kept)."""
    global _enabled
    _enabled = False


@contextmanager
def suppressed():
    """Suppress record creation on this thread for the ``with`` body.

    Used where an internal run must not pollute the ledger — e.g. the
    quality auditor's verification decompress inside a compress record.
    """
    depth = getattr(_tls, "suppress", 0)
    _tls.suppress = depth + 1
    try:
        yield
    finally:
        _tls.suppress = depth


def set_capacity(n: int) -> int:
    """Resize the ring (keeps the newest records); returns the old cap."""
    global _ring
    if n < 1:
        raise ValueError(f"recorder capacity must be >= 1, got {n}")
    with _lock:
        old = _ring.maxlen or DEFAULT_CAPACITY
        _ring = deque(_ring, maxlen=int(n))
    return old


def capacity() -> int:
    return _ring.maxlen or DEFAULT_CAPACITY


def records() -> list[RunRecord]:
    """Snapshot of the ring, oldest first."""
    with _lock:
        return list(_ring)


def clear() -> None:
    """Drop every record (mainly for tests)."""
    with _lock:
        _ring.clear()


def _append(rec: RunRecord) -> None:
    with _lock:
        _ring.append(rec)


def _alloc_seq() -> int:
    global _seq
    with _lock:
        _seq += 1
        return _seq


# -- trace context -----------------------------------------------------------

def mint_id() -> str:
    """A fresh 64-bit hex trace/run id."""
    return os.urandom(8).hex()


def current_trace_id() -> str | None:
    """The trace id of this thread's innermost open capture (or the
    foreign context installed by :func:`trace_scope`), if any."""
    cap = current()
    if cap is not None:
        return cap.trace_id
    ctx = getattr(_tls, "trace_ctx", None)
    return ctx.get("trace_id") if ctx else None


def propagation_context() -> dict | None:
    """The ``{"trace_id", "run_id"}`` pair to ship across a process (or
    task) boundary so remote captures stitch under this trace.

    Returns the innermost open capture's identity, the foreign context
    installed by :func:`trace_scope` when no capture is open, or ``None``
    outside any traced run.
    """
    cap = current()
    if cap is not None:
        return {"trace_id": cap.trace_id, "run_id": cap.run_id}
    ctx = getattr(_tls, "trace_ctx", None)
    return dict(ctx) if ctx else None


@contextmanager
def trace_scope(ctx: dict | None):
    """Adopt a propagated trace context for the ``with`` body.

    Pool workers wrap their task in this so every capture they open
    inherits the parent's ``trace_id`` (and records the parent capture's
    ``run_id`` as ``parent_run_id``). ``None`` is accepted and means "no
    inherited context" — callers can pass a payload field through
    unconditionally.
    """
    prev = getattr(_tls, "trace_ctx", None)
    _tls.trace_ctx = dict(ctx) if ctx else None
    try:
        yield
    finally:
        _tls.trace_ctx = prev


# -- capture ----------------------------------------------------------------

class _NullCapture:
    """Shared do-nothing capture: recorder off (or suppressed) and
    tracing off."""

    __slots__ = ()

    trace_id = None          # class attrs: the no-op carries no lineage
    run_id = None
    parent_run_id = None

    def stage(self, name: str, **attrs):
        return telemetry._NULL_SPAN

    def set(self, **attrs) -> "_NullCapture":
        return self

    def count(self, name: str, value: float = 1.0) -> "_NullCapture":
        return self

    def merge_worker(self, aux) -> "_NullCapture":
        return self

    def __enter__(self) -> "_NullCapture":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CAPTURE = _NullCapture()


class RunCapture:
    """Context manager building one :class:`RunRecord` and, while span
    tracing is on, the root span that mirrors it (name ``kind``, the
    record's attrs, duration ``wall_s``).

    Opened by :func:`capture` at every top-level run site. Stage wall
    times accumulate via :meth:`stage`, arbitrary attributes via
    :meth:`set`, event counters via :meth:`count`, and worker-process
    stats via :meth:`merge_worker`; cache deltas and memory high-water
    marks are collected automatically on exit. With ``record=False``
    (recorder off or suppressed) it only traces.
    """

    __slots__ = ("kind", "_record", "_attrs", "_stages", "_counters",
                 "_worker", "_pids", "_snap0", "_reg", "_timer", "_span",
                 "trace_id", "run_id", "parent_run_id")

    def __init__(self, kind: str, attrs: dict, record: bool = True):
        self.kind = kind
        self._record = record
        self._reg = telemetry.get_registry() if telemetry.enabled() \
            else None
        self._attrs = attrs
        self._stages: dict[str, float] = {}
        self._counters: dict[str, float] = {}
        self._worker: dict[str, float] = {}
        self._pids: set[int] = set()
        self.trace_id: str | None = None    # resolved on __enter__
        self.run_id: str | None = None
        self.parent_run_id: str | None = None

    def stage(self, name: str, **attrs) -> telemetry.SpanTimer:
        """Time one top-level stage (re-entry accumulates): one timer
        reading feeds the record's stage total and, while tracing, the
        stage span carrying ``attrs``. ``as`` yields that span (a no-op
        while tracing is off) for attributes known only at the end."""
        return telemetry.SpanTimer(self._reg, name, attrs, self._stages)

    def set(self, **attrs) -> "RunCapture":
        """Attach attributes to the record and the root span; returns
        self for chaining."""
        self._attrs.update(attrs)
        return self

    def count(self, name: str, value: float = 1.0) -> "RunCapture":
        """Bump a per-record event counter."""
        self._counters[name] = self._counters.get(name, 0.0) + value
        return self

    def merge_worker(self, aux: dict | None) -> "RunCapture":
        """Fold one worker task's aux stats (see :func:`worker_aux`)
        into this record: cache counters sum, memory peaks take max, and
        the worker's own run records — shipped across the process
        boundary because worker rings die with the worker — land in this
        ring ahead of the parent record, stitched by ``trace_id``."""
        if not aux or not self._record:
            return self
        w = self._worker
        w["tasks"] = w.get("tasks", 0) + 1
        for key in ("peak_rss_kb", "tracemalloc_peak_kb"):
            if aux.get(key):
                w[key] = max(w.get(key, 0), int(aux[key]))
        wc = aux.get("caches") or {}
        for key in _WORKER_CACHE_KEYS:
            if wc.get(key):
                w[f"cache_{key}"] = w.get(f"cache_{key}", 0) + int(wc[key])
        if aux.get("pid"):
            self._pids.add(int(aux["pid"]))
        for obj in aux.get("records") or ():
            rec = RunRecord.from_dict(obj)
            rec.seq = _alloc_seq()       # worker seqs restart per process
            if aux.get("pid"):
                rec.attrs.setdefault("worker_pid", int(aux["pid"]))
            _append(rec)
        return self

    def __enter__(self) -> "RunCapture":
        if self._record:
            # nest under the open capture, else the propagated context
            ctx = propagation_context() or {}
            self.trace_id = ctx.get("trace_id") or mint_id()
            self.parent_run_id = ctx.get("run_id")
            self.run_id = mint_id()
            _stack().append(self)
            self._snap0 = caches.snapshot()
        self._timer = telemetry.SpanTimer(self._reg, self.kind, {})
        self._span = self._timer.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._reg is not None:
            # stitched to the record (and merged worker spans) by id
            self._span.attrs.update(self._attrs)
            if self.run_id:
                self._span.set(trace_id=self.trace_id, run_id=self.run_id)
        wall = self._timer.stop(exc_type)
        if not self._record:
            return False
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        delta = caches.diff(self._snap0, caches.snapshot())
        memory = {"peak_rss_kb": _peak_rss_kb()}
        if tracemalloc.is_tracing():
            memory["tracemalloc_peak_kb"] = \
                tracemalloc.get_traced_memory()[1] // 1024
        worker = dict(self._worker)
        if self._pids:
            worker["n_pids"] = len(self._pids)
        rec = RunRecord(
            seq=_alloc_seq(), kind=self.kind, ts=time.time(),
            wall_s=wall,
            status="error" if exc_type is not None else "ok",
            codec=self._attrs.pop("codec", None),
            stages=self._stages, attrs=self._attrs,
            caches={name: d for name, d in delta.items()
                    if d["lookups"] or d["evictions"]},
            counters=self._counters, memory=memory, worker=worker,
            trace_id=self.trace_id, run_id=self.run_id,
            parent_run_id=self.parent_run_id)
        _append(rec)
        return False


def capture(kind: str, **attrs):
    """Open a run capture: a ledger record while the recorder is on and
    not suppressed, a root span while tracing is on, and a shared no-op
    when neither."""
    record = _enabled and not getattr(_tls, "suppress", 0)
    if not record and not telemetry.enabled():
        return _NULL_CAPTURE
    return RunCapture(kind, attrs, record)


def current() -> RunCapture | None:
    """This thread's innermost open capture, if any."""
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else None


def annotate(**attrs) -> None:
    """Attach attributes to the current capture (no-op without one).

    This is the in-process trace-context propagation hook: layers deep
    inside a run (the lossless orchestrator, the pool) stamp their
    decisions onto whichever record is being built.
    """
    cap = current()
    if cap is not None:
        cap.set(**attrs)


def count(name: str, value: float = 1.0) -> None:
    """Count an event on the current capture's record (if any) and, while
    tracing, in the span registry's counters."""
    telemetry.incr(name, value)
    cap = current()
    if cap is not None:
        cap.count(name, value)


# -- worker-process stat propagation ----------------------------------------

def worker_baseline() -> dict[str, int]:
    """Cache-counter totals plus the ring's sequence watermark at
    worker-task start (cheap, one small dict); pass the result to
    :func:`worker_aux` at task end."""
    base = caches.snapshot_totals()
    base["_seq"] = _seq
    return base


def worker_aux(baseline: dict[str, int] | None = None) -> dict:
    """Aux stats a pool worker ships back with its task result: its pid,
    peak-RSS / tracemalloc high-water marks, cache-counter deltas since
    ``baseline``, and — so worker ledger entries survive the process
    boundary and stitch under the parent trace — every run record this
    worker appended past the baseline's sequence watermark. Merged into
    the parent record via :meth:`RunCapture.merge_worker`."""
    now = caches.snapshot_totals()
    base = baseline or {}
    aux = {"pid": os.getpid(), "peak_rss_kb": _peak_rss_kb(),
           "caches": {k: now.get(k, 0) - base.get(k, 0)
                      for k in _WORKER_CACHE_KEYS}}
    if baseline is not None:
        since = int(base.get("_seq", 0))
        shipped = [r.to_dict() for r in records() if r.seq > since]
        if shipped:
            aux["records"] = shipped
    if tracemalloc.is_tracing():  # pragma: no cover - opt-in profiling
        aux["tracemalloc_peak_kb"] = \
            tracemalloc.get_traced_memory()[1] // 1024
    return aux


# -- ledger serialization ---------------------------------------------------

def to_jsonl(recs: list[RunRecord] | None = None) -> str:
    """Serialize records (default: the ring) as JSON lines."""
    recs = records() if recs is None else recs
    return "".join(json.dumps(r.to_dict(), default=str) + "\n"
                   for r in recs)


def _check_schema(obj: dict, lineno: int) -> None:
    """Reject ledger lines this build cannot faithfully parse.

    Unversioned lines (and the legacy ``"v"`` stamp) predate the
    explicit ``schema`` key and are accepted as-is — old ledgers keep
    reading. A ``schema`` *newer* than :data:`LEDGER_SCHEMA` means the
    line was written by a future build whose fields this reader would
    silently drop, so it is rejected with a clear error instead.
    """
    ver = obj.get("schema", obj.get("v"))
    if ver is None:
        return
    if not isinstance(ver, (int, float)) or isinstance(ver, bool):
        raise ValueError(
            f"ledger line {lineno}: schema version {ver!r} is not "
            f"a number")
    if int(ver) > LEDGER_SCHEMA:
        raise ValueError(
            f"ledger line {lineno}: schema {int(ver)} is newer than "
            f"this build reads (<= {LEDGER_SCHEMA}); upgrade repro to "
            f"analyze this ledger")


def from_jsonl(text: str) -> list[RunRecord]:
    """Parse ledger text back into records (bad lines are rejected).

    Accepts unversioned (pre-schema-3) lines; rejects lines stamped
    with a future schema major (see :func:`_check_schema`).
    """
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"ledger line {lineno} is not JSON: {exc}")
        if not isinstance(obj, dict):
            raise ValueError(f"ledger line {lineno}: expected an object")
        _check_schema(obj, lineno)
        out.append(RunRecord.from_dict(obj))
    return out


def write_ledger(path: str, recs: list[RunRecord] | None = None) -> int:
    """Persist records (default: the ring) to a JSONL ledger file.

    Returns the number of records written.
    """
    recs = records() if recs is None else recs
    with open(path, "w") as f:
        f.write(to_jsonl(recs))
    return len(recs)


def read_ledger(path: str) -> list[RunRecord]:
    """Load a JSONL run ledger from disk."""
    with open(path) as f:
        return from_jsonl(f.read())


# -- aggregation (repro stats) ----------------------------------------------

def _percentiles(values: list[float]) -> dict[str, float]:
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        # an empty group (e.g. a ledger with no timed runs) aggregates
        # to defined zeros instead of crashing the whole stats pass
        return {"n": 0, "min": 0.0, "p50": 0.0, "p95": 0.0,
                "p99": 0.0, "max": 0.0, "mean": 0.0}

    def pct(q: float) -> float:
        if n == 1:
            return vals[0]
        pos = q * (n - 1)
        lo = int(pos)
        frac = pos - lo
        hi = min(lo + 1, n - 1)
        return vals[lo] * (1 - frac) + vals[hi] * frac

    return {"n": n, "min": vals[0], "p50": pct(0.50), "p95": pct(0.95),
            "p99": pct(0.99), "max": vals[-1],
            "mean": sum(vals) / n}


def aggregate(recs: list[RunRecord]) -> dict:
    """Aggregate ledger records per ``(kind, codec)`` group.

    Returns ``{group_label: {"n", "errors", "wall_s", "stages",
    "ratio", "throughput_mb_s", "cache_hit_ratio", "workers"}}`` where
    each latency entry is a percentile dict (p50/p95/p99/...).
    """
    groups: dict[str, list[RunRecord]] = {}
    for rec in recs:
        label = rec.kind if rec.codec is None \
            else f"{rec.kind}[{rec.codec}]"
        groups.setdefault(label, []).append(rec)
    out = {}
    for label in sorted(groups):
        rs = groups[label]
        entry: dict = {
            "n": len(rs),
            "errors": sum(1 for r in rs if r.status != "ok"),
            "wall_s": _percentiles([r.wall_s for r in rs]),
        }
        stage_vals: dict[str, list[float]] = {}
        for r in rs:
            for stage, sec in r.stages.items():
                stage_vals.setdefault(stage, []).append(sec)
        entry["stages"] = {s: _percentiles(v)
                           for s, v in sorted(stage_vals.items())}
        ratios = [r.ratio for r in rs if r.ratio > 0]
        if ratios:
            entry["ratio"] = _percentiles(ratios)
        thr = [r.throughput_mb_s for r in rs if r.throughput_mb_s > 0]
        if thr:
            entry["throughput_mb_s"] = _percentiles(thr)
        hits = sum(d.get("hits", 0) for r in rs
                   for d in r.caches.values())
        lookups = hits + sum(d.get("misses", 0) for r in rs
                             for d in r.caches.values())
        if lookups:
            entry["cache_hit_ratio"] = hits / lookups
        workers = [int(r.attrs["workers"]) for r in rs
                   if r.attrs.get("workers")]
        if workers:
            entry["workers"] = max(workers)
        out[label] = entry
    return out


def model_deviation(rec: RunRecord, device: str = "a100",
                    skew_threshold: float = 5.0) -> dict | None:
    """Compare one pipeline record's stage shares against the GPU perf
    model (the ledger-level analogue of the span-tree cross-check).

    Returns ``{"stages": {stage: {"measured_share", "modelled_share",
    "skew", "flagged"}}, "flagged": bool, "modelled_total_s":
    float}`` or ``None`` when the record cannot be modelled (unknown
    codec/direction, missing attributes)."""
    from repro.gpu.device import DEVICES
    from repro.gpu.perfmodel import estimate_throughput
    from repro.telemetry.crosscheck import (COMPRESSED_ATTR,
                                            MEASURED_STAGES, MODEL_STAGES)

    if rec.kind not in ("compress", "decompress") or rec.codec is None:
        return None
    if (rec.codec, rec.kind) not in MODEL_STAGES:
        return None
    n_elements = rec.attrs.get("n_elements")
    compressed = rec.attrs.get(COMPRESSED_ATTR[rec.kind])
    if not n_elements or not compressed:
        return None
    lossless = str(rec.attrs.get("lossless", "none"))
    model_lossless = "gle" if lossless in ("gle", "auto") else "none"
    timing = estimate_throughput(rec.codec, rec.kind, int(n_elements),
                                 int(compressed), DEVICES[device],
                                 model_lossless)
    kernel_s = dict(timing.kernels)
    measured = {stage: sum(rec.stages.get(n, 0.0) for n in names)
                for stage, names in MEASURED_STAGES[rec.kind].items()}
    modelled = {stage: sum(kernel_s.get(n, 0.0) for n in names)
                for stage, names
                in MODEL_STAGES[(rec.codec, rec.kind)].items()}
    m_total = sum(measured.values())
    mod_total = sum(modelled.values())
    if not m_total or not mod_total:
        return None
    stages = {}
    flagged = False
    for stage in modelled:
        ms = measured.get(stage, 0.0) / m_total
        os_ = modelled[stage] / mod_total
        skew = ms / os_ if os_ > 0 else (float("inf") if ms else 1.0)
        flag = skew > skew_threshold or \
            (skew > 0 and skew < 1.0 / skew_threshold)
        flagged = flagged or flag
        stages[stage] = {"measured_share": ms, "modelled_share": os_,
                         "skew": skew, "flagged": flag}
    return {"stages": stages, "flagged": flagged,
            "modelled_total_s": mod_total, "device": device}
