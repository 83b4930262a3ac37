"""Pipeline-wide telemetry: tracing spans, counters, and histograms.

Every hot path in this reproduction (the cuSZ-i pipeline, the G-Interp
traversal, the Huffman codec, the lossless wrap, slab streaming, the
transfer pipeline, the experiment harness) is instrumented with nested
:func:`span` context managers; runs and their top-level stages open
theirs through the flight recorder's run capture instead. Tracing is
**off by default** and the disabled path is a single module-level flag
check returning a shared no-op object, so instrumentation costs nothing
in normal runs — the paper's own evaluation discipline (per-kernel
times, per-segment byte volumes) made first-class instead of ad hoc.

Usage::

    from repro import telemetry

    with telemetry.recording() as reg:
        blob = compress(field, codec="cuszi")
    print(telemetry.exporters.render_tree(reg.spans))

Spans carry wall-time plus arbitrary attributes (``bytes_in``,
``bytes_out``, ``segment_nbytes`` ...); counters and histograms live in
the same process-local :class:`Registry` (cache hits and misses live in
:mod:`repro.telemetry.caches` only). Exporters (JSON-lines, span-tree
text, Prometheus text) are in :mod:`repro.telemetry.exporters`. See
``docs/OBSERVABILITY.md`` for the span taxonomy.

Independent of span tracing, the **flight recorder**
(:mod:`repro.telemetry.recorder`) keeps an always-on bounded ring of
per-run records; :mod:`repro.telemetry.caches` is the unified cache
registry feeding both; :mod:`repro.telemetry.quality` holds the opt-in
sampled quality auditor; :mod:`repro.telemetry.analytics` reads a
finished ledger, including its measured-vs-modelled GPU stage shares
(``repro analyze``), and :mod:`repro.telemetry.doctor` judges it
(``repro doctor --check``).

Everything here is zero-dependency (stdlib only) and thread-safe: spans
started on different threads nest independently (thread-local span
stacks) and land in one shared registry.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Span", "SpanTimer", "Registry", "span", "record_span", "merge_spans",
           "incr", "observe", "enable", "disable", "enabled",
           "get_registry", "recording"]


@dataclass
class Span:
    """One completed (or in-flight) traced operation."""

    name: str
    span_id: int
    parent_id: int | None
    start: float                 # seconds since the registry epoch
    duration_s: float = 0.0
    attrs: dict = field(default_factory=dict)
    status: str = "ok"
    thread: int = 0

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span; returns the span for chaining."""
        self.attrs.update(attrs)
        return self


class _NullSpan:
    """Shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class SpanTimer:
    """Times one span into ``reg``; with ``reg=None`` it only times.

    Both clock readings are taken here, so callers that need the
    duration read the very number the span records: :meth:`stop`
    returns it, and ``totals`` (the flight recorder's per-record stage
    dict) accumulates it under the span's name.
    """

    __slots__ = ("_reg", "_name", "_span", "_totals", "_t0")

    def __init__(self, reg: "Registry | None", name: str, attrs: dict,
                 totals: dict | None = None):
        self._reg = reg
        self._name = name
        self._totals = totals
        self._span = _NULL_SPAN if reg is None else Span(
            name=name, span_id=reg._alloc_id(), parent_id=None, start=0.0,
            attrs=attrs, thread=threading.get_ident())

    def __enter__(self):
        if self._reg is not None:
            stack = self._reg._stack()
            self._span.parent_id = stack[-1] if stack else None
            stack.append(self._span.span_id)
        self._t0 = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop(exc_type)
        return False

    def stop(self, exc_type=None) -> float:
        """Close the span; returns its duration in seconds."""
        dt = time.perf_counter() - self._t0
        totals = self._totals
        if totals is not None:
            totals[self._name] = totals.get(self._name, 0.0) + dt
        reg = self._reg
        if reg is not None:
            sp = self._span
            sp.start = self._t0 - reg.epoch
            sp.duration_s = dt
            if exc_type is not None:
                sp.status = "error"
                sp.attrs.setdefault("error", exc_type.__name__)
            stack = reg._stack()
            if stack and stack[-1] == sp.span_id:
                stack.pop()
            reg._append(sp)
        return dt


class Registry:
    """Process-local store of spans, counters, and histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._next_id = 1
        self.epoch = time.perf_counter()
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, list[float]] = {}

    # -- internals ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _alloc_id(self) -> int:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        return sid

    def _append(self, sp: Span) -> None:
        with self._lock:
            self.spans.append(sp)

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attrs) -> SpanTimer:
        """Open a nested span; use as a context manager."""
        return SpanTimer(self, name, attrs)

    def record_span(self, name: str, duration_s: float,
                    parent_id: int | None = None, **attrs) -> Span:
        """Record an already-measured (or modelled) span.

        Used where durations come from a model rather than a clock — e.g.
        the transfer pipeline's roofline stage times. Parents to the
        current thread's open span unless ``parent_id`` is given.
        """
        if parent_id is None:
            stack = self._stack()
            parent_id = stack[-1] if stack else None
        sp = Span(name=name, span_id=self._alloc_id(),
                  parent_id=parent_id,
                  start=time.perf_counter() - self.epoch,
                  duration_s=float(duration_s), attrs=attrs,
                  thread=threading.get_ident())
        self._append(sp)
        return sp

    def merge_spans(self, spans: list[Span], parent_id: int | None = None,
                    offset_s: float = 0.0, **attrs) -> list[Span]:
        """Graft spans recorded in another registry into this one.

        Used to fold worker-process traces back into the parent trace:
        span ids are re-allocated here (worker ids restart at 1 and would
        collide), parent links are remapped, and starts are shifted by
        ``offset_s`` so the workers' private epochs line up with this
        registry's clock. Roots of the merged set attach under
        ``parent_id`` (default: the caller's currently open span), and
        ``attrs`` (e.g. a worker index) are stamped onto every span.
        """
        if parent_id is None:
            stack = self._stack()
            parent_id = stack[-1] if stack else None
        idmap = {sp.span_id: self._alloc_id() for sp in spans}
        merged = [Span(name=sp.name, span_id=idmap[sp.span_id],
                       parent_id=idmap.get(sp.parent_id, parent_id),
                       start=sp.start + offset_s,
                       duration_s=sp.duration_s,
                       attrs={**sp.attrs, **attrs},
                       status=sp.status, thread=sp.thread)
                  for sp in spans]
        with self._lock:
            self.spans.extend(merged)
        return merged

    def incr(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to a named monotonic counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into a named histogram."""
        with self._lock:
            self.histograms.setdefault(name, []).append(float(value))


# -- module-level switchboard ---------------------------------------------

_enabled = False
_registry = Registry()


def enabled() -> bool:
    """Is tracing currently on?"""
    return _enabled


def get_registry() -> Registry:
    """The active registry (even while disabled)."""
    return _registry


def enable(registry: Registry | None = None) -> Registry:
    """Turn tracing on, optionally into a caller-provided registry."""
    global _enabled, _registry
    if registry is not None:
        _registry = registry
    _enabled = True
    return _registry


def disable() -> None:
    """Turn tracing off (the registry and its data are kept)."""
    global _enabled
    _enabled = False


@contextmanager
def recording(registry: Registry | None = None):
    """Enable tracing into a fresh registry for the ``with`` body.

    Yields the registry; restores the prior enabled-state and registry on
    exit, so nested/parallel test usage cannot leak state.
    """
    global _enabled, _registry
    prev_enabled, prev_registry = _enabled, _registry
    reg = registry if registry is not None else Registry()
    _registry = reg
    _enabled = True
    try:
        yield reg
    finally:
        _enabled, _registry = prev_enabled, prev_registry


# -- instrumentation entry points ------------------------------------------

def span(name: str, **attrs):
    """Open a span in the active registry; no-op while disabled."""
    if not _enabled:
        return _NULL_SPAN
    return _registry.span(name, **attrs)


def record_span(name: str, duration_s: float,
                parent_id: int | None = None, **attrs) -> Span | None:
    """Record a pre-measured span; returns ``None`` while disabled."""
    if not _enabled:
        return None
    return _registry.record_span(name, duration_s, parent_id, **attrs)


def merge_spans(spans: list[Span], parent_id: int | None = None,
                offset_s: float = 0.0, **attrs) -> list[Span]:
    """Merge foreign (e.g. worker-process) spans; no-op while disabled."""
    if not _enabled or not spans:
        return []
    return _registry.merge_spans(spans, parent_id=parent_id,
                                 offset_s=offset_s, **attrs)


def incr(name: str, value: float = 1.0) -> None:
    """Increment a counter in the active registry; no-op while disabled."""
    if _enabled:
        _registry.incr(name, value)


def observe(name: str, value: float) -> None:
    """Histogram observation in the active registry; no-op while disabled."""
    if _enabled:
        _registry.observe(name, value)


from repro.telemetry import exporters  # noqa: E402  (re-export convenience)
from repro.telemetry import caches  # noqa: E402
from repro.telemetry import recorder  # noqa: E402
