"""Telemetry exporters: JSON-lines, span-tree text, Prometheus text.

Three views of one :class:`~repro.telemetry.Registry`:

* :func:`to_jsonl` / :func:`from_jsonl` — a lossless machine-readable
  trace dump (one JSON object per line: a ``meta`` line, then ``span`` /
  ``counter`` / ``histogram`` lines). This is what ``repro compress
  --trace out.jsonl`` writes and ``repro trace out.jsonl`` reads back.
* :func:`render_tree` — a human-readable indented span tree with
  durations and byte attributes, for terminals and logs.
* :func:`to_prometheus` — Prometheus-style exposition text: counters as
  ``repro_<name>_total``, histograms with log-spaced ``le`` buckets, and
  span durations aggregated per span name as ``_sum`` / ``_count``.
"""

from __future__ import annotations

import json
import math

from repro.telemetry import Registry, Span

__all__ = ["to_jsonl", "from_jsonl", "render_tree", "to_prometheus",
           "stage_breakdown", "cache_metrics_lines", "escape_label",
           "build_info_lines"]

_SCHEMA_VERSION = 1


# -- JSON-lines ------------------------------------------------------------

def to_jsonl(registry: Registry) -> str:
    """Serialize a registry to a JSON-lines trace dump."""
    lines = [json.dumps({"type": "meta", "version": _SCHEMA_VERSION,
                         "n_spans": len(registry.spans)})]
    for sp in registry.spans:
        lines.append(json.dumps({
            "type": "span", "id": sp.span_id, "parent": sp.parent_id,
            "name": sp.name, "start": sp.start, "dur": sp.duration_s,
            "status": sp.status, "thread": sp.thread, "attrs": sp.attrs,
        }, default=str))
    for name, value in sorted(registry.counters.items()):
        lines.append(json.dumps({"type": "counter", "name": name,
                                 "value": value}))
    for name, values in sorted(registry.histograms.items()):
        lines.append(json.dumps({"type": "histogram", "name": name,
                                 "values": values}))
    return "\n".join(lines) + "\n"


def from_jsonl(text: str) -> Registry:
    """Rebuild a registry from :func:`to_jsonl` output."""
    reg = Registry()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno} is not JSON: {exc}")
        kind = obj.get("type")
        if kind == "span":
            reg.spans.append(Span(
                name=obj["name"], span_id=int(obj["id"]),
                parent_id=obj["parent"], start=float(obj["start"]),
                duration_s=float(obj["dur"]),
                attrs=dict(obj.get("attrs", {})),
                status=obj.get("status", "ok"),
                thread=int(obj.get("thread", 0))))
        elif kind == "counter":
            reg.counters[obj["name"]] = float(obj["value"])
        elif kind == "histogram":
            reg.histograms[obj["name"]] = [float(v) for v in obj["values"]]
        elif kind != "meta":
            raise ValueError(f"trace line {lineno}: unknown type {kind!r}")
    reg._next_id = max((sp.span_id for sp in reg.spans), default=0) + 1
    return reg


# -- span tree -------------------------------------------------------------

def _fmt_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _fmt_attrs(attrs: dict) -> str:
    parts = []
    for key in sorted(attrs):
        val = attrs[key]
        if isinstance(val, float):
            val = f"{val:.4g}"
        parts.append(f"{key}={val}")
    return " ".join(parts)


def render_tree(spans: list[Span], max_depth: int | None = None) -> str:
    """Render spans as an indented tree ordered by start time."""
    by_parent: dict[int | None, list[Span]] = {}
    ids = {sp.span_id for sp in spans}
    for sp in spans:
        # orphans (parent not in this trace) render as roots
        parent = sp.parent_id if sp.parent_id in ids else None
        by_parent.setdefault(parent, []).append(sp)
    for children in by_parent.values():
        children.sort(key=lambda s: (s.start, s.span_id))

    lines: list[str] = []

    def walk(parent: int | None, depth: int) -> None:
        if max_depth is not None and depth >= max_depth:
            return
        for sp in by_parent.get(parent, []):
            mark = "" if sp.status == "ok" else " [ERROR]"
            attrs = _fmt_attrs(sp.attrs)
            lines.append("  " * depth
                         + f"{sp.name}  {_fmt_duration(sp.duration_s)}"
                         + (f"  {attrs}" if attrs else "") + mark)
            walk(sp.span_id, depth + 1)

    walk(None, 0)
    return "\n".join(lines)


def stage_breakdown(spans: list[Span]) -> str:
    """Aggregate spans by name: count, total/mean time, byte volumes."""
    agg: dict[str, list[float]] = {}
    for sp in spans:
        row = agg.setdefault(sp.name, [0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += sp.duration_s
        row[2] += float(sp.attrs.get("bytes_in", 0) or 0)
        row[3] += float(sp.attrs.get("bytes_out", 0) or 0)
    header = f"{'span':<24} {'count':>6} {'total':>10} " \
             f"{'bytes_in':>12} {'bytes_out':>12}"
    lines = [header, "-" * len(header)]
    for name, (count, total, b_in, b_out) in \
            sorted(agg.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<24} {count:>6d} {_fmt_duration(total):>10} "
                     f"{int(b_in):>12d} {int(b_out):>12d}")
    return "\n".join(lines)


# -- Prometheus text -------------------------------------------------------

def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def escape_label(value) -> str:
    """Escape a label *value* per the Prometheus exposition format:
    backslash, double quote, and newline must be backslash-escaped
    (dataset/codec names are user-controlled and may contain any of
    them)."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def build_info_lines() -> list[str]:
    """The conventional ``<name>_build_info`` identity gauge: constant 1
    with the package version and Python runtime as labels, so dashboards
    can join every other series to what produced it."""
    import platform

    from repro import __version__
    labels = (f'version="{escape_label(__version__)}",'
              f'python="{escape_label(platform.python_version())}",'
              f'implementation='
              f'"{escape_label(platform.python_implementation())}"')
    return ["# HELP repro_build_info package and runtime identity "
            "(constant 1)",
            "# TYPE repro_build_info gauge",
            f"repro_build_info{{{labels}}} 1"]


def _histogram_buckets(values: list[float]) -> list[float]:
    """Log-spaced bucket upper bounds covering the observed range.

    Degenerate inputs get a sane spread instead of a single bucket: all
    observations on one power of ten (the common single-observation
    case) pad a decade either side, and a float-rounding overshoot of
    the top edge grows one more decade so the largest observation always
    lands in a finite bucket.
    """
    positive = [v for v in values if v > 0]
    if not positive:
        return [1.0]
    lo = math.floor(math.log10(min(positive)))
    hi = math.ceil(math.log10(max(positive)))
    if hi == lo:
        lo -= 1
        hi += 1
    if max(positive) > 10.0 ** hi:
        hi += 1
    return [10.0 ** e for e in range(lo, hi + 1)]


def to_prometheus(registry: Registry, include_caches: bool = True) -> str:
    """Prometheus exposition-format snapshot of a registry.

    ``include_caches`` additionally exports the process-wide unified
    cache gauges (:func:`repro.telemetry.caches.snapshot`) — one labeled
    series per registered cache, uniform across all cache families.
    """
    lines: list[str] = build_info_lines()
    for name, value in sorted(registry.counters.items()):
        metric = f"repro_{_sanitize(name)}_total"
        lines.append(f"# HELP {metric} telemetry counter "
                     f"{json.dumps(name)}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value:g}")
    for name, values in sorted(registry.histograms.items()):
        metric = f"repro_{_sanitize(name)}"
        lines.append(f"# HELP {metric} telemetry histogram "
                     f"{json.dumps(name)}")
        lines.append(f"# TYPE {metric} histogram")
        for bound in _histogram_buckets(values):
            count = sum(1 for v in values if v <= bound)
            lines.append(f'{metric}_bucket{{le="{bound:g}"}} {count}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {len(values)}')
        lines.append(f"{metric}_sum {sum(values):g}")
        lines.append(f"{metric}_count {len(values)}")
    agg: dict[str, tuple[int, float]] = {}
    for sp in registry.spans:
        count, total = agg.get(sp.name, (0, 0.0))
        agg[sp.name] = (count + 1, total + sp.duration_s)
    if agg:
        lines.append("# HELP repro_span_duration_seconds wall time "
                     "aggregated per span name")
        lines.append("# TYPE repro_span_duration_seconds summary")
        for name, (count, total) in sorted(agg.items()):
            lines.append(f'repro_span_duration_seconds_sum'
                         f'{{span="{escape_label(name)}"}} {total:g}')
            lines.append(f'repro_span_duration_seconds_count'
                         f'{{span="{escape_label(name)}"}} {count}')
    if include_caches:
        lines.extend(cache_metrics_lines())
    return "\n".join(lines) + "\n"


#: unified cache fields exported per registered cache: Prometheus type
#: and one-line help text
_CACHE_METRICS = (
    ("hits", "counter", "cache lookups served from the cache"),
    ("misses", "counter", "cache lookups that fell through"),
    ("evictions", "counter", "entries dropped to respect the limit"),
    ("size", "gauge", "entries currently cached"),
    ("limit", "gauge", "configured entry limit"),
    ("size_bytes", "gauge", "estimated bytes held by cached entries"),
    ("hit_ratio", "gauge", "hits / lookups since process start"),
)


def cache_metrics_lines() -> list[str]:
    """Uniform gauges for every cache in the unified registry.

    Each field becomes one ``repro_cache_<field>`` metric with a
    ``cache=<name>`` label, so the four cache families from different
    subsystems (ginterp plan/autotune, Huffman codebook/LUT, lossless
    orchestrator plan) chart on one axis.
    """
    from repro.telemetry import caches
    snap = caches.snapshot()
    lines: list[str] = []
    for fld, kind, help_text in _CACHE_METRICS:
        metric = f"repro_cache_{fld}" + ("_total" if kind == "counter"
                                         else "")
        lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} {kind}")
        for name in sorted(snap):
            val = snap[name].get(fld, 0)
            lines.append(f'{metric}{{cache="{escape_label(name)}"}} '
                         f'{val:g}')
    return lines
