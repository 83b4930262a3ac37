"""Outside-in tracing: spans around the calls into each layer.

The traced pass replaces the module attributes the pipeline calls through
(``repro.core.pipeline.get_plan`` and so on, :data:`TARGETS`) with thin
wrappers that record one span per call: name, start, end, parent span and
the id of the timed call it belongs to. The program itself is unchanged.
Spans stay in memory until the run ends.

A target that a later change renames or removes cannot be wrapped: its
layer is reported as unmeasured, with the reason, and the rest of the
pass goes on.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager

#: layer -> (module, attribute) of the entry point the pipeline calls,
#: and the end-to-end operation the layer serves ("both" = either)
TARGETS = {
    "ginterp.autotune": ("repro.core.pipeline", "autotune", "compress"),
    "ginterp.plans.get_plan": ("repro.core.pipeline", "get_plan", "both"),
    "ginterp.engine.interp_compress": ("repro.core.pipeline",
                                       "interp_compress", "compress"),
    "ginterp.engine.interp_decompress": ("repro.core.pipeline",
                                         "interp_decompress", "decompress"),
    "huffman.encode": ("repro.core.pipeline", "huffman_encode", "compress"),
    "huffman.decode": ("repro.core.pipeline", "huffman_decode",
                       "decompress"),
    "huffman.lut_build": ("repro.huffman.codec", "build_lut_tables",
                          "decompress"),
    "container.build": ("repro.core.pipeline", "build_container",
                        "compress"),
    "container.parse": ("repro.core.pipeline", "parse_container",
                        "decompress"),
    "lossless.wrap": ("repro.core.pipeline", "wrap_lossless", "compress"),
    "lossless.unwrap": ("repro.core.pipeline", "unwrap_lossless",
                        "decompress"),
}

#: the two kinds of timed call
SIDES = ("compress", "decompress")

#: hit-ratio metric -> cache name in ``repro.telemetry.caches.snapshot()``
CACHE_METRICS = {
    "ginterp.plans.hit_ratio": "ginterp.plan",
    "ginterp.autotune.hit_ratio": "ginterp.autotune",
    "huffman.codebook.hit_ratio": "huffman.fingerprint",
    "huffman.lut.hit_ratio": "huffman.lut",
    "lossless.orchestrator_plan.hit_ratio": "lossless.orchestrator_plan",
}

#: kernel of ``repro.gpu.perfmodel.pipeline_kernels`` -> layer it models
MODEL_KERNELS = {
    "ginterp-predict-quant": "ginterp.engine.interp_compress",
    "ginterp-reconstruct": "ginterp.engine.interp_decompress",
    "huffman-decode": "huffman.decode",
}


def _nbytes(obj) -> int | None:
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    return None


class Tracer:
    """Records spans around the wrapped entry points of one process."""

    def __init__(self, targets: dict | None = None):
        self.targets = dict(TARGETS if targets is None else targets)
        self.spans: list[dict] = []
        self.unmeasured: dict[str, str] = {}
        self.caches: dict[str, dict] = {}
        self._installed: list[tuple] = []
        self._stack: list[dict] = []
        self._call = None
        self._seq = 0

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for layer, (modname, attr, _side) in self.targets.items():
            try:
                module = importlib.import_module(modname)
                original = getattr(module, attr)
            except (ImportError, AttributeError) as exc:
                self.unmeasured[layer] = (
                    f"cannot wrap {modname}.{attr}: "
                    f"{type(exc).__name__}: {exc}")
                continue
            setattr(module, attr, self._wrap(layer, original))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer, in_bytes=_nbytes(args[0]) if args
                           else None) as rec:
                result = fn(*args, **kwargs)
                rec["out_bytes"] = _nbytes(result)
                return result
        return wrapper

    @contextmanager
    def span(self, name: str, **attrs):
        self._seq += 1
        rec = {"id": f"{self._call}.{self._seq}", "name": name,
               "call": self._call,
               "parent": self._stack[-1]["id"] if self._stack else None,
               **attrs}
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    @contextmanager
    def call(self, kind: str, call_id: int):
        """The root span of one timed call."""
        self._call = call_id
        try:
            with self.span(kind, root=True) as rec:
                yield rec
        finally:
            self._call = None

    def add_cache_delta(self, before: dict, after: dict) -> None:
        """Accumulate hit/miss deltas between two cache snapshots."""
        for name, now in after.items():
            prev = before.get(name, {})
            acc = self.caches.setdefault(name, {"hits": 0, "misses": 0})
            for key in acc:
                acc[key] += now[key] - prev.get(key, 0)

    def export(self, calls: list[dict]) -> dict:
        """Spans and counts of the pass; stamps each call record with the
        bytes its layers move according to the performance model."""
        try:
            from repro.gpu.perfmodel import pipeline_kernels
        except ImportError as exc:
            self.unmeasured["model"] = f"no performance model: {exc}"
        else:
            for rec in calls:
                if "compressed_nbytes" not in rec:
                    continue
                kernels = pipeline_kernels("cuszi", rec["kind"],
                                           rec["n_elements"],
                                           rec["compressed_nbytes"])
                rec["model_bytes"] = {
                    MODEL_KERNELS[k.name]: k.bytes_read + k.bytes_written
                    for k in kernels if k.name in MODEL_KERNELS}
        return {"spans": self.spans, "unmeasured": self.unmeasured,
                "caches": self.caches}


# -- per-layer metrics -------------------------------------------------------

def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(traced: dict, plain: dict | None, host: dict | None
                  ) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one traced pass.

    ``traced`` and ``plain`` are the results of the traced process and of
    an untraced one over the same first calls (for the tracing overhead);
    ``host`` is the ceiling probe's result. Returns ``(values,
    unmeasured)``, ``unmeasured`` mapping a metric or layer prefix to the
    reason it has no value. A layer the workload does not call reports 0.
    """
    trace = traced["trace"]
    spans = trace["spans"]
    calls = {rec["id"]: rec for rec in traced["calls"]}
    unmeasured = dict(trace["unmeasured"])
    values: dict[str, float] = {}

    roots = {s["call"]: s for s in spans if s.get("root")}
    children: dict[str, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    # op roots of a side: its correct timed calls with a measured layer
    op_roots = {side: [
        r for r in roots.values()
        if r["name"] == side and calls[r["call"]]["ok"]
        and any(c["name"] in TARGETS for c in children.get(r["id"], ()))]
        for side in SIDES}
    in_side = {side: {r["call"] for r in rs} for side, rs in op_roots.items()}
    in_side["both"] = in_side["compress"] | in_side["decompress"]

    copy_gb_s = host["copy_gb_s"] if host else None
    for layer, (_module, _attr, side) in TARGETS.items():
        if layer in unmeasured:
            continue
        ids = in_side[side]
        ss = [s for s in spans if s["name"] == layer and s["call"] in ids]
        busy_s = sum(_dur(s) for s in ss)
        ops = len(ids)
        values[f"{layer}.ms_per_op"] = busy_s * 1e3 / ops if ops else 0.0
        if layer in MODEL_KERNELS.values():
            if "model" in unmeasured:
                unmeasured[f"{layer}.model_gb_s"] = unmeasured["model"]
                unmeasured[f"{layer}.pct_of_copy_bw"] = unmeasured["model"]
            else:
                moved = sum(calls[i].get("model_bytes", {}).get(layer, 0)
                            for i in ids)
                gb_s = moved / busy_s / 1e9 if busy_s else 0.0
                values[f"{layer}.model_gb_s"] = gb_s
                if copy_gb_s:
                    values[f"{layer}.pct_of_copy_bw"] = \
                        100.0 * gb_s / copy_gb_s
                else:
                    unmeasured[f"{layer}.pct_of_copy_bw"] = \
                        "no host ceiling probe"
        if layer in ("huffman.encode", "huffman.decode"):
            raw = sum(calls[i]["raw_nbytes"] for i in ids)
            values[f"{layer}.mb_s"] = raw / 1e6 / busy_s if busy_s else 0.0
        if layer == "huffman.lut_build":
            values[f"{layer}.calls_per_op"] = len(ss) / ops if ops else 0.0
        if layer == "lossless.wrap":
            into = sum(s["in_bytes"] or 0 for s in ss)
            out = sum(s["out_bytes"] or 0 for s in ss)
            values["lossless.gain"] = into / out if out else 0.0

    for side in SIDES:
        selfs = [_dur(r) - sum(_dur(c) for c in children.get(r["id"], ()))
                 for r in op_roots[side]]
        values[f"pipeline.{side}.self_ms"] = _mean(selfs) * 1e3

    for metric, cache in CACHE_METRICS.items():
        stats = trace["caches"].get(cache)
        if stats is None:
            unmeasured[metric] = f"no cache {cache!r} in the registry"
            continue
        lookups = stats["hits"] + stats["misses"]
        values[metric] = stats["hits"] / lookups if lookups else 0.0

    if plain is not None:
        def walls(result):
            return [c["ms"] for c in result["calls"]
                    if c["kind"] in ("compress", "decompress")]
        t, p = walls(traced), walls(plain)
        n = min(len(t), len(p))
        base = sum(p[:n])
        values["trace.overhead_frac"] = (sum(t[:n]) - base) / base \
            if base else 0.0
    values["host.ref_ms"] = statistics.median(traced["ref_ms"])
    if host:
        values["host.copy_gb_s"] = host["copy_gb_s"]
        values["host.triad_gb_s"] = host["triad_gb_s"]
        values["host.llc_mib"] = host["llc_mib"]
        values["host.probe_array_mib"] = host["array_mib"]
    else:
        unmeasured["host"] = "no host ceiling probe"
    return values, unmeasured

