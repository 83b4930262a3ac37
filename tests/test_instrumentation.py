"""One instrumentation call per run, stage and event.

The flight recorder's run capture is the only way ``src/`` instruments a
run or one of its top-level stages: ``recorder.capture`` builds the
ledger record and, while tracing, the root span; ``cap.stage`` takes one
timer reading for both the record stage and its span; ``recorder.count``
feeds the record counter and the span-registry counter. These tests hold
that shape: an AST guard against re-pairing the two sinks by hand, exact
record/span parity on every traced run, suppression and switch
independence, and the ledger key sets the analytics read.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import smooth_field
from repro import telemetry
from repro.archive import read_archive, write_archive
from repro.core.pipeline import CuSZi
from repro.runtime.tiled import tiled_compress_file, tiled_decompress_file
from repro.telemetry import quality, recorder

SRC = Path(__file__).resolve().parent.parent / "src"

#: spans a run opens once per item (tile, slab, field) beside its stages
ITEM_SPANS = {"slab.append", "slab.read", "runtime.field"}


@pytest.fixture(autouse=True)
def _clean_state():
    recorder.clear()
    recorder.enable()
    yield
    telemetry.disable()
    quality.disable()
    recorder.clear()
    recorder.enable()


# -- AST guard over src/ ------------------------------------------------------

def _dotted(node) -> str:
    """``a.b.c`` for a Name/Attribute chain, else ``""``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _call_name(node) -> str:
    return _dotted(node.func) if isinstance(node, ast.Call) else ""


def _literal_arg(call: ast.Call) -> str | None:
    if call.args and isinstance(call.args[0], ast.Constant) \
            and isinstance(call.args[0].value, str):
        return call.args[0].value
    return None


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_no_with_pairs_a_span_with_a_capture_or_stage():
    bad = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            names = [_call_name(item.context_expr) for item in node.items]
            has_span = "telemetry.span" in names
            has_run = any(n == "recorder.capture" or n.endswith(".stage")
                          for n in names)
            if has_span and has_run:
                bad.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert bad == []


def test_no_counter_is_bumped_twice():
    bad = []
    for path, tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args: dict[str, set[str]] = {"telemetry.incr": set(),
                                         "recorder.count": set()}
            for node in ast.walk(fn):
                name = _call_name(node)
                if name in args and node.args:
                    args[name].add(ast.unparse(node.args[0]))
            for arg in args["telemetry.incr"] & args["recorder.count"]:
                bad.append(f"{path.relative_to(SRC)}:{fn.name}: {arg}")
    assert bad == []


def test_each_run_and_stage_name_has_one_call():
    captures, spans, stages = Counter(), set(), set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            name = _call_name(node)
            lit = _literal_arg(node) if name else None
            if name == "recorder.capture" and lit:
                captures[lit] += 1
            elif name == "telemetry.span" and lit:
                spans.add(lit)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a run names each of its stages once
                own = Counter(_literal_arg(node) for node in ast.walk(fn)
                              if _call_name(node).endswith(".stage")
                              and _literal_arg(node))
                assert all(n == 1 for n in own.values()), \
                    f"{path.relative_to(SRC)}:{fn.name}: {own}"
                stages |= set(own)
    assert captures and all(n == 1 for n in captures.values()), captures
    # no run or stage is also opened as a bare span
    assert not (set(captures) | stages) & spans


# -- record/span parity -------------------------------------------------------

def _parity(reg, recs):
    """Every record's root span: same name, wall, attrs and stages."""
    spans = {sp.attrs.get("run_id"): sp for sp in reg.spans
             if "run_id" in sp.attrs}
    assert recs
    for rec in recs:
        root = spans[rec.run_id]
        assert root.name == rec.kind
        assert root.duration_s == rec.wall_s
        assert root.attrs["trace_id"] == rec.trace_id
        for key, value in rec.attrs.items():
            assert root.attrs[key] == value, key
        if rec.codec is not None:
            assert root.attrs["codec"] == rec.codec
        children = [sp for sp in reg.spans
                    if sp.parent_id == root.span_id
                    and sp.name not in ITEM_SPANS]
        assert sorted(sp.name for sp in children) == sorted(rec.stages)
        for sp in children:
            # one timer reading feeds both: equal, not just close
            assert rec.stages[sp.name] == sp.duration_s


def _traced(fn):
    recorder.clear()
    with telemetry.recording() as reg:
        fn()
    return reg, recorder.records()


def test_parity_cuszi_compress_and_decompress():
    field = smooth_field((24, 20, 16), seed=3)
    codec = CuSZi(eb=1e-3)
    reg, recs = _traced(lambda: codec.compress(field))
    assert [r.kind for r in recs] == ["compress"]
    _parity(reg, recs)
    blob = codec.compress(field)
    reg, recs = _traced(lambda: codec.decompress(blob))
    assert [r.kind for r in recs] == ["decompress"]
    _parity(reg, recs)


def test_parity_archive_write_and_read(tmp_path):
    fields = {"a": smooth_field((16, 16, 12), seed=4),
              "b": smooth_field((20, 18), seed=5)}
    path = str(tmp_path / "x.rpa")
    reg, recs = _traced(lambda: write_archive(path, fields))
    assert recs[-1].kind == "archive.save"
    assert "archive.save" in {sp.name for sp in reg.spans}
    _parity(reg, recs)
    reg, recs = _traced(lambda: read_archive(path))
    assert recs[-1].kind == "archive.load"
    _parity(reg, recs)


def test_parity_tiled_compress_and_decompress(tmp_path):
    field = smooth_field((12, 16, 16), seed=6)
    raw, stream, out = (str(tmp_path / n) for n in ("f.raw", "f.rps",
                                                   "g.raw"))
    field.tofile(raw)
    reg, recs = _traced(lambda: tiled_compress_file(
        raw, field.shape, out_path=stream, tile_planes=4))
    assert recs[-1].kind == "runtime.tiled_compress"
    _parity(reg, recs)
    reg, recs = _traced(lambda: tiled_decompress_file(stream, out))
    assert recs[-1].kind == "runtime.tiled_decompress"
    _parity(reg, recs)


# -- suppression and switch independence -------------------------------------

def test_quality_audit_adds_only_its_own_stage():
    field = smooth_field((16, 16, 16), seed=8)
    codec = CuSZi(eb=1e-3)
    codec.compress(field)
    plain = recorder.records()[-1]
    recorder.clear()
    quality.enable(every=1)
    with telemetry.recording() as reg:
        codec.compress(field)
    recs = recorder.records()
    # the audit's verification decompress makes no record of its own ...
    assert [r.kind for r in recs] == ["compress"]
    audited = recs[0]
    # ... and adds no stages to the compress record
    assert set(audited.stages) == set(plain.stages) | {"quality"}
    # it is still traced, under the quality stage span
    q = next(sp for sp in reg.spans if sp.name == "quality")
    dec = next(sp for sp in reg.spans if sp.name == "decompress")
    assert dec.parent_id == q.span_id
    assert "run_id" not in dec.attrs
    assert {sp.name for sp in reg.spans if sp.parent_id == dec.span_id} \
        == {"lossless", "container", "huffman", "plan", "predict"}
    _parity(reg, recs)


def test_suppressed_stages_never_reach_the_outer_record():
    with telemetry.recording() as reg:
        with recorder.capture("outer") as outer:
            with outer.stage("a"):
                pass
            with recorder.suppressed():
                with recorder.capture("inner") as inner:
                    with inner.stage("b"):
                        pass
    (rec,) = recorder.records()
    assert set(rec.stages) == {"a"}
    by_name = {sp.name: sp for sp in reg.spans}
    assert by_name["b"].parent_id == by_name["inner"].span_id
    assert by_name["inner"].parent_id == by_name["outer"].span_id


def _tree(spans):
    """Span names as a tree of (name, children) tuples, ordered."""
    kids: dict = {}
    for sp in sorted(spans, key=lambda s: s.span_id):
        kids.setdefault(sp.parent_id, []).append(sp)

    def walk(pid):
        return tuple((sp.name, walk(sp.span_id)) for sp in kids.get(pid, ()))
    return walk(None)


def test_tracing_with_recorder_off_yields_the_full_tree():
    field = smooth_field((16, 16, 16), seed=9)
    codec = CuSZi(eb=1e-3)
    codec.compress(field)                       # warm caches alike
    with telemetry.recording() as on:
        codec.compress(field)
    recorder.disable()
    with telemetry.recording() as off:
        codec.compress(field)
    assert recorder.records()[-1].kind == "compress"
    assert len(recorder.records()) == 2         # nothing recorded while off
    assert _tree(off.spans) == _tree(on.spans)
    root = next(sp for sp in off.spans if sp.parent_id is None)
    assert "run_id" not in root.attrs and root.attrs["bytes_out"] > 0


def test_recorder_count_feeds_both_sinks():
    with telemetry.recording() as reg:
        with recorder.capture("outer"):
            recorder.count("events", 2)
        recorder.count("events")                # no capture: span only
    assert recorder.records()[-1].counters == {"events": 2}
    assert reg.counters["events"] == 3


# -- golden ledger key sets ---------------------------------------------------

#: stage and attr keys of each record kind, as the analytics, doctor and
#: bench read them (lossless="auto" adds the orchestrator's plan keys)
GOLDEN = {
    "compress": (
        ["container", "huffman", "lossless", "plan", "predict",
         "quantize", "tune"],
        ["abs_eb", "bytes_in", "bytes_out", "eb", "eb_mode", "fingerprint",
         "lossless", "lossless_plan", "lossless_plan_cached",
         "n_elements", "n_outliers", "shape"]),
    "decompress": (
        ["container", "huffman", "lossless", "plan", "predict"],
        ["abs_eb", "bytes_in", "bytes_out", "lossless", "n_elements",
         "shape"]),
    "archive.save": (["container", "fields"],
                     ["bytes_in", "bytes_out", "n_fields", "workers"]),
    "archive.load": (["container", "fields"],
                     ["bytes_in", "bytes_out", "n_fields", "workers"]),
    "runtime.map_compress": ([], ["bytes_in", "bytes_out", "n_fields",
                                  "workers"]),
    "runtime.map_decompress": ([], ["bytes_in", "bytes_out", "n_fields",
                                    "workers"]),
    "runtime.compress_slabs": ([], [
        "bytes_in", "bytes_out", "serial_fallback", "serial_fallback_floor",
        "serial_fallback_op", "serial_fallback_transport", "workers"]),
    "runtime.decompress_slabs": ([], [
        "bytes_in", "bytes_out", "serial_fallback", "serial_fallback_floor",
        "serial_fallback_op", "serial_fallback_transport", "workers"]),
    "runtime.tiled_compress": ([], ["bytes_in", "bytes_out", "n_tiles",
                                    "tile_planes"]),
    "runtime.tiled_decompress": ([], ["bytes_in", "bytes_out", "n_tiles"]),
}

#: top-level ledger line keys (nested runs add ``parent_run_id``)
LEDGER_KEYS = {"attrs", "caches", "codec", "counters", "kind", "memory",
               "run_id", "schema", "seq", "stages", "status", "trace_id",
               "ts", "wall_s", "worker"}


def test_ledger_key_sets_are_unchanged(tmp_path):
    from repro.runtime import (parallel_compress_slabs,
                               parallel_decompress_slabs)
    field = smooth_field((16, 20, 24), seed=10)
    codec = CuSZi(eb=1e-3)
    codec.decompress(codec.compress(field))
    path = str(tmp_path / "a.rpa")
    write_archive(path, {"a": field, "b": field[:8]})
    read_archive(path)
    # below the IPC floor: the pooled request degrades to serial
    stream = parallel_compress_slabs(field, 4, workers=2, codec="cuszi",
                                     eb=1e-3, mode="abs")
    parallel_decompress_slabs(stream, workers=2)
    raw = str(tmp_path / "f.raw")
    field.tofile(raw)
    tiled_compress_file(raw, field.shape, out_path=str(tmp_path / "f.rps"),
                        tile_planes=4)
    tiled_decompress_file(str(tmp_path / "f.rps"), str(tmp_path / "g.raw"))
    seen = {}
    for rec in recorder.records():
        d = rec.to_dict()
        assert d["schema"] == 3
        assert set(d) - {"parent_run_id"} == LEDGER_KEYS
        seen.setdefault(rec.kind, (sorted(rec.stages), sorted(rec.attrs)))
    assert seen == GOLDEN
