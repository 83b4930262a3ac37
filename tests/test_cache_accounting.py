"""Running cache byte totals against a recount of the entries.

Every registered cache keeps its ``size_bytes`` as entries come and go,
so a registry snapshot (taken twice per run on the recorder path) walks
no entries. These properties drive each cache through random sequences
of inserts, replacements, evictions and clears and check, after every
step, that the running total equals the bytes its entries really hold.
"""

from __future__ import annotations

import gc
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.ginterp.plans as plans
import repro.huffman.canonical as canonical
import repro.huffman.tree as tree
import repro.lossless.orchestrator as orc
from repro.core.ginterp import InterpSpec
from repro.huffman import MAX_CODE_LEN, code_lengths
from repro.telemetry import caches

# the package re-exports the ``autotune`` function under the module's name
autotune_mod = importlib.import_module("repro.core.ginterp.autotune")

SETTINGS = settings(max_examples=30, deadline=None)


def _reported(name: str) -> int:
    return caches.snapshot()[name]["size_bytes"]


# -- Huffman codebook and probe-LUT caches ----------------------------------

_LENGTHS = [code_lengths(np.random.default_rng(s).zipf(1.4, 64 + 40 * s)
                         .astype(np.int64), MAX_CODE_LEN)
            for s in range(5)]

_CANONICAL_OPS = st.one_of(
    st.tuples(st.just("lut"), st.integers(0, 4), st.integers(4, 16)),
    st.tuples(st.just("full"), st.integers(0, 4)),
    st.tuples(st.just("order"), st.integers(0, 4)),
    st.tuples(st.just("replace"), st.integers(0, 4), st.integers(4, 16)),
    st.tuples(st.just("clear")),
)


def _recount(cache) -> int:
    return sum(canonical._footprint(k, v) for k, v in cache.items())


@SETTINGS
@given(st.lists(_CANONICAL_OPS, max_size=25))
def test_huffman_caches_keep_running_bytes(ops):
    canonical.drain_lut_prewarm()
    canonical.clear_codebook_caches()
    saved_size = canonical._CACHE_SIZE
    saved_budget = canonical._BYTE_BUDGETS["lut"]
    # small limits, so the sequences evict by count and by bytes
    canonical._CACHE_SIZE = 3
    canonical._BYTE_BUDGETS["lut"] = 600 << 10
    try:
        for op in ops:
            if op[0] == "lut":
                canonical.build_lut_tables(_LENGTHS[op[1]], op[2])
            elif op[0] == "full":
                # a full-width entry retires the narrow LUTs it replaces
                canonical.build_lut_tables(_LENGTHS[op[1]])
            elif op[0] == "order":
                canonical.canonical_order(_LENGTHS[op[1]])
            elif op[0] == "replace":
                # what a background prewarm racing a foreground build does
                lengths = _LENGTHS[op[1]]
                key = (canonical._length_key(lengths), op[2])
                canonical._put_lut(key, canonical._expand_lut(lengths,
                                                              op[2]))
                canonical._put_lut(key, canonical._expand_lut(lengths,
                                                              op[2]))
            else:
                canonical.clear_codebook_caches()
            assert _reported("huffman.lut") == \
                _recount(canonical._lut_cache)
            assert _reported("huffman.codebook") == \
                _recount(canonical._codebook_cache)
    finally:
        canonical._CACHE_SIZE = saved_size
        canonical._BYTE_BUDGETS["lut"] = saved_budget
        canonical.clear_codebook_caches()


# -- codebook fingerprint cache ---------------------------------------------

_FREQS = [np.random.default_rng(10 + s).integers(0, 50, 32 + 16 * s)
          for s in range(6)]


@SETTINGS
@given(st.lists(st.one_of(st.integers(0, 5), st.just("clear")),
                max_size=25))
def test_fingerprint_cache_keeps_running_bytes(ops):
    tree.clear_fingerprint_cache()
    saved = tree._FP_CACHE_SIZE
    tree._FP_CACHE_SIZE = 3
    try:
        for op in ops:
            if op == "clear":
                tree.clear_fingerprint_cache()
            else:
                tree.fingerprint_code_lengths(_FREQS[op], MAX_CODE_LEN)
            recount = sum(len(k) + v.nbytes
                          for k, v in tree._fp_cache.items())
            assert _reported("huffman.fingerprint") == recount
    finally:
        tree._FP_CACHE_SIZE = saved
        tree.clear_fingerprint_cache()


# -- compiled pass plans and autotune profiles ------------------------------

_SHAPES = [(33,), (65,), (17, 19), (9, 10, 11), (40,)]


@SETTINGS
@given(st.lists(st.one_of(
    st.tuples(st.just("get"), st.integers(0, 4)),
    st.tuples(st.just("limit"), st.integers(1, 4)),
    st.tuples(st.just("clear"))), max_size=20))
def test_plan_cache_keeps_running_bytes(ops):
    plans.clear_plan_cache()
    saved = plans.set_plan_cache_limit(3)
    try:
        for op in ops:
            if op[0] == "get":
                plans.get_plan(_SHAPES[op[1]], InterpSpec(anchor_stride=8))
            elif op[0] == "limit":
                plans.set_plan_cache_limit(op[1])
            else:
                plans.clear_plan_cache()
            recount = sum(p.nbytes for p in plans._pass_cache.values())
            assert _reported("ginterp.plan") == recount
    finally:
        plans.set_plan_cache_limit(saved)
        plans.clear_plan_cache()


_FIELDS = [np.random.default_rng(20 + s).normal(size=shape)
           for s, shape in enumerate([(40,), (12, 13), (6, 7, 8), (90,)])]


@SETTINGS
@given(st.lists(st.one_of(
    st.tuples(st.just("tune"), st.integers(0, 3)),
    st.tuples(st.just("limit"), st.integers(1, 3)),
    st.tuples(st.just("clear"))), max_size=20))
def test_autotune_cache_keeps_running_bytes(ops):
    autotune_mod.clear_autotune_cache()
    saved = autotune_mod.set_autotune_cache_limit(2)
    try:
        for op in ops:
            if op[0] == "tune":
                autotune_mod.autotune(_FIELDS[op[1]], 1e-3)
            elif op[0] == "limit":
                autotune_mod.set_autotune_cache_limit(op[1])
            else:
                autotune_mod.clear_autotune_cache()
            recount = sum(20 + 8 + errors.nbytes for _rng, errors
                          in autotune_mod._profile_cache.values())
            assert _reported("ginterp.autotune") == recount
    finally:
        autotune_mod.set_autotune_cache_limit(saved)
        autotune_mod.clear_autotune_cache()


# -- orchestrator plan caches (one per codec instance) ----------------------

def _entry(rng, n_probes: int) -> tuple:
    probes = [(int(off), rng.bytes(int(rng.integers(1, 64))))
              for off in range(n_probes)]
    spans = [(0, 1)] * int(rng.integers(1, 6))
    names = [rng.bytes(int(rng.integers(1, 9))) for _ in spans]
    return probes, spans, ["store"] * len(spans), names


@SETTINGS
@given(st.lists(st.one_of(
    st.tuples(st.just("put"), st.integers(0, 1), st.integers(0, 11),
              st.integers(0, 3)),
    st.tuples(st.just("release"), st.integers(0, 1))), max_size=40),
    st.integers(0, 2 ** 32 - 1))
def test_orchestrator_plan_caches_keep_running_bytes(ops, seed):
    rng = np.random.default_rng(seed)
    base = orc.plan_cache_stats()
    pcs = [orc.PlanCache(), orc.PlanCache()]
    try:
        for op in ops:
            if op[0] == "put":
                # keys repeat, so puts both replace and evict
                pcs[op[1]].put(("fp", op[2]), _entry(rng, op[3]))
            else:
                pcs[op[1]].release()
            stats = orc.plan_cache_stats()
            entries = [e for pc in pcs for e in pc._entries.values()]
            assert stats["size"] - base["size"] == len(entries)
            assert stats["size_bytes"] - base["size_bytes"] == \
                sum(orc._plan_nbytes(e) for e in entries)
            assert all(len(pc) <= orc._PLAN_CACHE_MAX for pc in pcs)
    finally:
        for pc in pcs:
            pc.release()


def test_dead_codec_releases_its_plans():
    before = orc.plan_cache_stats()
    codec = orc.OrchestratorCodec()
    rng = np.random.default_rng(0)
    for i in range(3):
        codec.compress_bytes(rng.integers(0, 4, 5000 + i, np.uint8)
                             .tobytes())
    during = orc.plan_cache_stats()
    assert during["size"] - before["size"] == len(codec._plan_cache)
    del codec
    gc.collect()
    after = orc.plan_cache_stats()
    assert (after["size"], after["size_bytes"]) == \
        (before["size"], before["size_bytes"])


@pytest.mark.parametrize("name", ["huffman.codebook", "huffman.lut",
                                  "huffman.fingerprint", "ginterp.plan",
                                  "ginterp.autotune",
                                  "lossless.orchestrator_plan"])
def test_snapshot_walks_no_entries(name, monkeypatch):
    """A provider reads its running total: it never iterates a cache."""
    walked = []

    class Tripwire(dict):
        def items(self):
            walked.append(name)
            return super().items()

        def values(self):
            walked.append(name)
            return super().values()

        def __iter__(self):
            walked.append(name)
            return super().__iter__()

    targets = {"huffman.codebook": (canonical, "_codebook_cache"),
               "huffman.lut": (canonical, "_lut_cache"),
               "huffman.fingerprint": (tree, "_fp_cache"),
               "ginterp.plan": (plans, "_pass_cache"),
               "ginterp.autotune": (autotune_mod, "_profile_cache")}
    codec = orc.OrchestratorCodec()
    codec.compress_bytes(bytes(5000))
    if name in targets:
        module, attr = targets[name]
        monkeypatch.setattr(module, attr, Tripwire(getattr(module, attr)))
    else:
        pc = codec._plan_cache
        pc._entries = Tripwire(pc._entries)
    caches.snapshot()
    assert walked == []
