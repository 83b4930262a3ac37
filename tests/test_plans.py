"""Compiled pass plans: bit-exact equivalence, cache behavior, stream guards.

The compiled path must be indistinguishable from the reference traversal
(the uncompiled oracle in ``oracles.py``) in every emitted byte — these
tests compare full streams with ``tobytes()``, not ``allclose``.
"""

import concurrent.futures
import multiprocessing
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rough_field, smooth_field
from oracles import reference_compress, reference_decompress
from repro.common.errors import (ConfigError, CorruptStreamError, DataError)
from repro.common.quantizer import LinearQuantizer
from repro.core.ginterp import (InterpSpec, clear_plan_cache, compile_plan,
                                get_plan, interp_compress, interp_decompress,
                                plan_cache_stats, set_plan_cache_limit)
from repro.core.ginterp import plans
from repro.core.ginterp.autotune import autotune, profile_cubic_errors
from repro.core.ginterp.splines import CUBIC_NAK, CUBIC_NAT, SPLINE_WEIGHTS


def _field(shape, seed=0):
    rng = np.random.default_rng(seed)
    mesh = np.meshgrid(*[np.linspace(0, 3, n) for n in shape],
                       indexing="ij")
    return (np.sin(np.add.reduce(mesh))
            + 0.05 * rng.standard_normal(shape)).astype(np.float32)


def _assert_equivalent(shape, spec, seed=0, quantizer=None):
    data = _field(shape, seed)
    eb = 1e-3 * float(data.max() - data.min())
    ref = reference_compress(data, spec, eb, quantizer)
    cmp_ = interp_compress(data, spec, eb, quantizer)
    assert ref.codes.tobytes() == cmp_.codes.tobytes()
    assert ref.outliers.tobytes() == cmp_.outliers.tobytes()
    assert ref.anchors.tobytes() == cmp_.anchors.tobytes()
    assert ref.reconstructed.tobytes() == cmp_.reconstructed.tobytes()
    assert ref.pass_sizes == cmp_.pass_sizes
    dref = reference_decompress(shape, spec, eb, ref.codes, ref.outliers,
                                ref.anchors, quantizer)
    dcmp = interp_decompress(shape, spec, eb, cmp_.codes, cmp_.outliers,
                             cmp_.anchors, quantizer)
    assert dref.tobytes() == dcmp.tobytes()
    assert dref.tobytes() == ref.reconstructed.tobytes()


class TestBitExactEquivalence:
    """Compiled vs reference: every stream byte-identical."""

    @pytest.mark.parametrize("shape,spec", [
        ((257,), InterpSpec(anchor_stride=64)),
        ((101,), InterpSpec(anchor_stride=16)),
        ((2049,), InterpSpec(anchor_stride=512, window_shape=(2049,))),
        ((65, 33), InterpSpec(anchor_stride=16)),
        ((67, 129), InterpSpec(anchor_stride=16, window_shape=(17, 65))),
        ((5, 7), InterpSpec(anchor_stride=16)),       # smaller than stride
        ((33, 17, 25), InterpSpec(anchor_stride=8)),
        ((64, 64, 64), InterpSpec(anchor_stride=8,
                                  window_shape=(9, 9, 33))),
        ((40, 28, 36), InterpSpec(anchor_stride=8,
                                  cubic_variant=(CUBIC_NAT,) * 3)),
        ((32, 48, 20), InterpSpec(anchor_stride=8, axis_order=(2, 0, 1))),
        ((20, 20, 20), InterpSpec(anchor_stride=32,
                                  window_shape=(9, 9, 9))),
    ], ids=["1d", "1d-odd", "1d-window", "2d", "2d-window", "2d-tiny",
            "3d-odd", "3d-window", "3d-natural", "3d-axis-order",
            "3d-nearest-classes"])
    def test_streams_identical(self, shape, spec):
        _assert_equivalent(shape, spec)

    def test_identical_with_outliers(self):
        # small radius forces the outlier path through both traversals
        shape = (48, 40, 32)
        data = rough_field(shape)
        eb = 1e-4 * float(data.max() - data.min())
        q = LinearQuantizer(radius=8)
        ref = reference_compress(data, InterpSpec(anchor_stride=8), eb, q)
        cmp_ = interp_compress(data, InterpSpec(anchor_stride=8), eb, q)
        assert ref.outliers.size > 0
        assert ref.codes.tobytes() == cmp_.codes.tobytes()
        assert ref.outliers.tobytes() == cmp_.outliers.tobytes()
        assert ref.reconstructed.tobytes() == cmp_.reconstructed.tobytes()

    def test_explicit_plan_matches_implicit(self):
        shape = (33, 29)
        spec = InterpSpec(anchor_stride=8)
        data = _field(shape)
        eb = 1e-3
        plan = get_plan(shape, spec.resolved(2))
        a = interp_compress(data, spec, eb, plan=plan)
        b = interp_compress(data, spec, eb)
        assert a.codes.tobytes() == b.codes.tobytes()
        assert a.reconstructed.tobytes() == b.reconstructed.tobytes()

    def test_mismatched_plan_rejected(self):
        spec = InterpSpec(anchor_stride=8)
        plan = get_plan((16, 16), spec.resolved(2))
        with pytest.raises(ConfigError):
            interp_compress(_field((32, 32)), spec, 1e-3, plan=plan)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(5, 200), stride=st.sampled_from([4, 8, 16]),
           seed=st.integers(0, 5))
    def test_property_1d(self, n, stride, seed):
        _assert_equivalent((n,), InterpSpec(anchor_stride=stride), seed)

    @settings(max_examples=25, deadline=None)
    @given(h=st.integers(4, 48), w=st.integers(4, 48),
           stride=st.sampled_from([4, 8]),
           windowed=st.booleans(), seed=st.integers(0, 3))
    def test_property_2d(self, h, w, stride, windowed, seed):
        spec = InterpSpec(anchor_stride=stride,
                          window_shape=(9, 17) if windowed else None)
        _assert_equivalent((h, w), spec, seed)


def _plan_with(shape, spec, group_elements, fold_min=plans._FOLD_MIN):
    """An uncached plan compiled under the given slab-shape constants."""
    with mock.patch.object(plans, "ROW_GROUP_ELEMENTS", group_elements), \
            mock.patch.object(plans, "_FOLD_MIN", fold_min):
        return compile_plan(shape, spec.resolved(len(shape)))


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


@st.composite
def _geometries(draw):
    """A shape and a spec: 1-3D, prime/odd/tiny extents, windowed or
    global, both cubic variants, any axis order, anchor strides 2-64."""
    ndim = draw(st.integers(1, 3))
    top = {1: 300, 2: 48, 3: 20}[ndim]
    shape = tuple(draw(st.one_of(st.sampled_from(_PRIMES),
                                 st.integers(2, top)))
                  for _ in range(ndim))
    windowed = draw(st.booleans())
    spec = InterpSpec(
        anchor_stride=draw(st.sampled_from([2, 4, 8, 16, 32, 64])),
        window_shape=tuple(draw(st.sampled_from([2, 3, 5, 9, 17, 33]))
                           for _ in range(ndim)) if windowed else None,
        cubic_variant=tuple(draw(st.sampled_from([CUBIC_NAK, CUBIC_NAT]))
                            for _ in range(ndim)),
        axis_order=tuple(draw(st.permutations(range(ndim)))))
    return shape, spec


class TestKernelEquivalence:
    """The weight-row kernel, on every geometry and slab cut, against the
    gather oracle."""

    @settings(max_examples=80, deadline=None)
    @given(geom=_geometries(),
           group_elements=st.sampled_from([1, 7, plans.ROW_GROUP_ELEMENTS]),
           fold_min=st.sampled_from([1, 3, plans._FOLD_MIN]),
           radius=st.sampled_from([8, None]), seed=st.integers(0, 3))
    def test_property_matches_oracle(self, geom, group_elements, fold_min,
                                     radius, seed):
        shape, spec = geom
        plan = _plan_with(shape, spec, group_elements, fold_min)
        data = _field(shape, seed)
        eb = 1e-3 * float(data.max() - data.min()) or 1e-3
        q = LinearQuantizer(radius) if radius else None
        ref = reference_compress(data, spec, eb, q)
        got = interp_compress(data, spec, eb, q, plan=plan)
        assert ref.codes.tobytes() == got.codes.tobytes()
        assert ref.outliers.tobytes() == got.outliers.tobytes()
        assert ref.reconstructed.tobytes() == got.reconstructed.tobytes()
        out = interp_decompress(shape, spec, eb, got.codes, got.outliers,
                                got.anchors, q, plan=plan)
        assert out.tobytes() == ref.reconstructed.tobytes()

    @pytest.mark.parametrize("shape,spec", [
        ((4099,), InterpSpec(anchor_stride=64, window_shape=(33,))),
        ((3001,), InterpSpec(anchor_stride=16)),
        ((301, 7), InterpSpec(anchor_stride=8, window_shape=(17, 9),
                              axis_order=(1, 0)))], ids=["1d", "1d-global",
                                                         "2d"])
    def test_folded_row_slabs_match_oracle(self, shape, spec):
        """Small slabs make every axis-0 pass fold its periodic stretch."""
        plan = _plan_with(shape, spec, 16, fold_min=4)
        assert any(len(g.shape) > len(shape) for cp in plan.passes
                   for g in cp.groups)
        data = _field(shape)
        ref = reference_compress(data, spec, 1e-3)
        got = interp_compress(data, spec, 1e-3, plan=plan)
        assert ref.codes.tobytes() == got.codes.tobytes()
        assert ref.reconstructed.tobytes() == got.reconstructed.tobytes()

    def test_axis0_weight_rows_do_not_grow_with_extent(self):
        """Folding keeps a 1D plan's weight rows bounded: 16x the extent
        leaves them about the same size, far below one row per target."""
        spec = InterpSpec(anchor_stride=512, window_shape=(2049,))
        small = compile_plan((1 << 18,), spec.resolved(1)).nbytes
        large = compile_plan((1 << 22,), spec.resolved(1)).nbytes
        assert large <= 1.25 * small
        assert large < 8 * (1 << 22) // 4


class TestPlanCache:
    def setup_method(self):
        clear_plan_cache()

    def teardown_method(self):
        clear_plan_cache()

    def test_hit_and_identity(self):
        spec = InterpSpec(anchor_stride=8).resolved(2)
        p1 = get_plan((32, 32), spec)
        p2 = get_plan((32, 32), spec)
        assert p1 is p2
        stats = plan_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_alpha_beta_excluded_from_key(self):
        base = InterpSpec(anchor_stride=8).resolved(2)
        tuned = InterpSpec(anchor_stride=8, alpha=1.75,
                           beta=4.0).resolved(2)
        assert get_plan((32, 32), base) is get_plan((32, 32), tuned)

    def test_geometry_changes_key(self):
        a = get_plan((32, 32), InterpSpec(anchor_stride=8).resolved(2))
        b = get_plan((32, 32), InterpSpec(anchor_stride=16).resolved(2))
        c = get_plan((32, 32), InterpSpec(
            anchor_stride=8, window_shape=(9, 17)).resolved(2))
        assert a is not b and a is not c

    def test_lru_eviction(self):
        old = set_plan_cache_limit(2)
        try:
            spec = InterpSpec(anchor_stride=8)
            get_plan((16, 16), spec.resolved(2))
            get_plan((24, 24), spec.resolved(2))
            get_plan((32, 32), spec.resolved(2))   # evicts (16, 16)
            assert plan_cache_stats()["size"] == 2
            before = plan_cache_stats()["misses"]
            get_plan((16, 16), spec.resolved(2))
            assert plan_cache_stats()["misses"] == before + 1
        finally:
            set_plan_cache_limit(old)

    def test_bad_limit_rejected(self):
        with pytest.raises(ConfigError):
            set_plan_cache_limit(0)

    def test_compress_then_decompress_share_plan(self):
        spec = InterpSpec(anchor_stride=8)
        data = _field((40, 40))
        res = interp_compress(data, spec, 1e-3)
        before = plan_cache_stats()["hits"]
        interp_decompress(data.shape, spec, 1e-3, res.codes, res.outliers,
                          res.anchors)
        after = plan_cache_stats()
        assert after["hits"] == before + 1 and after["misses"] == 1

    def test_retune_at_new_eb_hits(self):
        # alpha changes with eb but addressing does not: the re-tuned
        # compress must reuse the compiled plan
        data = _field((40, 40))
        interp_compress(data, InterpSpec(anchor_stride=8, alpha=1.5), 1e-3)
        before = plan_cache_stats()
        interp_compress(data, InterpSpec(anchor_stride=8, alpha=1.9), 1e-2)
        after = plan_cache_stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1

    def test_compile_plan_uncached(self):
        spec = InterpSpec(anchor_stride=8).resolved(2)
        a = compile_plan((32, 32), spec)
        b = compile_plan((32, 32), spec)
        assert a is not b
        assert plan_cache_stats()["size"] == 0


def _worker_probe(shape):
    """Runs in a forked worker: fresh cache, two compressions."""
    clear_plan_cache()
    data = _field(shape)
    interp_compress(data, InterpSpec(anchor_stride=8), 1e-3)
    interp_compress(data, InterpSpec(anchor_stride=8), 1e-3)
    return plan_cache_stats()


class TestCrossProcessReuse:
    def test_worker_compiles_once_then_reuses(self):
        clear_plan_cache()
        ctx = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=1, mp_context=ctx) as pool:
            stats = pool.submit(_worker_probe, (40, 40)).result(timeout=60)
        assert stats["misses"] == 1 and stats["hits"] == 1
        # worker caches are per-process: the parent saw none of it
        assert plan_cache_stats()["size"] == 0


def _decompress(compiled):
    """The library traversal, or (``compiled=False``) the reference
    oracle: both must reject the same corrupt streams."""
    return interp_decompress if compiled else reference_decompress


class TestCorruptStreams:
    @pytest.fixture
    def archive(self):
        spec = InterpSpec(anchor_stride=8)
        data = rough_field((24, 24, 24))
        eb = 1e-4 * float(data.max() - data.min())
        q = LinearQuantizer(radius=8)
        res = interp_compress(data, spec, eb, q)
        assert res.outliers.size > 0
        return data.shape, spec, eb, q, res

    @pytest.mark.parametrize("compiled", [True, False])
    def test_truncated_codes(self, archive, compiled):
        shape, spec, eb, q, res = archive
        with pytest.raises(CorruptStreamError, match="exhausted"):
            _decompress(compiled)(shape, spec, eb, res.codes[:-7],
                                  res.outliers, res.anchors, q)

    @pytest.mark.parametrize("compiled", [True, False])
    def test_trailing_codes(self, archive, compiled):
        shape, spec, eb, q, res = archive
        padded = np.concatenate([res.codes,
                                 np.zeros(3, dtype=res.codes.dtype)])
        with pytest.raises(CorruptStreamError, match="trailing"):
            _decompress(compiled)(shape, spec, eb, padded, res.outliers,
                                  res.anchors, q)

    @pytest.mark.parametrize("compiled", [True, False])
    def test_truncated_outliers(self, archive, compiled):
        shape, spec, eb, q, res = archive
        with pytest.raises(CorruptStreamError, match="outlier"):
            _decompress(compiled)(shape, spec, eb, res.codes,
                                  res.outliers[:res.outliers.size // 2],
                                  res.anchors, q)

    @pytest.mark.parametrize("compiled", [True, False])
    def test_trailing_outliers(self, archive, compiled):
        shape, spec, eb, q, res = archive
        padded = np.concatenate([res.outliers, res.outliers[:2]])
        with pytest.raises(CorruptStreamError, match="trailing"):
            _decompress(compiled)(shape, spec, eb, res.codes, padded,
                                  res.anchors, q)

    def test_dequantize_direct_guard(self):
        q = LinearQuantizer(radius=8)
        codes = np.zeros(5, dtype=np.uint32)     # five outlier codes
        preds = np.zeros(5)
        with pytest.raises(CorruptStreamError):
            q.dequantize(codes, preds, 1e-3,
                         np.zeros(2, dtype=np.float32), 0)


class TestNonFiniteGuards:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("compiled", [True, False])
    def test_compress_rejects(self, bad, compiled):
        data = _field((24, 24))
        data[3, 7] = bad
        compress = interp_compress if compiled else reference_compress
        with pytest.raises(DataError, match="non-finite"):
            compress(data, InterpSpec(anchor_stride=8), 1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_autotune_rejects(self, bad):
        data = smooth_field((24, 24, 24))
        data[1, 2, 3] = bad
        with pytest.raises(DataError, match="non-finite"):
            autotune(data, 1e-3)


class TestProfileGatherMicroFix:
    def test_matches_per_offset_reference(self):
        """The single advanced-index gather must reproduce the old
        four-copies-per-axis neighbor matrix bit for bit."""
        data = smooth_field((20, 24, 16), seed=3)
        got = profile_cubic_errors(data)

        ndim = data.ndim
        ref = np.zeros((ndim, 2), dtype=np.float64)
        margin, samples = 3, 4
        coords = []
        for n in data.shape:
            lo, hi = margin, n - 1 - margin
            coords.append(np.unique(np.linspace(lo, hi, samples)
                                    .astype(np.int64)))
        grids = np.meshgrid(*coords, indexing="ij")
        flat_pts = np.stack([g.ravel() for g in grids], axis=1)
        values = data[tuple(flat_pts.T)].astype(np.float64)
        for ax in range(ndim):
            n = data.shape[ax]
            pos = flat_pts[:, ax]
            ok = (pos + 3 <= n - 1) & (pos - 3 >= 0)
            pts = flat_pts[ok]
            vals = values[ok]
            neigh = np.empty((pts.shape[0], 4), dtype=np.float64)
            for j, off in enumerate((-3, -1, 1, 3)):
                moved = pts.copy()
                moved[:, ax] += off
                neigh[:, j] = data[tuple(moved.T)].astype(np.float64)
            ref[ax, 0] = np.abs(neigh @ SPLINE_WEIGHTS[CUBIC_NAK]
                                - vals).sum()
            ref[ax, 1] = np.abs(neigh @ SPLINE_WEIGHTS[CUBIC_NAT]
                                - vals).sum()
        assert got.tobytes() == ref.tobytes()
