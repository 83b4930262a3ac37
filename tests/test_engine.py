"""Unit + property tests for the interpolation engine (paper §V)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_error_bounded, rough_field, smooth_field
from repro.common.errors import ConfigError
from repro.common.quantizer import LinearQuantizer
from repro.core.ginterp import (InterpSpec, interp_compress,
                                interp_decompress, level_error_bounds,
                                pass_plan)
from repro.core.ginterp.splines import CUBIC_NAT


class TestInterpSpec:
    def test_bad_anchor_stride(self):
        with pytest.raises(ConfigError):
            InterpSpec(anchor_stride=6)
        with pytest.raises(ConfigError):
            InterpSpec(anchor_stride=1)

    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            InterpSpec(alpha=0.5)

    @pytest.mark.parametrize("alpha,beta", [(math.inf, 2.0),
                                            (math.nan, 2.0),
                                            (1.5, math.nan)])
    def test_non_finite_level_params(self, alpha, beta):
        # a non-finite alpha (or NaN beta) would turn level error bounds
        # into 0 or NaN, which decode silently
        with pytest.raises(ConfigError):
            InterpSpec(alpha=alpha, beta=beta)

    def test_n_levels(self):
        assert InterpSpec(anchor_stride=8).n_levels == 3
        assert InterpSpec(anchor_stride=64).n_levels == 6

    def test_resolved_defaults(self):
        spec = InterpSpec(anchor_stride=8).resolved(3)
        assert spec.cubic_variant == (0, 0, 0)
        assert spec.axis_order == (0, 1, 2)

    def test_resolved_rejects_bad_order(self):
        with pytest.raises(ConfigError):
            InterpSpec(anchor_stride=8, axis_order=(0, 0, 1),
                       cubic_variant=(0, 0, 0)).resolved(3)

    def test_resolved_rejects_rank_mismatch(self):
        with pytest.raises(ConfigError):
            InterpSpec(anchor_stride=8, window_shape=(9, 9)).resolved(3)

    def test_meta_roundtrip(self):
        spec = InterpSpec(anchor_stride=8, window_shape=(9, 9, 33),
                          cubic_variant=(0, 1, 0), axis_order=(2, 0, 1),
                          alpha=1.5, beta=4.0)
        back = InterpSpec.from_meta(spec.to_meta())
        assert back == spec

    def test_meta_roundtrip_infinite_beta(self):
        spec = InterpSpec(anchor_stride=16).resolved(2)
        back = InterpSpec.from_meta(spec.to_meta())
        assert back == spec


class TestPassPlan:
    def test_level_strides(self):
        spec = InterpSpec(anchor_stride=8).resolved(3)
        plan = pass_plan(3, spec)
        assert [p.stride for p in plan] == [4, 4, 4, 2, 2, 2, 1, 1, 1]

    def test_axis_order_respected(self):
        spec = InterpSpec(anchor_stride=4, axis_order=(2, 0, 1),
                          cubic_variant=(0, 0, 0)).resolved(3)
        plan = pass_plan(3, spec)
        assert [p.axis for p in plan[:3]] == [2, 0, 1]

    def test_steps_tighten_within_level(self):
        spec = InterpSpec(anchor_stride=4).resolved(2)
        plan = pass_plan(2, spec)
        assert plan[0].steps == (4, 4)
        assert plan[1].steps == (2, 4)   # axis 0 now refined

    def test_targets_cover_everything_once(self):
        # union of all pass targets + anchors == all points, no repeats
        from repro.core.ginterp.plans import _axis_indices
        shape = (13, 10, 17)
        spec = InterpSpec(anchor_stride=8).resolved(3)
        seen = np.zeros(shape, dtype=int)
        seen[::8, ::8, ::8] += 1  # anchors
        for p in pass_plan(3, spec):
            idx = _axis_indices(shape, p)
            grid = np.ix_(*idx)
            seen[grid] += 1
        assert (seen == 1).all()


class TestLevelErrorBounds:
    def test_alpha_one_uniform(self):
        spec = InterpSpec(anchor_stride=8, alpha=1.0)
        ebs = level_error_bounds(0.1, spec)
        assert all(v == 0.1 for v in ebs.values())

    def test_alpha_reduces_high_levels(self):
        spec = InterpSpec(anchor_stride=8, alpha=2.0)
        ebs = level_error_bounds(0.1, spec)
        assert ebs[1] == 0.1
        assert ebs[2] == pytest.approx(0.05)
        assert ebs[3] == pytest.approx(0.025)

    def test_beta_caps_reduction(self):
        spec = InterpSpec(anchor_stride=64, alpha=2.0, beta=4.0)
        ebs = level_error_bounds(0.1, spec)
        assert min(ebs.values()) == pytest.approx(0.1 / 4.0)


class TestRoundTrip:
    @pytest.mark.parametrize("shape,stride,window", [
        ((33, 25, 17), 8, (9, 9, 33)),
        ((40, 44, 36), 8, None),
        ((65, 30), 16, (17, 65)),
        ((600,), 512, (2049,)),
        ((20, 20, 20), 4, None),
    ])
    def test_exact_replay(self, shape, stride, window):
        data = smooth_field(shape, seed=3)
        eb = 1e-3 * float(data.max() - data.min())
        spec = InterpSpec(anchor_stride=stride, window_shape=window,
                          alpha=1.25)
        res = interp_compress(data, spec, eb)
        dec = interp_decompress(shape, spec, eb, res.codes, res.outliers,
                                res.anchors)
        np.testing.assert_array_equal(dec, res.reconstructed)

    def test_error_bound_smooth(self):
        data = smooth_field(seed=4)
        eb = 1e-3 * float(data.max() - data.min())
        spec = InterpSpec(anchor_stride=8, window_shape=(9, 9, 33))
        res = interp_compress(data, spec, eb)
        assert_error_bounded(data, res.reconstructed.astype(np.float32), eb)

    def test_error_bound_rough(self):
        data = rough_field(seed=5)
        eb = 1e-4 * float(data.max() - data.min())
        spec = InterpSpec(anchor_stride=8, window_shape=(9, 9, 33))
        res = interp_compress(data, spec, eb)
        assert_error_bounded(data, res.reconstructed.astype(np.float32), eb)

    def test_code_count_matches_non_anchor_points(self):
        data = smooth_field((17, 17, 17), seed=6)
        spec = InterpSpec(anchor_stride=8)
        res = interp_compress(data, spec, 0.01)
        n_anchors = 3 ** 3
        assert res.codes.size == data.size - n_anchors

    def test_natural_cubic_variant_changes_codes(self):
        data = smooth_field(seed=7)
        eb = 1e-3 * float(data.max() - data.min())
        a = interp_compress(data, InterpSpec(
            anchor_stride=8, cubic_variant=(0, 0, 0),
            axis_order=(0, 1, 2)), eb)
        b = interp_compress(data, InterpSpec(
            anchor_stride=8, cubic_variant=(CUBIC_NAT,) * 3,
            axis_order=(0, 1, 2)), eb)
        assert not np.array_equal(a.codes, b.codes)

    def test_window_confinement_reduces_accuracy(self):
        # the paper's accuracy-parallelism tradeoff (§V-A): confined
        # interpolation cannot beat global interpolation in nonzero codes
        data = rough_field((48, 48, 48), seed=8)
        eb = 1e-3 * float(data.max() - data.min())
        win = interp_compress(data, InterpSpec(
            anchor_stride=8, window_shape=(9, 9, 33)), eb)
        glob = interp_compress(data, InterpSpec(
            anchor_stride=8, window_shape=None), eb)
        nz_win = (win.codes != 512).sum()
        nz_glob = (glob.codes != 512).sum()
        assert nz_glob <= nz_win

    def test_outliers_replayed(self):
        # rough data at tight eb creates outliers; replay must stay exact
        data = rough_field((24, 24, 24), seed=9) * 1000
        eb = 1e-7
        spec = InterpSpec(anchor_stride=8)
        quant = LinearQuantizer(16)
        res = interp_compress(data, spec, eb, quant)
        assert res.outliers.size > 0
        dec = interp_decompress(data.shape, spec, eb, res.codes,
                                res.outliers, res.anchors, quant)
        np.testing.assert_array_equal(dec, res.reconstructed)

    def test_deterministic(self):
        data = smooth_field(seed=10)
        spec = InterpSpec(anchor_stride=8, window_shape=(9, 9, 33))
        a = interp_compress(data, spec, 0.001)
        b = interp_compress(data, spec, 0.001)
        np.testing.assert_array_equal(a.codes, b.codes)

    @given(st.integers(0, 10**6), st.sampled_from([1e-2, 1e-3, 1e-4]))
    @settings(max_examples=15, deadline=None)
    def test_bound_property(self, seed, rel_eb):
        data = smooth_field((24, 20, 18), seed=seed)
        rng = float(data.max() - data.min())
        eb = rel_eb * rng if rng > 0 else rel_eb
        spec = InterpSpec(anchor_stride=8, window_shape=(9, 9, 33),
                          alpha=1.5)
        res = interp_compress(data, spec, eb)
        dec = interp_decompress(data.shape, spec, eb, res.codes,
                                res.outliers, res.anchors)
        np.testing.assert_array_equal(dec, res.reconstructed)
        assert_error_bounded(data, dec.astype(np.float32), eb)
