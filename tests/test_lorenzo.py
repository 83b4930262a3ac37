"""Unit tests for the dual-quant Lorenzo primitive."""

import numpy as np
import pytest

from conftest import EB_SLACK, smooth_field
from repro.baselines.lorenzo import (lorenzo_delta, lorenzo_prequantize,
                                     lorenzo_reconstruct, merge_outliers,
                                     split_outliers)
from repro.common.errors import ConfigError


class TestDualQuant:
    @pytest.mark.parametrize("shape", [(100,), (20, 30), (10, 12, 14)])
    def test_roundtrip_exact_integers(self, shape, rng):
        data = rng.normal(0, 5, shape)
        eb = 0.01
        p = lorenzo_prequantize(data, eb)
        delta = lorenzo_delta(p)
        recon = lorenzo_reconstruct(delta, eb)
        # scan exactly inverts the difference: recon == 2eb * p
        np.testing.assert_allclose(recon, 2 * eb * p, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(500,), (30, 40), (16, 18, 20)])
    def test_error_bound(self, shape, rng):
        data = rng.normal(0, 5, shape)
        eb = 0.003
        recon = lorenzo_reconstruct(
            lorenzo_delta(lorenzo_prequantize(data, eb)), eb)
        assert np.abs(recon - data).max() <= eb * EB_SLACK

    def test_smooth_data_concentrates_deltas(self):
        data = smooth_field((32, 32, 32), seed=0).astype(np.float64)
        eb = 1e-2 * (data.max() - data.min())
        delta = lorenzo_delta(lorenzo_prequantize(data, eb))
        # dual-quant lattice noise keeps ~half the deltas at +-1, but the
        # distribution must be tightly centered (smoothness pays off)
        assert (np.abs(delta) <= 1).mean() > 0.9
        assert (delta == 0).mean() > 0.3

    def test_delta_is_integer_exact(self, rng):
        p = rng.integers(-1000, 1000, (8, 9, 10))
        delta = lorenzo_delta(p)
        # sum of all deltas telescopes back to the corner-sum identity
        q = delta.copy()
        for ax in range(3):
            q = np.cumsum(q, axis=ax)
        np.testing.assert_array_equal(q, p)

    def test_non_finite_eb(self):
        for eb in (np.nan, np.inf):
            with pytest.raises(ConfigError):
                lorenzo_prequantize(np.zeros(4), eb)
            with pytest.raises(ConfigError):
                lorenzo_reconstruct(np.zeros(4, np.int64), eb)

    def test_bad_eb(self):
        with pytest.raises(ConfigError):
            lorenzo_prequantize(np.zeros(4), 0.0)
        with pytest.raises(ConfigError):
            lorenzo_reconstruct(np.zeros(4, np.int64), -1.0)


class TestOutliers:
    def test_split_merge_roundtrip(self, rng):
        delta = rng.integers(-2000, 2000, 5000)
        codes, outliers = split_outliers(delta, 512)
        back = merge_outliers(codes, outliers, 512)
        np.testing.assert_array_equal(back, delta)

    def test_reserved_code_zero(self):
        delta = np.array([0, 511, -511, 512, -512, 100000])
        codes, outliers = split_outliers(delta, 512)
        np.testing.assert_array_equal(codes, [512, 1023, 1, 0, 0, 0])
        np.testing.assert_array_equal(outliers, [512, -512, 100000])

    def test_no_outliers(self):
        delta = np.arange(-10, 10)
        codes, outliers = split_outliers(delta, 512)
        assert outliers.size == 0
        np.testing.assert_array_equal(merge_outliers(codes, outliers, 512),
                                      delta)

    def test_merge_count_mismatch_rejected(self):
        codes = np.array([0, 512], np.uint32)
        with pytest.raises(ConfigError):
            merge_outliers(codes, np.array([], np.int64), 512)
