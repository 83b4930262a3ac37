"""Unit + property tests for the error-bounded quantizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError, CorruptStreamError
from repro.common.quantizer import DEFAULT_RADIUS, LinearQuantizer


class TestBasics:
    def test_alphabet_size(self):
        assert LinearQuantizer(512).n_codes == 1024

    def test_radius_too_small(self):
        with pytest.raises(ConfigError):
            LinearQuantizer(1)

    def test_bad_value_dtype(self):
        with pytest.raises(ConfigError):
            LinearQuantizer(value_dtype=np.int32)

    def test_non_finite_eb(self):
        # NaN compares False with 0, and used to come back as codes
        # outside the alphabet with no outliers
        q = LinearQuantizer()
        for eb in (np.nan, np.inf):
            with pytest.raises(ConfigError):
                q.quantize(np.ones(4, np.float32), np.zeros(4), eb)
            with pytest.raises(ConfigError):
                q.dequantize(np.ones(4, np.uint32), np.zeros(4), eb,
                             np.zeros(0, np.float32), 0)

    def test_bad_eb(self):
        q = LinearQuantizer()
        with pytest.raises(ConfigError):
            q.quantize(np.zeros(4), np.zeros(4), 0.0)
        with pytest.raises(ConfigError):
            q.dequantize(np.zeros(4, np.uint32), np.zeros(4), -1.0,
                         np.zeros(0, np.float32), 0)


class TestQuantizeDequantize:
    def test_exact_prediction_gives_center_code(self):
        q = LinearQuantizer(512)
        vals = np.array([1.0, 2.0, 3.0])
        res = q.quantize(vals, vals, 0.1)
        np.testing.assert_array_equal(res.codes, [512, 512, 512])
        assert res.n_outliers == 0

    def test_error_bound_holds(self, rng):
        q = LinearQuantizer(512)
        vals = rng.normal(0, 10, 5000)
        preds = vals + rng.normal(0, 0.5, 5000)
        eb = 0.05
        res = q.quantize(vals, preds, eb)
        recon32 = res.reconstructed.astype(np.float32).astype(np.float64)
        assert np.abs(recon32 - vals).max() <= eb * (1 + 1e-9)

    def test_roundtrip(self, rng):
        q = LinearQuantizer(256)
        vals = rng.normal(0, 1, 2000)
        preds = vals + rng.normal(0, 0.3, 2000)
        eb = 0.01
        res = q.quantize(vals, preds, eb)
        recon, cursor = q.dequantize(res.codes, preds, eb,
                                     res.outlier_values, 0)
        np.testing.assert_array_equal(recon, res.reconstructed)
        assert cursor == res.n_outliers

    def test_large_errors_become_outliers(self):
        q = LinearQuantizer(8)
        vals = np.array([0.0, 100.0])   # second is 1000 bins away
        preds = np.zeros(2)
        res = q.quantize(vals, preds, 0.05)
        assert res.codes[0] == 8
        assert res.codes[1] == 0        # reserved outlier code
        assert res.n_outliers == 1
        assert res.outlier_values[0] == np.float32(100.0)

    def test_outlier_reconstruction_exact_float32(self):
        q = LinearQuantizer(4)
        vals = np.array([12345.678])
        res = q.quantize(vals, np.zeros(1), 1e-6)
        recon, _ = q.dequantize(res.codes, np.zeros(1), 1e-6,
                                res.outlier_values, 0)
        assert np.float32(recon[0]) == np.float32(12345.678)

    def test_outlier_cursor_advances_across_passes(self, rng):
        q = LinearQuantizer(4)
        vals = rng.normal(0, 100, 50)
        preds = np.zeros(50)
        eb = 0.001
        res1 = q.quantize(vals[:25], preds[:25], eb)
        res2 = q.quantize(vals[25:], preds[25:], eb)
        all_outliers = np.concatenate([res1.outlier_values,
                                       res2.outlier_values])
        r1, cur = q.dequantize(res1.codes, preds[:25], eb, all_outliers, 0)
        r2, cur = q.dequantize(res2.codes, preds[25:], eb, all_outliers,
                               cur)
        assert cur == all_outliers.size
        np.testing.assert_array_equal(r1, res1.reconstructed)
        np.testing.assert_array_equal(r2, res2.reconstructed)

    def test_float64_value_dtype(self, rng):
        q = LinearQuantizer(512, value_dtype=np.float64)
        vals = rng.normal(0, 1, 100)
        res = q.quantize(vals, np.zeros(100), 1e-9)
        assert np.abs(res.reconstructed - vals).max() <= 1e-9

    @given(st.floats(1e-6, 1e3), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_bound_property(self, eb, seed):
        # When eb falls below a value's float32 spacing, the best any
        # float32-emitting codec can do is the nearest representable value
        # (the quantizer stores exactly that via the outlier path), so the
        # effective per-element bound is max(eb, spacing/2).
        rng = np.random.default_rng(seed)
        vals = rng.normal(0, 100, 64)
        preds = rng.normal(0, 100, 64)
        q = LinearQuantizer(DEFAULT_RADIUS)
        res = q.quantize(vals, preds, eb)
        recon32 = res.reconstructed.astype(np.float32).astype(np.float64)
        limit = np.maximum(eb, np.spacing(np.abs(vals).astype(np.float32)
                                          ).astype(np.float64))
        assert (np.abs(recon32 - vals) <= limit * (1 + 1e-9)).all()


def _unfused_dequantize(q, codes, preds, eb, outliers, cursor):
    """The pre-fusion lane arithmetic, spelled out: int64 code minus
    radius, upcast, ``p + ebx2*q``, then the outlier overwrite."""
    codes = np.asarray(codes, dtype=np.int64).ravel()
    recon = (np.asarray(preds, dtype=np.float64).ravel()
             + 2.0 * eb * (codes - q.radius).astype(np.float64))
    is_out = codes == 0
    n_out = int(is_out.sum())
    recon[is_out] = outliers[cursor:cursor + n_out].astype(np.float64)
    return recon, cursor + n_out


class TestDequantizeInto:
    @pytest.fixture(params=[np.float32, np.float64])
    def stream(self, request, rng):
        """Codes with ~1/3 outlier lanes behind a nonzero cursor."""
        dtype = request.param
        q = LinearQuantizer(8, value_dtype=dtype)
        vals = rng.normal(0, 1e-2, 600).astype(dtype)
        preds = vals.astype(np.float64) + rng.normal(0, 1e-2, 600)
        eb = 1e-3
        res = q.quantize(vals, preds, eb)
        assert 0 < res.n_outliers < vals.size
        stored = np.concatenate([np.full(5, 7.0, dtype),
                                 res.outlier_values])
        return q, res, preds, eb, stored

    def test_dequantize_matches_unfused_lanes(self, stream):
        q, res, preds, eb, stored = stream
        recon, cursor = q.dequantize(res.codes, preds, eb, stored, 5)
        ref, ref_cursor = _unfused_dequantize(q, res.codes, preds, eb,
                                              stored, 5)
        assert recon.tobytes() == ref.tobytes()
        assert recon.tobytes() == res.reconstructed.tobytes()
        assert cursor == ref_cursor == stored.size

    @pytest.mark.parametrize("staged", [False, True])
    def test_into_strided_view(self, stream, staged):
        # the decode traversal hands dequantize_into a strided n-d view of
        # its work array; lanes fill in flat (C) order of that view
        q, res, preds, eb, stored = stream
        work = np.full((60, 3, 20), -1.0)
        view = work[::2, 1, :]
        assert view.size == res.codes.size and not view.flags.contiguous
        q_buf = np.empty(view.size + 7) if staged else None
        cursor = q.dequantize_into(res.codes, preds, eb, view, stored, 5,
                                   q_buf=q_buf)
        assert cursor == stored.size
        assert view.ravel().tobytes() == res.reconstructed.tobytes()
        untouched = np.ones(work.shape, dtype=bool)
        untouched[::2, 1, :] = False
        assert (work[untouched] == -1.0).all()

    def test_exhausted_outliers(self, stream):
        q, res, preds, eb, stored = stream
        out = np.empty(res.codes.size)
        with pytest.raises(CorruptStreamError, match="exhausted"):
            q.dequantize_into(res.codes, preds, eb, out, stored, 6)

    def test_bad_eb(self):
        q = LinearQuantizer()
        with pytest.raises(ConfigError):
            q.dequantize_into(np.zeros(4, np.uint32), np.zeros(4), 0.0,
                              np.empty(4), np.zeros(0, np.float32), 0)


class TestSignedZeroPredictions:
    """A zero reconstruction carries the decoder's sign: ``code - radius``
    is ``+0.0``, so ``+0.0 + p`` is ``+0.0`` also for ``p = -0.0``. The
    compiled predict can emit ``-0.0`` where the oracle emits ``+0.0``,
    and values just below zero then round to a ``-0.0`` code."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_quantizers_agree_with_the_decoder(self, rng, dtype):
        n = 4096
        values = np.zeros(n, dtype)
        values[0::4] = -0.0
        values[1::4] = -rng.uniform(1e-9, 4e-4, n // 4)   # code q = -0.0
        values[2::4] = rng.uniform(1e-9, 4e-4, n // 4)
        values[3::4] = rng.normal(0, 1, n // 4)
        preds = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        q = LinearQuantizer(value_dtype=dtype)
        eb = 1e-3
        ref = q.quantize(values, preds, eb)
        codes = np.empty(n, np.uint32)
        recon, outliers = q.quantize_into(
            values, preds.copy(), eb, codes, v_buf=np.empty(n),
            q_buf=np.empty(n), r_buf=np.empty(n))
        out = np.empty(n)
        q.dequantize_into(codes, preds, eb, out, outliers, 0)
        assert codes.tobytes() == ref.codes.tobytes()
        assert recon.tobytes() == ref.reconstructed.tobytes()
        assert out.tobytes() == ref.reconstructed.tobytes()
        zero = ref.reconstructed == 0
        assert zero.sum() >= n // 2
        assert not np.signbit(ref.reconstructed[zero]).any()
