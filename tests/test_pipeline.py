"""Unit tests for the cuSZ-i end-to-end pipeline specifics."""

import numpy as np
import pytest

from conftest import assert_error_bounded, smooth_field
from repro.common.container import parse_container
from repro.common.errors import ConfigError, DataError
from repro.common.lossless_wrap import unwrap_lossless
from repro.core.pipeline import (CuSZi, DEFAULT_ANCHOR_STRIDE,
                                 DEFAULT_WINDOW, resolve_eb)


class TestResolveEb:
    def test_abs_passthrough(self):
        assert resolve_eb(np.array([0.0, 10.0]), 0.5, "abs") == 0.5

    def test_rel_scales_by_range(self):
        assert resolve_eb(np.array([0.0, 10.0]), 0.01, "rel") \
            == pytest.approx(0.1)

    def test_rel_constant_field(self):
        assert resolve_eb(np.full(4, 2.0), 0.01, "rel") == 0.01

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            resolve_eb(np.zeros(4), 0.1, "psnr")

    def test_bad_eb(self):
        with pytest.raises(ConfigError):
            resolve_eb(np.zeros(4), -1.0, "abs")

    @pytest.mark.parametrize("mode", ["abs", "rel"])
    def test_non_finite_eb(self, mode):
        for eb in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigError):
                resolve_eb(np.array([0.0, 10.0]), eb, mode)

    def test_rel_eb_overflowing_to_inf(self):
        with pytest.raises(ConfigError, match="relative error bound"):
            resolve_eb(np.array([-1e300, 1e300]), 1e10, "rel")


class TestGeometry:
    def test_paper_defaults(self):
        assert DEFAULT_ANCHOR_STRIDE == {1: 512, 2: 16, 3: 8}
        assert DEFAULT_WINDOW[3] == (9, 9, 33)

    def test_custom_stride_derives_window(self):
        c = CuSZi(anchor_stride=16)
        stride, window = c._geometry(3)
        assert stride == 16
        assert window == (17, 17, 65)

    def test_windows_disabled(self):
        stride, window = CuSZi(use_windows=False)._geometry(3)
        assert window is None


class TestPipeline:
    def test_stats_accounting(self):
        data = smooth_field(seed=40)
        c = CuSZi(eb=1e-3, mode="rel", lossless="gle")
        blob, stats = c.compress_detailed(data)
        assert stats.compressed_nbytes == len(blob)
        assert stats.original_nbytes == data.nbytes
        assert stats.ratio == pytest.approx(data.nbytes / len(blob))
        assert stats.bit_rate == pytest.approx(8 * len(blob) / data.size)
        assert set(stats.segment_nbytes) == {"huffman", "outliers",
                                             "anchors"}
        assert 0 <= stats.nonzero_code_fraction <= 1
        assert stats.tuning["alpha"] >= 1.0

    def test_header_records_tuning(self):
        data = smooth_field(seed=41)
        c = CuSZi(eb=1e-3, mode="rel")
        blob = c.compress(data)
        codec, meta, _ = parse_container(unwrap_lossless(blob))
        assert codec == "cuszi"
        spec = meta["spec"]
        assert spec["anchor_stride"] == 8
        assert sorted(spec["axis_order"]) == [0, 1, 2]
        assert spec["alpha"] >= 1.0

    def test_window_geometry_forces_wide_axis_last(self):
        # Fig. 2-5: the 33-window axis is interpolated last
        data = smooth_field(seed=42)
        c = CuSZi(eb=1e-3, mode="rel")
        blob = c.compress(data)
        _, meta, _ = parse_container(unwrap_lossless(blob))
        assert meta["spec"]["axis_order"][-1] == 2

    def test_decompress_needs_no_params(self):
        data = smooth_field(seed=43)
        rng = float(data.max() - data.min())
        blob = CuSZi(eb=1e-4, mode="rel", lossless="gle",
                     alpha=1.8).compress(data)
        out = CuSZi().decompress(blob)   # default-constructed decoder
        assert_error_bounded(data, out, 1e-4 * rng)

    def test_tune_off_still_bounded(self):
        data = smooth_field(seed=44)
        rng = float(data.max() - data.min())
        c = CuSZi(eb=1e-3, mode="rel", tune=False)
        assert_error_bounded(data, c.decompress(c.compress(data)),
                             1e-3 * rng)

    def test_pad_variant(self):
        data = smooth_field((30, 30, 30), seed=45)
        rng = float(data.max() - data.min())
        c = CuSZi(eb=1e-3, mode="rel", pad=True)
        out = c.decompress(c.compress(data))
        assert out.shape == data.shape
        assert_error_bounded(data, out, 1e-3 * rng)

    def test_4d_rejected(self):
        from repro.common.errors import ReproError
        with pytest.raises(ReproError):
            CuSZi().compress(np.zeros((2, 2, 2, 2), dtype=np.float32))

    def test_alpha_override_recorded(self):
        data = smooth_field(seed=46)
        c = CuSZi(eb=1e-3, mode="rel", alpha=1.9)
        blob = c.compress(data)
        _, meta, _ = parse_container(unwrap_lossless(blob))
        assert meta["spec"]["alpha"] == pytest.approx(1.9)

    def test_gle_never_larger_than_none_plus_frame(self):
        data = smooth_field(seed=47)
        plain = CuSZi(eb=1e-2, mode="rel", lossless="none").compress(data)
        packed = CuSZi(eb=1e-2, mode="rel", lossless="gle").compress(data)
        assert len(packed) <= len(plain) + 16

    def test_anchor_segment_size(self):
        data = smooth_field((33, 33, 33), seed=48)
        c = CuSZi(eb=1e-3, mode="rel", lossless="none")
        _, stats = c.compress_detailed(data)
        assert stats.segment_nbytes["anchors"] == 5 * 5 * 5 * 4


class TestStatsDegenerateInputs:
    """Regression: ratio/bit_rate must not raise on degenerate sizes."""

    def test_empty_stats_do_not_divide_by_zero(self):
        from repro.core.pipeline import CompressionStats
        s = CompressionStats(n_elements=0, original_nbytes=0,
                             compressed_nbytes=0)
        assert s.ratio == 1.0
        assert s.bit_rate == 0.0

    def test_zero_compressed_bytes_gives_inf_ratio(self):
        from repro.core.pipeline import CompressionStats
        s = CompressionStats(n_elements=10, original_nbytes=40,
                             compressed_nbytes=0)
        assert s.ratio == float("inf")

    def test_one_element_field_roundtrip(self):
        c = CuSZi(eb=1e-3, mode="abs")
        data = np.array([3.25], dtype=np.float32)
        blob, stats = c.compress_detailed(data)
        assert np.isfinite(stats.ratio) and np.isfinite(stats.bit_rate)
        assert stats.nonzero_code_fraction == 0.0
        recon = c.decompress(blob)
        assert recon.shape == (1,)
        assert abs(float(recon[0]) - 3.25) <= 1e-3

    def test_one_element_2d_field_roundtrip(self):
        c = CuSZi(eb=1e-3, mode="abs", lossless="none")
        data = np.array([[7.5]], dtype=np.float32)
        recon = c.decompress(c.compress(data))
        assert recon.shape == (1, 1)
        assert abs(float(recon[0, 0]) - 7.5) <= 1e-3


def _with_bad_value(bad, dtype=np.float32):
    data = smooth_field((20, 24, 28)).astype(dtype)
    data[4, 5, 6] = bad
    return data


def _overflowing():
    """Finite, but so large that a reconstruction could overflow."""
    data = np.full((16, 16), 5e307)
    data[3, 5] = -5e307
    return data


_BAD = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])


class TestOneRangeScan:
    """A cuSZ-i compress takes one min/max of its input, for the
    finiteness check, the rel bound, autotune and the overflow bound;
    every public entry point still guards on its own."""

    @_BAD
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_validate_field_rejects(self, bad, dtype):
        from repro.common.arrayutils import validate_field
        with pytest.raises(DataError):
            validate_field(_with_bad_value(bad, dtype))

    @_BAD
    def test_finite_bounds_rejects(self, bad):
        from repro.common.arrayutils import finite_bounds
        with pytest.raises(DataError, match="non-finite"):
            finite_bounds(_with_bad_value(bad))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_finite_bounds_range_is_value_range(self, dtype):
        from repro.common.arrayutils import finite_bounds, value_range
        data = smooth_field((9, 10, 11)).astype(dtype) * 1e3 + 0.1
        lo, hi = finite_bounds(data)
        assert lo.dtype == dtype and hi.dtype == dtype
        assert float(hi - lo) == value_range(data)

    @_BAD
    def test_autotune_rejects(self, bad):
        from repro.core.ginterp.autotune import autotune
        with pytest.raises(DataError, match="non-finite"):
            autotune(_with_bad_value(bad), 1e-3)

    @_BAD
    def test_interp_compress_rejects(self, bad):
        from repro.core.ginterp import InterpSpec, interp_compress
        with pytest.raises(DataError, match="non-finite"):
            interp_compress(_with_bad_value(bad), InterpSpec(), 1e-3)

    def test_interp_compress_rejects_overflow(self):
        from repro.core.ginterp import InterpSpec, interp_compress
        with pytest.raises(DataError, match="overflow"):
            interp_compress(_overflowing(), InterpSpec(anchor_stride=8),
                            1e-3)

    @_BAD
    @pytest.mark.parametrize("mode", ["abs", "rel"])
    def test_compress_rejects(self, bad, mode):
        with pytest.raises(DataError, match="non-finite"):
            CuSZi(eb=1e-3, mode=mode).compress(_with_bad_value(bad))

    def test_compress_rejects_overflow(self):
        with pytest.raises(DataError, match="overflow"):
            CuSZi(eb=1e-3, mode="abs").compress(_overflowing())

    def test_compress_hands_its_scan_down(self, monkeypatch):
        """autotune and the traversal get the pipeline's range and
        bounds, so neither scans the input again."""
        import repro.core.pipeline as pipeline
        seen = {}

        def spy(name):
            real = getattr(pipeline, name)

            def call(*args, **kwargs):
                seen[name] = kwargs
                return real(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, call)

        spy("autotune")
        spy("interp_compress")
        data = smooth_field((20, 24, 28))
        CuSZi(eb=1e-3, mode="rel").compress(data)
        assert seen["autotune"]["value_range"] == float(data.max()
                                                        - data.min())
        lo, hi = seen["interp_compress"]["value_bounds"]
        assert (lo, hi) == (data.min(), data.max())
