"""Cross-codec contract tests: every error-bounded compressor must satisfy
the same roundtrip, bound, dtype and robustness requirements."""

import math

import numpy as np
import pytest

from conftest import (EB_SLACK, assert_error_bounded, rough_field,
                      smooth_field, structured_field)
from repro.common.errors import CodecError, ConfigError, ReproError
from repro.registry import available, get_compressor

EB_CODECS = ["cusz", "cuszp", "cuszx", "fzgpu", "cuszi", "sz3", "qoz"]


@pytest.mark.parametrize("codec", EB_CODECS)
class TestContract:
    def test_roundtrip_3d_smooth(self, codec):
        data = smooth_field(seed=11)
        rng = float(data.max() - data.min())
        c = get_compressor(codec, eb=1e-3, mode="rel")
        out = c.decompress(c.compress(data))
        assert out.shape == data.shape
        assert out.dtype == data.dtype
        assert_error_bounded(data, out, 1e-3 * rng)

    def test_roundtrip_3d_rough(self, codec):
        data = rough_field((20, 22, 24), seed=12)
        rng = float(data.max() - data.min())
        c = get_compressor(codec, eb=1e-2, mode="rel")
        assert_error_bounded(data, c.decompress(c.compress(data)),
                             1e-2 * rng)

    def test_roundtrip_structured(self, codec):
        data = structured_field(seed=13)
        rng = float(data.max() - data.min())
        c = get_compressor(codec, eb=1e-4, mode="rel")
        assert_error_bounded(data, c.decompress(c.compress(data)),
                             1e-4 * rng)

    @pytest.mark.parametrize("shape", [(257,), (48, 52)])
    def test_roundtrip_lower_dims(self, codec, shape):
        data = smooth_field(shape, seed=14)
        rng = float(data.max() - data.min())
        c = get_compressor(codec, eb=1e-3, mode="rel")
        out = c.decompress(c.compress(data))
        assert out.shape == shape
        assert_error_bounded(data, out, 1e-3 * rng)

    def test_absolute_mode(self, codec):
        data = smooth_field(seed=15) * 100
        c = get_compressor(codec, eb=0.05, mode="abs")
        assert_error_bounded(data, c.decompress(c.compress(data)), 0.05)

    def test_awkward_shape(self, codec):
        data = smooth_field((37, 19, 23), seed=16)
        rng = float(data.max() - data.min())
        c = get_compressor(codec, eb=1e-3, mode="rel")
        out = c.decompress(c.compress(data))
        assert_error_bounded(data, out, 1e-3 * rng)

    def test_constant_field(self, codec):
        data = np.full((24, 24, 24), 3.75, dtype=np.float32)
        c = get_compressor(codec, eb=1e-3, mode="rel")
        out = c.decompress(c.compress(data))
        np.testing.assert_allclose(out, data, atol=2e-3)

    def test_gle_wrap_lossless_roundtrip(self, codec):
        data = smooth_field((24, 24, 24), seed=17)
        rng = float(data.max() - data.min())
        c = get_compressor(codec, eb=1e-3, mode="rel", lossless="gle")
        assert_error_bounded(data, c.decompress(c.compress(data)),
                             1e-3 * rng)

    def test_deterministic(self, codec):
        data = smooth_field((24, 24, 24), seed=18)
        c = get_compressor(codec, eb=1e-3, mode="rel")
        assert c.compress(data) == c.compress(data)

    def test_tighter_eb_larger_output(self, codec):
        data = rough_field((32, 32, 32), seed=19)
        loose = len(get_compressor(codec, eb=1e-1,
                                   mode="rel").compress(data))
        tight = len(get_compressor(codec, eb=1e-4,
                                   mode="rel").compress(data))
        assert tight > loose

    def test_rejects_wrong_codec_blob(self, codec):
        data = smooth_field((16, 16, 16), seed=20)
        other = "cusz" if codec != "cusz" else "cuszp"
        blob = get_compressor(other, eb=1e-2).compress(data)
        with pytest.raises(ReproError):
            get_compressor(codec, eb=1e-2).decompress(blob)

    def test_rejects_garbage_blob(self, codec):
        with pytest.raises(ReproError):
            get_compressor(codec).decompress(b"garbage bytes here")

    def test_rejects_nan_input(self, codec):
        data = smooth_field((16, 16, 16), seed=21)
        data[0, 0, 0] = np.nan
        with pytest.raises(ReproError):
            get_compressor(codec, eb=1e-2).compress(data)

    def test_float64_input(self, codec):
        data = smooth_field((24, 20, 22), seed=22).astype(np.float64)
        rng = float(data.max() - data.min())
        c = get_compressor(codec, eb=1e-4, mode="rel")
        out = c.decompress(c.compress(data))
        assert out.dtype == np.float64
        assert_error_bounded(data, out, 1e-4 * rng)


class TestCodecSpecific:
    def test_cusz_outliers_survive(self):
        # a spike forces Lorenzo deltas beyond the radius
        data = smooth_field((20, 20, 20), seed=23)
        data[10, 10, 10] += 500.0
        rng = float(data.max() - data.min())
        c = get_compressor("cusz", eb=1e-5, mode="rel")
        assert_error_bounded(data, c.decompress(c.compress(data)),
                             1e-5 * rng)

    def test_cuszp_zero_blocks_cheap(self):
        data = np.zeros((64, 64, 64), dtype=np.float32)
        data[0, 0, 0] = 1.0
        c = get_compressor("cuszp", eb=1e-2, mode="rel")
        blob = c.compress(data)
        # ~1 byte per 32-element block plus framing
        assert len(blob) < data.size / 16

    def test_cuszx_constant_blocks(self):
        data = np.ones((32, 32, 32), dtype=np.float32)
        data[:4] = 2.0
        c = get_compressor("cuszx", eb=1e-3, mode="rel")
        blob = c.compress(data)
        assert len(blob) < data.size / 20
        out = c.decompress(blob)
        assert np.abs(out - data).max() <= 1e-3 * EB_SLACK

    def test_fzgpu_radius_bound(self):
        with pytest.raises(ReproError):
            get_compressor("fzgpu", radius=40000)

    def test_sz3_beats_lorenzo_on_smooth(self):
        data = smooth_field((48, 48, 48), seed=24, scale=6.0)
        sz3 = len(get_compressor("sz3", eb=1e-3,
                                 mode="rel").compress(data))
        cusz = len(get_compressor("cusz", eb=1e-3,
                                  mode="rel").compress(data))
        assert sz3 < cusz

    def test_qoz_levelwise_eb_improves_psnr_over_sz3(self):
        from repro.common.metrics import psnr
        data = smooth_field((48, 48, 48), seed=25)
        out_q = get_compressor("qoz", eb=1e-3, mode="rel")
        out_s = get_compressor("sz3", eb=1e-3, mode="rel")
        p_q = psnr(data, out_q.decompress(out_q.compress(data)))
        p_s = psnr(data, out_s.decompress(out_s.compress(data)))
        assert p_q > p_s

    def test_cuszi_higher_psnr_than_cusz_same_eb(self):
        # the paper's Fig. 6 claim at codec level
        from repro.common.metrics import psnr
        data = smooth_field((48, 48, 48), seed=26)
        ci = get_compressor("cuszi", eb=1e-3, mode="rel")
        cz = get_compressor("cusz", eb=1e-3, mode="rel")
        p_i = psnr(data, ci.decompress(ci.compress(data)))
        p_z = psnr(data, cz.decompress(cz.compress(data)))
        assert p_i > p_z


EB_TAKING = [name for name in available() if name != "cuzfp"]


@pytest.mark.parametrize("codec", EB_TAKING)
def test_non_finite_error_bound_is_a_config_error(codec):
    """A NaN or infinite bound, or a relative one whose absolute value
    overflows, is refused as a configuration error before compressing:
    ``eb <= 0`` is False for NaN, so it used to slip through and fail
    late, differently per codec (or not at all)."""
    data = smooth_field((12, 10, 14), seed=27)
    for eb in (math.nan, math.inf, -math.inf):
        for mode in ("abs", "rel"):
            with pytest.raises(ConfigError, match="error bound"):
                get_compressor(codec, eb=eb, mode=mode).compress(data)
    wide = data.astype(np.float64) * 1e300
    with pytest.raises(ConfigError, match="error bound"):
        get_compressor(codec, eb=1e300, mode="rel").compress(wide)
