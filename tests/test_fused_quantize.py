"""Fused predict–quantize bit-exactness.

The compiled traversal emits quant-codes straight from the prediction
pass instead of materializing residuals and concatenating per-pass code
arrays. The contract: it is byte-identical to the uncompiled reference
traversal in ``oracles.py`` — codes, outliers, anchors, and
reconstruction — and therefore so is every downstream blob on every
execution path (pipeline, slab stream, tiled file, worker pool).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.pipeline as pipeline
from conftest import smooth_field
from oracles import reference_compress
from repro.common.quantizer import LinearQuantizer
from repro.core.ginterp import (InterpSpec, get_plan, interp_compress,
                                interp_decompress)
from repro.core.ginterp.plans import ROW_GROUP_ELEMENTS
from repro.core.pipeline import CuSZi
from repro.runtime.pool import map_compress, map_decompress
from repro.runtime.tiled import tiled_compress_file
from repro.streaming import compress_slabs, decompress_slabs

EB = 1e-3


def _triple(data, spec, eb=EB, quantizer=None):
    # bytes, not array_equal: -0.0 == +0.0 would hide a sign flip
    fused = interp_compress(data, spec, eb, quantizer)
    ref = reference_compress(data, spec, eb, quantizer)
    assert fused.codes.tobytes() == ref.codes.tobytes()
    assert fused.outliers.tobytes() == ref.outliers.tobytes()
    assert fused.anchors.tobytes() == ref.anchors.tobytes()
    assert fused.reconstructed.tobytes() == ref.reconstructed.tobytes()
    return fused


class TestEngineEquivalence:
    def test_3d(self):
        _triple(smooth_field((32, 36, 40)), InterpSpec(anchor_stride=8))

    def test_3d_windowed(self):
        spec = InterpSpec(anchor_stride=8, window_shape=(9, 9, 33))
        _triple(smooth_field((24, 24, 48)), spec)

    def test_2d(self):
        _triple(smooth_field((33, 47)), InterpSpec(anchor_stride=8))

    def test_1d(self):
        _triple(smooth_field((129,)), InterpSpec(anchor_stride=8))

    def test_tiny_field(self):
        _triple(smooth_field((8, 8, 8)), InterpSpec(anchor_stride=4))

    def test_f64_values(self):
        data = smooth_field((24, 28, 20)).astype(np.float64)
        q = LinearQuantizer(value_dtype=np.float64)
        _triple(data, InterpSpec(anchor_stride=8), quantizer=q)

    def test_passes_quantized_in_several_slabs(self):
        # the widest passes span several cache-sized slabs. Values near
        # 1000 (float32 spacing 6.1e-5) at a bound of 4e-5 and radius 8
        # make about a fifth of the lanes code-range outliers and another
        # fifth float32 round-trip ones, in every slab
        shape = (40, 48, 72)
        spec = InterpSpec(anchor_stride=8, window_shape=(9, 9, 33))
        plan = get_plan(shape, spec.resolved(3))
        assert plan.max_targets > 2 * ROW_GROUP_ELEMENTS
        data = (1000.0 + smooth_field(shape) * 1e-2).astype(np.float32)
        res = _triple(data, spec, 4e-5, LinearQuantizer(8))
        assert 0.3 < res.outliers.size / res.codes.size < 0.6

    def test_alpha_beta_levels(self):
        spec = InterpSpec(anchor_stride=8, alpha=1.5, beta=3.0)
        _triple(smooth_field((32, 32, 32)), spec)

    def test_decompress_replays_fused_stream(self):
        data = smooth_field((32, 36, 40))
        spec = InterpSpec(anchor_stride=8)
        res = _triple(data, spec)
        out = interp_decompress(data.shape, spec, EB, res.codes,
                                res.outliers, res.anchors)
        assert np.array_equal(out, res.reconstructed)
        assert np.max(np.abs(out - data.astype(np.float64))) <= EB * 1.001


def _quantize_into(q, values, preds, eb):
    """``quantize_into`` with fresh buffers; ``preds`` is not modified."""
    n = values.size
    codes = np.empty(n, dtype=np.uint32)
    recon, outliers = q.quantize_into(
        values, np.array(preds, dtype=np.float64).ravel(), eb, codes,
        v_buf=np.empty(n), q_buf=np.empty(n), r_buf=np.empty(n))
    return codes, recon, outliers


def _lanes(case, rng):
    """``(quantizer, values, predictions)`` for one lane-for-lane case."""
    shape = (31, 17)
    values = rng.normal(0, 1, size=shape).astype(np.float32)
    preds = values.astype(np.float64) + rng.normal(0, 5e-3, size=shape)
    q = LinearQuantizer()
    if case == "mixed":
        # sprinkle outliers: both the radius overflow and the
        # value-dtype round-trip failure lanes
        preds.ravel()[::97] += 10.0
    elif case == "signed_zeros":
        values.ravel()[::3] = -0.0
        preds.ravel()[::3] = -0.0
        preds.ravel()[1::3] = -0.0
        values.ravel()[2::5] = -0.0
        preds.ravel()[3::30] = 10.0     # -0.0 stored as an outlier
    elif case == "all_outliers":
        preds += 10.0
    elif case == "no_outliers":
        preds = values.astype(np.float64)
    elif case == "float64":
        values = rng.normal(0, 1, size=shape)
        preds = values + rng.normal(0, 5e-3, size=shape)
        preds.ravel()[::97] += 10.0
        q = LinearQuantizer(value_dtype=np.float64)
    elif case == "huge_residuals":
        preds.ravel()[::2] += 1e30
        preds.ravel()[1::4] -= 1e30
    return q, values, preds


class TestQuantizeInto:
    # a float-to-uint32 cast of an out-of-range code warns: fail on it
    @pytest.mark.filterwarnings("error")
    def test_matches_quantize_lane_for_lane(self, rng):
        n_out = {"all_outliers": lambda n: n == 31 * 17,
                 "no_outliers": lambda n: n == 0}
        for case in ("mixed", "signed_zeros", "all_outliers",
                     "no_outliers", "float64", "huge_residuals"):
            q, values, preds = _lanes(case, rng)
            ref = q.quantize(values, preds, EB)
            codes, recon, outliers = _quantize_into(q, values, preds, EB)
            assert codes.tobytes() == ref.codes.tobytes(), case
            assert recon.tobytes() == ref.reconstructed.tobytes(), case
            assert outliers.tobytes() == ref.outlier_values.tobytes(), case
            assert n_out.get(case, lambda n: 0 < n < 31 * 17)(
                outliers.size), case

    def test_strided_view_input(self, rng):
        # fused passes hand quantize_into a strided n-d view of the field;
        # code order must match the flattened reference order
        q = LinearQuantizer()
        base = rng.normal(0, 1, size=(16, 16, 16)).astype(np.float32)
        view = base[1::2, :, 3::4]
        preds = np.zeros(view.size, dtype=np.float64)
        ref = q.quantize(np.ascontiguousarray(view), preds, 0.5)
        codes, recon, outliers = _quantize_into(q, view, preds, 0.5)
        assert codes.tobytes() == ref.codes.tobytes()
        assert recon.tobytes() == ref.reconstructed.tobytes()
        assert outliers.tobytes() == ref.outlier_values.tobytes()

    def test_rejects_bad_eb(self):
        q = LinearQuantizer()
        from repro.common.errors import ConfigError
        for eb in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ConfigError):
                _quantize_into(q, np.zeros(4, np.float32), np.zeros(4), eb)


class TestCrossPathBlobIdentity:
    """The fused emission must never change a serialized byte anywhere:
    each path's blob is compared with the same path run on the
    reference traversal."""

    def test_pipeline_blob(self, monkeypatch):
        data = smooth_field((32, 36, 40))
        fused_blob = CuSZi(eb=EB, mode="abs").compress(data)
        monkeypatch.setattr(pipeline, "interp_compress", reference_compress)
        ref_blob = CuSZi(eb=EB, mode="abs").compress(data)
        assert fused_blob == ref_blob
        out = CuSZi(eb=EB, mode="abs").decompress(fused_blob)
        assert np.max(np.abs(out.astype(np.float64)
                             - data.astype(np.float64))) <= EB * 1.001

    def test_slab_stream(self, monkeypatch):
        data = smooth_field((24, 20, 20))
        fused_stream = compress_slabs(data, 8, eb=EB)
        monkeypatch.setattr(pipeline, "interp_compress", reference_compress)
        ref_stream = compress_slabs(data, 8, eb=EB)
        assert fused_stream == ref_stream
        out = decompress_slabs(fused_stream)
        assert out.shape == data.shape
        assert np.max(np.abs(out.astype(np.float64)
                             - data.astype(np.float64))) <= EB * 1.001

    def test_tiled_file(self, tmp_path, monkeypatch):
        data = smooth_field((24, 16, 16))
        raw = tmp_path / "field.raw"
        raw.write_bytes(data.tobytes())
        a = tmp_path / "fused.rsz"
        b = tmp_path / "ref.rsz"
        tiled_compress_file(raw, data.shape, out_path=a,
                            tile_planes=8, eb=EB)
        monkeypatch.setattr(pipeline, "interp_compress", reference_compress)
        tiled_compress_file(raw, data.shape, out_path=b,
                            tile_planes=8, eb=EB)
        assert a.read_bytes() == b.read_bytes()

    def test_worker_pool_blobs(self):
        # pool workers' blobs must match the serial path byte for byte
        fields = [smooth_field((16, 16, 16), seed=s) for s in range(3)]
        serial = map_compress(fields, "cuszi", eb=EB, mode="abs",
                              workers=1)
        pooled = map_compress(fields, "cuszi", eb=EB, mode="abs",
                              workers=2)
        assert serial == pooled
        out = map_decompress(pooled, workers=1)
        for got, want in zip(out, fields):
            assert np.max(np.abs(got.astype(np.float64)
                                 - want.astype(np.float64))) <= EB * 1.001
