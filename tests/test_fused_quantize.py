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
from repro.core.ginterp import InterpSpec, interp_compress, interp_decompress
from repro.core.pipeline import CuSZi
from repro.runtime.pool import map_compress, map_decompress
from repro.runtime.tiled import tiled_compress_file
from repro.streaming import compress_slabs, decompress_slabs

EB = 1e-3


def _triple(data, spec, eb=EB, quantizer=None):
    fused = interp_compress(data, spec, eb, quantizer)
    ref = reference_compress(data, spec, eb, quantizer)
    assert np.array_equal(fused.codes, ref.codes)
    assert np.array_equal(fused.outliers, ref.outliers)
    assert np.array_equal(fused.anchors, ref.anchors)
    assert np.array_equal(fused.reconstructed, ref.reconstructed)
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


class TestQuantizeInto:
    def test_matches_quantize_lane_for_lane(self, rng):
        q = LinearQuantizer()
        values = rng.normal(0, 1, size=(31, 17)).astype(np.float32)
        preds = values.astype(np.float64) \
            + rng.normal(0, 5e-3, size=values.shape)
        # sprinkle outliers: both the radius overflow and the
        # value-dtype round-trip failure lanes
        preds.ravel()[::97] += 10.0
        ref = q.quantize(values, preds, EB)
        codes = np.empty(values.size, dtype=np.uint32)
        q_buf = np.empty(values.size, dtype=np.float64)
        r_buf = np.empty(values.size, dtype=np.float64)
        recon, outliers = q.quantize_into(values, preds.ravel(), EB,
                                          codes, q_buf=q_buf, r_buf=r_buf)
        assert np.array_equal(codes, ref.codes)
        assert np.array_equal(recon.ravel(), ref.reconstructed)
        assert np.array_equal(outliers, ref.outlier_values)

    def test_strided_view_input(self, rng):
        # fused passes hand quantize_into a strided n-d view of the field;
        # code order must match the flattened reference order
        q = LinearQuantizer()
        base = rng.normal(0, 1, size=(16, 16, 16)).astype(np.float32)
        view = base[1::2, :, 3::4]
        preds = np.zeros(view.size, dtype=np.float64)
        ref = q.quantize(np.ascontiguousarray(view), preds, 0.5)
        codes = np.empty(view.size, dtype=np.uint32)
        scratch = np.empty(view.size, dtype=np.float64)
        recon, outliers = q.quantize_into(
            view, preds, 0.5, codes,
            q_buf=scratch, r_buf=scratch.copy())
        assert np.array_equal(codes, ref.codes)
        assert np.array_equal(outliers, ref.outlier_values)

    def test_rejects_bad_eb(self):
        q = LinearQuantizer()
        from repro.common.errors import ConfigError
        buf = np.empty(4, dtype=np.float64)
        with pytest.raises(ConfigError):
            q.quantize_into(np.zeros(4, np.float32), buf, 0.0,
                            np.empty(4, np.uint32), q_buf=buf,
                            r_buf=buf.copy())


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
