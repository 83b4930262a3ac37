"""Integration tests: traced pipelines emit the documented span taxonomy
and tracing never perturbs the compressed output."""

import numpy as np
import pytest

from conftest import smooth_field
from repro import telemetry
from repro.core.pipeline import CuSZi


@pytest.fixture(autouse=True)
def _clean_state():
    yield
    telemetry.disable()


def _children_of(spans, parent):
    return [s for s in spans if s.parent_id == parent.span_id]


class TestCompressTrace:
    def test_span_tree_covers_pipeline_stages(self):
        field = smooth_field((32, 28, 24), seed=11)
        codec = CuSZi(eb=1e-3)
        with telemetry.recording() as reg:
            _blob, stats = codec.compress_detailed(field)
        roots = [s for s in reg.spans if s.parent_id is None]
        assert [r.name for r in roots] == ["compress"]
        root = roots[0]
        children = {s.name for s in _children_of(reg.spans, root)}
        assert {"tune", "predict", "quantize", "huffman",
                "container", "lossless"} <= children
        assert root.attrs["codec"] == "cuszi"
        assert root.attrs["n_elements"] == field.size
        # the root span carries the run's ledger attributes
        assert root.attrs["bytes_out"] == stats.compressed_nbytes

    def test_segment_byte_attrs_sum_to_stats(self):
        field = smooth_field((32, 28, 24), seed=11)
        codec = CuSZi(eb=1e-3)
        with telemetry.recording() as reg:
            _blob, stats = codec.compress_detailed(field)
        per_segment = {s.attrs["segment"]: s.attrs["segment_nbytes"]
                       for s in reg.spans if "segment" in s.attrs}
        assert per_segment == {"anchors": stats.segment_nbytes["anchors"],
                               "outliers":
                                   stats.segment_nbytes["outliers"],
                               "huffman":
                                   stats.segment_nbytes["huffman"]}
        assert sum(per_segment.values()) == \
            sum(stats.segment_nbytes.values())

    def test_ginterp_passes_mirror_kernel_launches(self):
        field = smooth_field((32, 28, 24), seed=11)
        with telemetry.recording() as reg:
            CuSZi(eb=1e-3).compress_detailed(field)
        passes = [s for s in reg.spans if s.name == "ginterp.pass"]
        # 3D, anchor stride 8 -> 3 levels x 3 axes = 9 passes (Fig. 2)
        assert len(passes) == 9
        predict = next(s for s in reg.spans if s.name == "predict")
        for p in passes:
            assert {"level", "axis", "stride"} <= set(p.attrs)
            assert p.parent_id == predict.span_id
        # every interior target is quantized exactly once: pass target
        # counts sum to the quant-code count
        n_targets = sum(p.attrs["targets"] for p in passes)
        assert n_targets == predict.attrs["codes_nbytes"] // 4

    def test_tracing_does_not_change_the_blob(self):
        field = smooth_field((32, 28, 24), seed=12)
        codec = CuSZi(eb=1e-3)
        plain = codec.compress(field)
        with telemetry.recording():
            traced = codec.compress(field)
        assert traced == plain
        again = codec.compress(field)
        assert again == plain  # and disabling leaves no residue

    def test_decompress_trace_roundtrip(self):
        field = smooth_field((32, 28, 24), seed=13)
        codec = CuSZi(eb=1e-3)
        blob = codec.compress(field)
        with telemetry.recording() as reg:
            recon = codec.decompress(blob)
        assert recon.shape == field.shape
        roots = [s for s in reg.spans if s.parent_id is None]
        assert [r.name for r in roots] == ["decompress"]
        children = {s.name for s in _children_of(reg.spans, roots[0])}
        assert {"lossless", "container", "huffman", "predict"} <= children

    def test_error_inside_pipeline_closes_spans(self):
        with telemetry.recording() as reg:
            with pytest.raises(Exception):
                CuSZi(eb=1e-3).compress_detailed(
                    np.full((8, 8, 8), np.nan, dtype=np.float32))
        roots = [s for s in reg.spans if s.parent_id is None]
        assert [r.name for r in roots] == ["compress"]
        assert roots[0].status == "error"


class TestSubsystemTraces:
    def test_streaming_spans(self):
        from repro.streaming import SlabReader, compress_slabs

        field = smooth_field((12, 16, 16), seed=14)
        with telemetry.recording() as reg:
            stream = compress_slabs(field, 4, codec="cuszi", eb=1e-3,
                                    mode="abs")
            reader = SlabReader(stream)
            reader.read_slab(1)
        appends = [s for s in reg.spans if s.name == "slab.append"]
        assert len(appends) == 3
        assert [s.attrs["index"] for s in appends] == [0, 1, 2]
        reads = [s for s in reg.spans if s.name == "slab.read"]
        assert len(reads) == 1 and reads[0].attrs["bytes_out"] > 0

    def test_transfer_records_modelled_stage_spans(self):
        from repro.transfer.pipeline import FileSpec, pipelined_transfer

        files = [FileSpec(f"f{i}", 1 << 20, 1 << 18) for i in range(3)]
        with telemetry.recording() as reg:
            schedule = pipelined_transfer("cuszi", files)
        file_spans = [s for s in reg.spans if s.name == "transfer.file"]
        assert len(file_spans) == 3
        for fsp in file_spans:
            stages = [s for s in reg.spans
                      if s.parent_id == fsp.span_id]
            assert sorted(s.name for s in stages) == \
                ["transfer.compress", "transfer.decompress",
                 "transfer.wire"]
            assert fsp.duration_s == pytest.approx(
                sum(s.duration_s for s in stages))
        root = next(s for s in reg.spans
                    if s.name == "transfer.pipeline")
        assert root.attrs["makespan_s"] == pytest.approx(
            schedule.makespan)

    def test_harness_spans(self):
        from repro.experiments.harness import run_codec

        field = smooth_field((16, 16, 16), seed=15)
        with telemetry.recording() as reg:
            run_codec("cuszi", field, eb=1e-3)
        names = [s.name for s in reg.spans]
        assert "experiment.compress" in names
        assert "experiment.decompress" in names
        assert reg.counters.get("experiment.runs") == 1.0
        # the pipeline's own root spans nest under the harness spans
        exp = next(s for s in reg.spans
                   if s.name == "experiment.compress")
        inner = [s for s in reg.spans if s.parent_id == exp.span_id]
        assert [s.name for s in inner] == ["compress"]
