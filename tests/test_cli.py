"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from conftest import smooth_field
from repro.cli import main


@pytest.fixture
def raw_file(tmp_path):
    data = smooth_field((20, 24, 16), seed=60)
    path = tmp_path / "field.f32"
    data.tofile(path)
    return path, data


class TestCLI:
    def test_compress_decompress_cycle(self, raw_file, tmp_path, capsys):
        path, data = raw_file
        comp = tmp_path / "field.rp"
        out = tmp_path / "out.f32"
        assert main(["compress", str(path), str(comp),
                     "--dims", "20,24,16", "--eb", "1e-3"]) == 0
        assert main(["decompress", str(comp), str(out)]) == 0
        recon = np.fromfile(out, dtype=np.float32).reshape(20, 24, 16)
        rng = float(data.max() - data.min())
        assert np.abs(recon - data).max() <= 1e-3 * rng * 1.001
        captured = capsys.readouterr().out
        assert "CR" in captured

    def test_compress_wrong_dims(self, raw_file, tmp_path, capsys):
        path, _ = raw_file
        rc = main(["compress", str(path), str(tmp_path / "x.rp"),
                   "--dims", "10,10,10"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_info(self, raw_file, tmp_path, capsys):
        path, _ = raw_file
        comp = tmp_path / "f.rp"
        main(["compress", str(path), str(comp), "--dims", "20,24,16"])
        assert main(["info", str(comp)]) == 0
        out = capsys.readouterr().out
        assert "codec:    cuszi" in out
        assert "segments:" in out

    def test_cuzfp_rate_path(self, raw_file, tmp_path):
        path, data = raw_file
        comp = tmp_path / "f.zfp"
        out = tmp_path / "o.f32"
        assert main(["compress", str(path), str(comp),
                     "--dims", "20,24,16", "--codec", "cuzfp",
                     "--rate", "8"]) == 0
        assert main(["decompress", str(comp), str(out)]) == 0
        recon = np.fromfile(out, dtype=np.float32)
        assert recon.size == data.size

    def test_gen(self, tmp_path):
        out = tmp_path / "m.f32"
        assert main(["gen", "miranda", "density", str(out)]) == 0
        data = np.fromfile(out, dtype=np.float32)
        assert data.size == 64 * 96 * 96

    def test_gen_bad_field(self, tmp_path):
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError):
            main(["gen", "miranda", "nothere", str(tmp_path / "x")])

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cuszi" in out and "jhtdb" in out

    def test_codec_selection(self, raw_file, tmp_path):
        path, _ = raw_file
        for codec in ("cusz", "fzgpu"):
            comp = tmp_path / f"f.{codec}"
            assert main(["compress", str(path), str(comp),
                         "--dims", "20,24,16", "--codec", codec]) == 0


class TestDecompressDtype:
    """Regression: decompress must write the container's dtype, not
    unconditionally float32."""

    def test_float64_archive_written_as_float64(self, tmp_path, capsys):
        from repro import compress as api_compress
        data = smooth_field((16, 16, 12), seed=61).astype(np.float64)
        comp = tmp_path / "f64.rp"
        comp.write_bytes(api_compress(data, codec="cuszi", eb=1e-3,
                                      mode="rel"))
        out = tmp_path / "o.bin"
        assert main(["decompress", str(comp), str(out)]) == 0
        assert "float64" in capsys.readouterr().out
        assert out.stat().st_size == data.size * 8
        recon = np.fromfile(out, dtype=np.float64).reshape(data.shape)
        rng = float(data.max() - data.min())
        assert np.abs(recon - data).max() <= 1e-3 * rng * 1.001

    def test_float32_archive_unchanged(self, tmp_path):
        from repro import compress as api_compress
        data = smooth_field((16, 16, 12), seed=62)
        comp = tmp_path / "f32.rp"
        comp.write_bytes(api_compress(data, codec="cuszi", eb=1e-3))
        out = tmp_path / "o.f32"
        assert main(["decompress", str(comp), str(out)]) == 0
        assert out.stat().st_size == data.size * 4

    def test_unpack_writes_each_field_in_its_dtype(self, tmp_path, capsys):
        from repro.archive import write_archive
        f64 = smooth_field((32, 32, 32), seed=63).astype(np.float64)
        f32 = smooth_field((16, 16, 12), seed=64)
        arch = tmp_path / "mixed.rpa"
        write_archive(str(arch), {"d": f64, "s": f32}, codec="cuszi",
                      eb=1e-6, mode="abs")
        prefix = str(tmp_path / "u_")
        assert main(["unpack", str(arch), "--prefix", prefix]) == 0
        out = capsys.readouterr().out
        assert "float64" in out and "float32" in out
        assert not (tmp_path / "u_d.f32").exists()
        recon64 = np.fromfile(tmp_path / "u_d.f64",
                              dtype=np.float64).reshape(f64.shape)
        assert np.abs(recon64 - f64).max() <= 1e-6 * 1.001
        recon32 = np.fromfile(tmp_path / "u_s.f32",
                              dtype=np.float32).reshape(f32.shape)
        assert np.abs(recon32.astype(np.float64) - f32).max() <= 1e-6 * 1.001


class TestTraceCLI:
    def test_compress_trace_and_pretty_print(self, raw_file, tmp_path,
                                             capsys):
        path, _ = raw_file
        comp = tmp_path / "f.rp"
        trace = tmp_path / "trace.jsonl"
        assert main(["compress", str(path), str(comp),
                     "--dims", "20,24,16", "--trace", str(trace)]) == 0
        assert trace.exists()
        capsys.readouterr()
        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        for stage in ("compress", "predict", "quantize", "huffman",
                      "lossless"):
            assert stage in out

    def test_trace_crosscheck(self, raw_file, tmp_path, capsys):
        path, _ = raw_file
        comp = tmp_path / "f.rp"
        trace = tmp_path / "trace.jsonl"
        main(["compress", str(path), str(comp), "--dims", "20,24,16",
              "--trace", str(trace)])
        capsys.readouterr()
        assert main(["trace", str(trace), "--crosscheck"]) == 0
        out = capsys.readouterr().out
        assert "modelled A100" in out and "modelled A40" in out

    def test_trace_prom_format(self, raw_file, tmp_path, capsys):
        path, _ = raw_file
        comp = tmp_path / "f.rp"
        trace = tmp_path / "t.jsonl"
        main(["compress", str(path), str(comp), "--dims", "20,24,16",
              "--trace", str(trace)])
        capsys.readouterr()
        assert main(["trace", str(trace), "--format", "prom"]) == 0
        assert "repro_span_duration_seconds_sum" in \
            capsys.readouterr().out

    def test_traced_blob_identical_to_untraced(self, raw_file, tmp_path):
        path, _ = raw_file
        plain = tmp_path / "plain.rp"
        traced = tmp_path / "traced.rp"
        assert main(["compress", str(path), str(plain),
                     "--dims", "20,24,16"]) == 0
        assert main(["compress", str(path), str(traced),
                     "--dims", "20,24,16",
                     "--trace", str(tmp_path / "t.jsonl")]) == 0
        assert plain.read_bytes() == traced.read_bytes()

    def test_decompress_trace(self, raw_file, tmp_path):
        path, _ = raw_file
        comp = tmp_path / "f.rp"
        out = tmp_path / "o.f32"
        trace = tmp_path / "d.jsonl"
        main(["compress", str(path), str(comp), "--dims", "20,24,16"])
        assert main(["decompress", str(comp), str(out),
                     "--trace", str(trace)]) == 0
        assert trace.exists()

    def test_trace_crosscheck_without_pipeline_root_errors(
            self, tmp_path, capsys):
        from repro.telemetry import exporters, recording, span
        with recording() as reg:
            with span("unrelated"):
                pass
        trace = tmp_path / "t.jsonl"
        trace.write_text(exporters.to_jsonl(reg))
        assert main(["trace", str(trace), "--crosscheck"]) == 1
        assert "cannot cross-check" in capsys.readouterr().err
