"""Segment-aware lossless orchestration: frame, cost model, plan cache,
backward compatibility, and adversarial round trips."""

import struct
import zlib

import numpy as np
import pytest

from repro.common.errors import ConfigError, CorruptStreamError
from repro.lossless import (OrchestratorCodec, get_lossless, gle_compress,
                            orchestrate_compress, orchestrate_decompress)
from repro.lossless import orchestrator as orc
from repro.lossless.orchestrator import (backend_names, choose_backend,
                                         split_streams, stream_stats)

from conftest import smooth_field


@pytest.fixture(scope="module")
def container():
    """A real RPRC container (pipeline output with the wrap stripped)."""
    from repro.core.pipeline import CuSZi
    blob = CuSZi(eb=1e-3, lossless="none").compress(
        smooth_field((32, 32, 32), seed=11))
    inner = bytes(blob[5 + blob[4]:])
    assert inner[:4] == b"RPRC"
    return inner


ADVERSARIAL = [
    b"",                                   # empty stream
    b"ab",                                 # sub-4-byte tail only
    b"\x07\x00\x00\x00" * 4096,            # one word repeated (all runs)
    bytes(3),                              # tiny, below MIN_MODEL_BYTES
    b"run" * 5 + b"x",                     # unaligned tail after pattern
]


class TestRoundTrip:
    @pytest.mark.parametrize("idx", range(len(ADVERSARIAL)))
    def test_adversarial_cases(self, idx):
        data = ADVERSARIAL[idx]
        blob = orchestrate_compress(data)
        assert orchestrate_decompress(blob) == data

    def test_incompressible_random(self, rng):
        data = rng.integers(0, 256, 100_000, dtype=np.uint8).tobytes()
        blob = orchestrate_compress(data)
        assert orchestrate_decompress(blob) == data
        # the model must refuse to expand noise beyond the frame overhead
        assert len(blob) <= len(data) + 64

    def test_container_byte_identical(self, container):
        for profile in ("fast", "balanced", "ratio"):
            blob = orchestrate_compress(container, profile=profile)
            assert orchestrate_decompress(blob) == container

    def test_numpy_and_memoryview_inputs(self, rng):
        arr = rng.integers(0, 50, 4096, dtype=np.uint32)
        ref = orchestrate_compress(arr.tobytes())
        assert orchestrate_compress(arr) == ref
        assert orchestrate_compress(memoryview(arr.tobytes())) == ref

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            orchestrate_compress(b"x" * 100, profile="turbo")
        with pytest.raises(ConfigError):
            choose_backend(stream_stats(b"x" * 100), "turbo")


class TestBackwardCompat:
    """The decoder must accept every pre-orchestrator single-codec blob."""

    def test_bare_gle_frame(self, container):
        assert orchestrate_decompress(gle_compress(container)) == container

    def test_stored_container(self, container):
        assert orchestrate_decompress(container) == container

    def test_zlib_stream(self, container):
        assert orchestrate_decompress(zlib.compress(container)) == container

    def test_garbage_rejected(self):
        with pytest.raises(CorruptStreamError):
            orchestrate_decompress(b"\x99" * 40)


class TestCorruption:
    def test_truncated_frame(self, container):
        blob = orchestrate_compress(container)
        for cut in (3, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CorruptStreamError):
                orchestrate_decompress(blob[:cut])

    def test_crc_mismatch(self, rng):
        data = rng.integers(0, 256, 8192, dtype=np.uint8).tobytes()
        blob = bytearray(orchestrate_compress(data))
        blob[-1] ^= 0xFF               # flip payload; frame CRC must catch
        with pytest.raises(CorruptStreamError):
            orchestrate_decompress(bytes(blob))

    def test_external_crc_verified(self, container):
        # container inputs delegate to the RPRC checksum (EXTCRC flag);
        # corrupting a stored segment must still be caught on decode
        blob = bytearray(orchestrate_compress(container))
        flags = blob[5]
        assert flags & 1, "container input should set the EXTCRC flag"
        blob[-1] ^= 0xFF
        with pytest.raises(CorruptStreamError):
            orchestrate_decompress(bytes(blob))

    def test_unknown_backend_id(self, rng):
        data = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
        blob = bytearray(orchestrate_compress(data))
        # first stream table entry: after header, namelen + name
        pos = struct.calcsize("<4sBBIB")
        pos += 1 + blob[pos]
        blob[pos] = 200                 # out-of-registry backend id
        with pytest.raises(CorruptStreamError):
            orchestrate_decompress(bytes(blob))


class TestSplitStreams:
    def test_concat_reproduces_input(self, container):
        streams = split_streams(container)
        assert b"".join(bytes(sv) for _, sv in streams) == container
        names = [name for name, _ in streams]
        assert names[0] == "header"
        assert "huffman.payload" in names

    @pytest.mark.parametrize("version", [1, 2])
    def test_huffman_split_follows_stream_version(self, container, version):
        """The Huffman segment splits at its own version's boundaries:
        header + code lengths, chunk table, payload."""
        from pathlib import Path
        from repro.common.container import parse_container
        from repro.common.lossless_wrap import unwrap_lossless
        from repro.huffman import read_stream
        if version == 1:
            fixture = Path(__file__).parent / "data/huffman_v1/cuszi-3d.bin"
            container = unwrap_lossless(fixture.read_bytes())
        _, meta, segments = parse_container(container)
        stream = read_stream(segments["huffman"], meta)
        parts = dict(split_streams(container))
        head = {1: 24, 2: 32}[version] + stream.alphabet_size
        assert len(parts["huffman.head"]) == head
        assert len(parts["huffman.chunks"]) == \
            {1: 4, 2: 3}[version] * stream.n_chunks
        assert bytes(parts["huffman.payload"]) == stream.payload.tobytes()

    def test_non_container_is_raw(self):
        streams = split_streams(b"not a container at all")
        assert [name for name, _ in streams] == ["raw"]

    def test_truncated_container_falls_back_to_raw(self, container):
        streams = split_streams(container[:len(container) // 2])
        assert [name for name, _ in streams] == ["raw"]


class TestCostModel:
    def test_tiny_streams_store(self):
        assert choose_backend(stream_stats(b"x" * 32)) == "store"

    def test_runs_pick_gle_family(self):
        data = b"\x05\x00\x00\x00" * 50_000
        assert choose_backend(stream_stats(data)) in ("gle", "gle-rle")

    def test_noise_stores(self, rng):
        data = rng.integers(0, 256, 50_000, dtype=np.uint8).tobytes()
        assert choose_backend(stream_stats(data)) == "store"

    def test_small_low_entropy_zlib_balanced(self):
        # a skewed byte distribution (H ~ 0.8 bits) clears the balanced
        # profile's deflate gate; size sits under the zlib cap
        data = b"aaab" * 1000
        assert choose_backend(stream_stats(data)) == "zlib"

    def test_fast_profile_never_zlib(self):
        data = b"abcab" * 500
        assert choose_backend(stream_stats(data), "fast") != "zlib"

    def test_narrow_bytes_pick_pack(self, rng):
        data = rng.integers(0, 4, 60_000, dtype=np.uint8).tobytes()
        assert choose_backend(stream_stats(data)) in ("gle", "gle-pack")

    def test_oversized_stream_promotes_to_blocks(self):
        stats = stream_stats(b"\x05\x00\x00\x00" * 8192)
        stats.n = orc.PARALLEL_MIN_BYTES       # pretend it is huge
        assert choose_backend(stats) == "gle-blocks"

    def test_decide_matches_eager_model(self, container, rng):
        streams = list(split_streams(container))
        streams.append(("noise", memoryview(
            rng.integers(0, 256, 30_000, dtype=np.uint8).tobytes())))
        streams.append(("runs", memoryview(b"\x09\x00\x00\x00" * 9000)))
        for profile in ("fast", "balanced", "ratio"):
            for name, sv in streams:
                assert orc._decide(sv, profile) == \
                    choose_backend(stream_stats(sv), profile), (name, profile)

    def test_backend_names_stable(self):
        assert backend_names() == ["store", "gle", "gle-rle", "gle-pack",
                                   "zlib", "gle-blocks"]


class TestPlanCache:
    def test_warm_bytes_identical_to_cold(self, container):
        codec = OrchestratorCodec()
        cold = codec.compress_bytes(container)
        warm = codec.compress_bytes(container)
        assert cold == warm
        assert codec.decompress_bytes(warm) == container

    def test_fingerprint_miss_on_different_content(self, container):
        # same length, different bytes: the header probe must miss and the
        # result must still round-trip (a stale split would be safe, but a
        # miss re-samples)
        codec = OrchestratorCodec()
        codec.compress_bytes(container)
        other = bytearray(container)
        other[0] = 0x00                     # break the magic -> raw stream
        blob = codec.compress_bytes(bytes(other))
        assert codec.decompress_bytes(blob) == bytes(other)

    def test_cache_bounded(self, rng):
        codec = OrchestratorCodec()
        for i in range(2 * orc._PLAN_CACHE_MAX):
            data = rng.integers(0, 256, 100 + i, dtype=np.uint8).tobytes()
            codec.compress_bytes(data)
        assert len(codec._plan_cache) <= orc._PLAN_CACHE_MAX

    def test_cache_disabled(self, container):
        codec = OrchestratorCodec(plan_cache=False)
        assert codec._plan_cache is None
        blob = codec.compress_bytes(container)
        assert codec.decompress_bytes(blob) == container


class TestParallelBlocks:
    def test_blocks_route(self, rng, monkeypatch):
        monkeypatch.setattr(orc, "PARALLEL_MIN_BYTES", 64 * 1024)
        monkeypatch.setattr(orc, "PARALLEL_BLOCK", 16 * 1024)
        words = rng.integers(0, 30, 40_000, dtype=np.uint32)
        words[:10_000] = 3
        data = words.tobytes()
        blob = orchestrate_compress(data)
        assert orchestrate_decompress(blob) == data

    def test_pool_and_serial_byte_identical(self, rng, monkeypatch):
        monkeypatch.setattr(orc, "PARALLEL_BLOCK", 16 * 1024)
        data = (b"\x04\x00\x00\x00" * 30_000
                + rng.integers(0, 256, 8192, dtype=np.uint8).tobytes())
        e1 = orc._blocks_encode(memoryview(data), False, 1)
        e2 = orc._blocks_encode(memoryview(data), False, 2)
        assert bytes(e1) == bytes(e2)
        assert orc._blocks_decode(e2) == data


class TestRegistryAndWrap:
    def test_auto_registered(self):
        codec = get_lossless("auto", profile="fast")
        assert codec.name == "auto"
        assert codec.profile == "fast"

    def test_wrap_unwrap_auto(self, container):
        from repro.common.lossless_wrap import unwrap_lossless, wrap_lossless
        blob = wrap_lossless(container, "auto")
        assert unwrap_lossless(blob) == container

    def test_wrap_reuses_codec_instances(self):
        from repro.common import lossless_wrap as lw
        lw.wrap_lossless(b"RPRCxxxx" + bytes(100), "auto")
        first = lw._INSTANCES["auto"]
        lw.wrap_lossless(b"RPRCxxxx" + bytes(100), "auto")
        assert lw._INSTANCES["auto"] is first

    def test_pipeline_default_is_auto(self, field3d):
        from repro.core.pipeline import CuSZi
        codec = CuSZi(eb=1e-3)
        assert codec.lossless == "auto"
        blob = codec.compress(field3d)
        recon = codec.decompress(blob)
        assert np.abs(recon - field3d).max() <= codec.eb * \
            float(field3d.max() - field3d.min()) * 1.001


class TestZlibZeroCopy:
    def test_buffer_inputs_equivalent(self, rng):
        codec = get_lossless("zlib")
        arr = rng.integers(0, 100, 4096, dtype=np.uint8)
        ref = codec.compress_bytes(arr.tobytes())
        assert codec.compress_bytes(arr) == ref
        assert codec.compress_bytes(memoryview(arr.tobytes())) == ref
        assert codec.compress_bytes(bytearray(arr.tobytes())) == ref
        assert codec.decompress_bytes(bytearray(ref)) == arr.tobytes()

    def test_multidim_and_noncontiguous(self, rng):
        codec = get_lossless("zlib")
        arr = rng.integers(0, 100, (64, 64), dtype=np.uint8)
        ref = codec.compress_bytes(arr.tobytes())
        assert codec.compress_bytes(arr) == ref             # 2-D C-order
        sliced = arr[::2]                                   # non-contiguous
        assert codec.compress_bytes(sliced) == \
            codec.compress_bytes(sliced.copy())
