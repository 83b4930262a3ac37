"""Segment-aware lossless orchestration: frame, backend rule, plan cache,
backward compatibility, and adversarial round trips."""

import struct
import zlib

import numpy as np
import pytest

from repro.common.errors import CorruptStreamError
from repro.lossless import (OrchestratorCodec, get_lossless, gle_compress,
                            orchestrate_compress, orchestrate_decompress)
from repro.lossless import orchestrator as orc
from repro.lossless.orchestrator import backend_names, split_streams

from conftest import smooth_field


def _frame_backends(blob: bytes) -> list[str]:
    """The backend name each stream of an ``ORC1`` frame records."""
    _, _, _, _, n = orc._FRAME_HDR.unpack_from(blob, 0)
    pos = orc._FRAME_HDR.size
    names = []
    for _ in range(n):
        pos += 1 + blob[pos]
        bid, _ = orc._STREAM_HDR.unpack_from(blob, pos)
        pos += orc._STREAM_HDR.size
        names.append(orc._BACKENDS[bid][0])
    return names


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
    bytes(3),                              # tiny: deflate cannot shrink it
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
        # noise is stored: nothing beyond the frame overhead
        assert len(blob) <= len(data) + 64

    def test_container_byte_identical(self, container):
        blob = orchestrate_compress(container)
        assert orchestrate_decompress(blob) == container

    def test_numpy_and_memoryview_inputs(self, rng):
        arr = rng.integers(0, 50, 4096, dtype=np.uint32)
        ref = orchestrate_compress(arr.tobytes())
        assert orchestrate_compress(arr) == ref
        assert orchestrate_compress(memoryview(arr.tobytes())) == ref


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

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_huffman_split_follows_stream_version(self, container, version):
        """The Huffman segment splits at its own version's boundaries:
        header + code lengths, chunk table, payload."""
        from pathlib import Path
        from repro.common.container import parse_container
        from repro.common.lossless_wrap import unwrap_lossless
        from repro.huffman import FORMAT_KEY, read_stream
        if version < 3:
            fixture = (Path(__file__).parent
                       / f"data/huffman_v{version}/cuszi-3d.bin")
            container = unwrap_lossless(fixture.read_bytes())
        _, meta, segments = parse_container(container)
        assert meta.get(FORMAT_KEY, 1) == version
        stream = read_stream(segments["huffman"], meta)
        parts = dict(split_streams(container))
        head = {1: 24, 2: 32, 3: 32}[version] + stream.alphabet_size
        assert len(parts["huffman.head"]) == head
        table = {1: 4 * stream.n_chunks, 2: 3 * stream.n_chunks,
                 3: (stream.n_chunks + 1) // 2}[version]
        assert len(parts["huffman.chunks"]) == table
        assert bytes(parts["huffman.payload"]) == stream.payload.tobytes()

    def test_non_container_is_raw(self):
        streams = split_streams(b"not a container at all")
        assert [name for name, _ in streams] == ["raw"]

    def test_truncated_container_falls_back_to_raw(self, container):
        streams = split_streams(container[:len(container) // 2])
        assert [name for name, _ in streams] == ["raw"]


class TestBackendRule:
    """zlib up to ``ZLIB_MAX_BYTES``, GLE above, store when no shrink."""

    def test_stream_at_zlib_max_is_deflated(self):
        data = b"\x05\x00\x00\x00" * (orc.ZLIB_MAX_BYTES // 4)
        assert len(data) == orc.ZLIB_MAX_BYTES
        blob = orchestrate_compress(data)
        assert _frame_backends(blob) == ["zlib"]
        assert orchestrate_decompress(blob) == data

    def test_stream_past_zlib_max_takes_gle(self):
        data = b"\x05\x00\x00\x00" * (orc.ZLIB_MAX_BYTES // 4) + b"\x05"
        assert len(data) == orc.ZLIB_MAX_BYTES + 1
        blob = orchestrate_compress(data)
        assert _frame_backends(blob) == ["gle"]
        assert orchestrate_decompress(blob) == data

    @pytest.mark.parametrize("n", [3000, 50_000])
    def test_incompressible_stream_stored(self, rng, n):
        data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
        blob = orchestrate_compress(data)
        assert _frame_backends(blob) == ["store"]
        assert orchestrate_decompress(blob) == data

    def test_oversized_stream_promotes_to_blocks(self, monkeypatch):
        monkeypatch.setattr(orc, "PARALLEL_MIN_BYTES", 64 * 1024)
        monkeypatch.setattr(orc, "PARALLEL_BLOCK", 16 * 1024)
        data = b"\x05\x00\x00\x00" * (16 * 1024)
        blob = orchestrate_compress(data)
        assert _frame_backends(blob) == ["gle-blocks"]
        assert orchestrate_decompress(blob) == data

    def test_cold_store_is_not_a_never_expand_trip(self, rng):
        before = orc.never_expand_trips()
        codec = OrchestratorCodec()
        data = rng.integers(0, 256, 3000, dtype=np.uint8).tobytes()
        assert _frame_backends(codec.compress_bytes(data)) == ["store"]
        assert orc.never_expand_trips() == before

    def test_backend_names_stable(self):
        assert backend_names() == ["store", "gle", "gle-rle", "gle-pack",
                                   "zlib", "gle-blocks"]


#: (generator, shape) pairs of the property: the six generators at small
#: 3D shapes of their own aspect, plus a 1D and a 2D field
_PROPERTY_FIELDS = [("nyx_field", (48, 48, 48)),
                    ("jhtdb_field", (48, 48, 48)),
                    ("s3d_field", (48, 48, 48)),
                    ("miranda_field", (32, 48, 48)),
                    ("qmcpack_field", (80, 35, 35)),
                    ("rtm_field", (56, 56, 30)),
                    ("nyx_field", (40_000,)),
                    ("nyx_field", (200, 200))]


@pytest.mark.parametrize("rel_eb", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("gen,shape", _PROPERTY_FIELDS,
                         ids=[f"{g}-{len(s)}d" for g, s in _PROPERTY_FIELDS])
def test_auto_within_64_bytes_of_best_fixed_pass(gen, shape, rel_eb):
    """The per-stream rule never loses more than a frame's overhead to
    the better of whole-container GLE and no lossless pass at all."""
    from repro.common.lossless_wrap import wrap_lossless
    from repro.core.pipeline import CuSZi
    from repro.datasets import synthetic
    field = getattr(synthetic, gen)(shape, seed=1)
    blob = CuSZi(eb=rel_eb, lossless="none").compress(field)
    container = bytes(blob[5 + blob[4]:])
    sizes = {name: len(wrap_lossless(container, name))
             for name in ("auto", "gle", "none")}
    assert sizes["auto"] <= min(sizes["gle"], sizes["none"]) + 64, sizes


class TestPlanCache:
    def test_warm_bytes_identical_to_cold(self, container):
        codec = OrchestratorCodec()
        cold = codec.compress_bytes(container)
        warm = codec.compress_bytes(container)
        assert cold == warm
        assert codec.decompress_bytes(warm) == container

    def test_fingerprint_miss_on_different_content(self, container):
        # same length, different bytes: the header probe must miss and the
        # result must still round-trip
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

    def test_stale_cached_backend_is_a_never_expand_trip(self, container,
                                                            rng):
        """A warm hit whose cached backend no longer shrinks its stream
        stores it and counts one trip."""
        codec = OrchestratorCodec()
        cold = codec.compress_bytes(container)
        kept = _frame_backends(cold)
        stored = kept.index("store")
        (key, entry), = codec._plan_cache._entries.items()
        probes, spans, plan, names = entry
        stale = list(plan)
        stale[stored] = "zlib" if spans[stored][1] - spans[stored][0] \
            <= orc.ZLIB_MAX_BYTES else "gle"
        codec._plan_cache.put(key, (probes, spans, stale, names))
        before = orc.never_expand_trips()
        warm = codec.compress_bytes(container)
        assert orc.never_expand_trips() == before + 1
        assert warm == cold


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
        e1 = orc._blocks_encode(memoryview(data), 1)
        e2 = orc._blocks_encode(memoryview(data), 2)
        assert bytes(e1) == bytes(e2)
        assert orc._blocks_decode(e2) == data


class TestRegistryAndWrap:
    def test_auto_registered(self):
        codec = get_lossless("auto", workers=1)
        assert codec.name == "auto"
        assert codec.workers == 1

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
