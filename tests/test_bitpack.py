"""Unit + property tests for repro.common.bitpack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitpack import (bit_length, min_bit_width, pack_uint,
                                  pack_varbits64, unpack_uint,
                                  zigzag_decode, zigzag_encode)
from repro.common.errors import CodecError

from oracles import pack_uint_wide, unpack_uint_bits


class TestPackUnpack:
    @pytest.mark.parametrize("width", [1, 3, 7, 8, 13, 16, 31, 32, 57, 64])
    def test_roundtrip_random(self, width, rng):
        hi = (1 << width) - 1
        vals = rng.integers(0, hi, 257, dtype=np.uint64,
                            endpoint=True)
        packed = pack_uint(vals, width)
        assert packed.size == -(-257 * width // 8)
        back = unpack_uint(packed, width, 257)
        np.testing.assert_array_equal(back, vals)

    @pytest.mark.parametrize("width", [1, 2, 4, 8, 16, 24, 32])
    def test_fast_paths_match_dense_reference(self, width, rng):
        # byte-aligned widths take dedicated copy/fold paths; their bytes
        # must equal the generic MSB-first dense-bit-matrix layout
        vals = rng.integers(0, 2 ** min(width, 32), 300).astype(np.uint64)
        packed = pack_uint(vals, width)
        shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
        bits = ((vals[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
        assert np.array_equal(packed, np.packbits(bits.ravel()))
        assert np.array_equal(unpack_uint(packed, width, vals.size), vals)

    def test_width_zero_all_zero(self):
        packed = pack_uint(np.zeros(10, np.uint64), 0)
        assert packed.size == 0
        np.testing.assert_array_equal(unpack_uint(packed, 0, 10),
                                      np.zeros(10))

    def test_width_zero_nonzero_rejected(self):
        with pytest.raises(CodecError):
            pack_uint(np.array([1], np.uint64), 0)

    def test_value_overflow_rejected(self):
        with pytest.raises(CodecError):
            pack_uint(np.array([4], np.uint64), 2)

    def test_empty(self):
        assert pack_uint(np.array([], np.uint64), 5).size == 0
        assert unpack_uint(np.array([], np.uint8), 5, 0).size == 0

    def test_truncated_stream_rejected(self):
        packed = pack_uint(np.arange(16, dtype=np.uint64), 5)
        with pytest.raises(CodecError):
            unpack_uint(packed[:-1], 5, 16)

    def test_bad_width(self):
        with pytest.raises(CodecError):
            pack_uint(np.array([1], np.uint64), 65)
        with pytest.raises(CodecError):
            unpack_uint(np.zeros(8, np.uint8), -1, 4)

    @pytest.mark.parametrize("width", range(1, 9))
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64])
    def test_narrow_widths_match_the_widening_path(self, width, dtype,
                                                   rng):
        # widths 1-8 pack in uint8 throughout; their bytes must equal the
        # path that widens every input to uint64 first, at every length
        # modulo the values per byte
        for n in (1, 2, 3, 7, 8, 9, 255, 4096, 4097):
            vals = rng.integers(0, 1 << width, n).astype(dtype)
            packed = pack_uint(vals, width)
            assert packed.tobytes() == pack_uint_wide(vals, width).tobytes()
            np.testing.assert_array_equal(unpack_uint(packed, width, n),
                                          vals)

    @pytest.mark.parametrize("width", range(1, 9))
    def test_narrow_widths_unpack_any_bytes_like_the_bit_matrix(self, width,
                                                                rng):
        # unpacking reads whole groups of 8 values: arbitrary bytes, a
        # count that ends mid-group and nonzero pad bits past the last
        # value must decode exactly as the dense bit matrix reads them
        for n in (1, 5, 8, 9, 15, 4097):
            packed = rng.integers(0, 256, -(-n * width // 8) + 3,
                                  dtype=np.uint8)
            got = unpack_uint(packed, width, n)
            assert got.dtype == np.uint64
            np.testing.assert_array_equal(
                got, unpack_uint_bits(packed, width, n))

    @pytest.mark.parametrize("width", range(1, 8))
    def test_narrow_widths_reject_what_they_cannot_hold(self, width):
        for vals in (np.array([1 << width], np.uint16),
                     np.array([1 << width], np.uint64),
                     np.array([-1], np.int64)):
            with pytest.raises(CodecError):
                pack_uint(vals, width)

    @given(st.lists(st.integers(0, 2**20 - 1), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values):
        vals = np.array(values, dtype=np.uint64)
        width = max(min_bit_width(vals), 1)
        back = unpack_uint(pack_uint(vals, width), width, vals.size)
        np.testing.assert_array_equal(back, vals)


class TestZigzag:
    def test_known_mapping(self):
        v = np.array([0, -1, 1, -2, 2, -3], dtype=np.int64)
        np.testing.assert_array_equal(zigzag_encode(v),
                                      [0, 1, 2, 3, 4, 5])

    def test_roundtrip_extremes(self):
        v = np.array([0, 1, -1, 2**62, -2**62], dtype=np.int64)
        np.testing.assert_array_equal(zigzag_decode(zigzag_encode(v)), v)

    @given(st.lists(st.integers(-2**40, 2**40), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values):
        v = np.array(values, dtype=np.int64)
        np.testing.assert_array_equal(zigzag_decode(zigzag_encode(v)), v)

    def test_small_magnitude_stays_small(self):
        v = np.array([-4, 4], dtype=np.int64)
        assert zigzag_encode(v).max() <= 8


class TestBitLength:
    def test_zero(self):
        assert bit_length(np.array([0], np.uint64))[0] == 0

    @pytest.mark.parametrize("value,expect", [(1, 1), (2, 2), (3, 2),
                                              (255, 8), (256, 9),
                                              (2**32 - 1, 32), (2**52, 53),
                                              (2**63, 64)])
    def test_known_values(self, value, expect):
        assert bit_length(np.array([value], np.uint64))[0] == expect

    def test_matches_python(self, rng):
        vals = rng.integers(0, 2**63, 1000, dtype=np.uint64)
        got = bit_length(vals)
        expect = np.array([int(v).bit_length() for v in vals])
        np.testing.assert_array_equal(got, expect)

    def test_min_bit_width(self):
        assert min_bit_width(np.array([0, 0])) == 0
        assert min_bit_width(np.array([5])) == 3
        assert min_bit_width(np.array([], np.uint64)) == 0


def _varbits_reference(units, lengths, pos, total_bytes):
    """Bit-by-bit reference of pack_varbits64 through one Python int."""
    acc = 0
    for u, ln, p in zip(units, lengths, pos):
        ln, p = int(ln), int(p)
        acc |= (int(u) >> (64 - ln)) << (8 * total_bytes - p - ln)
    return np.frombuffer(acc.to_bytes(total_bytes, "big"), np.uint8)


def _staged(rng, lengths):
    """Random units of the given lengths, MSB-aligned in uint64 with
    every bit below a unit zero."""
    words = rng.integers(0, 2 ** 64, len(lengths), dtype=np.uint64)
    return np.array([int(w) >> (64 - int(ln)) << (64 - int(ln))
                     for w, ln in zip(words, lengths)], dtype=np.uint64)


class TestPackVarbits64:
    """Units up to 64 bits: the Huffman encoder packs four codewords per
    unit, so a unit can fill a whole output word or spill 63 bits."""

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    @pytest.mark.parametrize("lead", [0, 1, 31, 63])
    def test_full_64_bit_units(self, dtype, lead, rng):
        lengths = np.full(50, 64, np.uint8)
        units = _staged(rng, lengths)
        pos = (lead + 64 * np.arange(50)).astype(dtype)
        total = -(-(lead + 64 * 50) // 8)
        ref = _varbits_reference(units, lengths, pos, total)
        out = pack_varbits64(units.copy(), lengths, pos, total)
        np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    def test_every_offset_of_a_64_bit_unit(self, dtype, rng):
        for off in range(64):
            units = _staged(rng, np.array([64]))
            pos = np.array([off], dtype)
            total = -(-(off + 64) // 8)
            out = pack_varbits64(units.copy(), np.array([64], np.uint8),
                                 pos, total)
            np.testing.assert_array_equal(
                out, _varbits_reference(units, [64], pos, total))

    @given(lengths=st.lists(st.integers(1, 64), min_size=1, max_size=300),
           gaps=st.lists(st.integers(0, 70), min_size=300, max_size=300),
           seed=st.integers(0, 2 ** 32 - 1), narrow=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, lengths, gaps, seed, narrow):
        # contiguous runs and gaps, words holding many units or none
        rng = np.random.default_rng(seed)
        lengths = np.array(lengths, np.uint8)
        skip = np.array(gaps[:lengths.size]) * rng.integers(0, 2,
                                                            lengths.size)
        pos = np.cumsum(lengths.astype(np.int64) + skip) - lengths
        pos = pos.astype(np.uint32 if narrow else np.int64)
        units = _staged(rng, lengths)
        total = -(-(int(pos[-1]) + int(lengths[-1])) // 8) + \
            int(rng.integers(0, 3))
        out = pack_varbits64(units.copy(), lengths, pos, total)
        np.testing.assert_array_equal(
            out, _varbits_reference(units, lengths, pos, total))

    def test_unit_past_the_stream_rejected(self):
        with pytest.raises(CodecError):
            pack_varbits64(np.zeros(1, np.uint64), np.array([64], np.uint8),
                           np.array([1], np.uint32), 8)
