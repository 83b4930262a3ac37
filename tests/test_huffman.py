"""Unit + property tests for the chunked Huffman codec."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CodecError
from repro.huffman import (MAX_CODE_LEN, HuffmanStream, canonical_codebook,
                           canonical_order, code_lengths, histogram,
                           huffman_decode, huffman_encode, topk_coverage)

from oracles import build_decode_table


class TestHistogram:
    def test_counts(self):
        h = histogram(np.array([1, 1, 3], np.uint32), 5)
        np.testing.assert_array_equal(h, [0, 2, 0, 1, 0])

    def test_empty(self):
        assert histogram(np.array([], np.uint32), 4).sum() == 0

    def test_out_of_alphabet_rejected(self):
        with pytest.raises(CodecError):
            histogram(np.array([7], np.uint32), 4)

    def test_topk_coverage_concentrated(self):
        counts = np.zeros(1024)
        counts[512] = 990
        counts[513] = 10
        assert topk_coverage(counts, 512, 3) == 1.0
        assert topk_coverage(counts, 512, 1) == pytest.approx(0.99)

    def test_topk_coverage_empty(self):
        assert topk_coverage(np.zeros(8), 4, 3) == 1.0

    def test_topk_bad_k(self):
        with pytest.raises(CodecError):
            topk_coverage(np.ones(8), 4, 0)


class TestCodeLengths:
    def test_single_symbol_gets_one_bit(self):
        lengths = code_lengths(np.array([0, 5, 0]), 16)
        assert lengths[1] == 1 and lengths[0] == 0 and lengths[2] == 0

    def test_uniform_alphabet(self):
        lengths = code_lengths(np.full(8, 10), 16)
        np.testing.assert_array_equal(lengths, np.full(8, 3))

    def test_optimal_for_dyadic(self):
        # frequencies 8,4,2,1,1 -> lengths 1,2,3,4,4
        lengths = code_lengths(np.array([8, 4, 2, 1, 1]), 16)
        np.testing.assert_array_equal(sorted(lengths), [1, 2, 3, 4, 4])

    def test_kraft_inequality(self, rng):
        freqs = rng.integers(0, 1000, 300)
        lengths = code_lengths(freqs, MAX_CODE_LEN)
        used = lengths[lengths > 0]
        assert np.sum(2.0 ** -used) <= 1.0 + 1e-12

    def test_length_limit_enforced(self):
        # fibonacci-ish frequencies force deep optimal trees
        freqs = np.array([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233,
                          377, 610, 987, 1597, 2584, 4181, 6765, 10946,
                          17711, 28657, 46368])
        lengths = code_lengths(freqs, 8)
        assert lengths.max() <= 8
        used = lengths[lengths > 0]
        assert np.sum(2.0 ** -used) <= 1.0 + 1e-12

    def test_too_many_symbols_rejected(self):
        with pytest.raises(CodecError):
            code_lengths(np.ones(32), 4)

    def test_negative_freq_rejected(self):
        with pytest.raises(CodecError):
            code_lengths(np.array([-1, 2]), 8)


class TestCanonical:
    def test_prefix_free(self):
        lengths = code_lengths(np.array([50, 30, 10, 5, 3, 2]), 16)
        codes = canonical_codebook(lengths)
        used = np.flatnonzero(lengths)
        words = [format(codes[s], f"0{lengths[s]}b") for s in used]
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                if i != j:
                    assert not b.startswith(a)

    def test_decode_table_consistency(self, rng):
        freqs = rng.integers(0, 100, 64)
        lengths = code_lengths(freqs, MAX_CODE_LEN)
        codes = canonical_codebook(lengths)
        sym_t, len_t = build_decode_table(lengths)
        for s in np.flatnonzero(lengths):
            window = int(codes[s]) << (MAX_CODE_LEN - int(lengths[s]))
            assert sym_t[window] == s
            assert len_t[window] == lengths[s]

    def test_invalid_kraft_rejected(self):
        with pytest.raises(CodecError):
            canonical_codebook(np.array([1, 1, 1]))  # three 1-bit codes

    def test_over_long_rejected(self):
        with pytest.raises(CodecError):
            canonical_codebook(np.array([MAX_CODE_LEN + 1]))

    def test_empty_table(self):
        sym_t, len_t = build_decode_table(np.zeros(4, np.int64))
        assert (len_t == 0).all()

    def test_empty_order(self):
        code = canonical_order(np.zeros(4, np.int64))
        assert code.order.size == code.starts.size == 0
        assert code.end == 0

    @pytest.mark.parametrize("n_symbols", [1, 2, 7, 300, 1024])
    def test_order_starts_tile_the_flat_table(self, rng, n_symbols):
        """A ``searchsorted`` over the left-justified starts resolves
        every 16-bit window exactly as the flat table does, and a window
        at or past ``end`` is exactly a zero-length table slot."""
        freqs = rng.integers(0, 1000, n_symbols)
        freqs[0] = 1
        lengths = code_lengths(freqs, MAX_CODE_LEN)
        code = canonical_order(lengths)
        sym_t, len_t = build_decode_table(lengths)
        win = np.arange(1 << MAX_CODE_LEN)
        at = np.searchsorted(code.starts, win, side="right") - 1
        inside = win < code.end
        np.testing.assert_array_equal(inside, len_t > 0)
        np.testing.assert_array_equal(code.order[at][inside], sym_t[inside])
        np.testing.assert_array_equal(code.lens[at][inside], len_t[inside])


class TestCodec:
    def test_roundtrip_concentrated(self, rng):
        codes = (512 + np.clip(rng.normal(0, 1.5, 100000), -400, 400)
                 .round()).astype(np.uint32)
        stream = huffman_encode(codes, 1024)
        np.testing.assert_array_equal(huffman_decode(stream), codes)

    def test_roundtrip_uniform(self, rng):
        codes = rng.integers(0, 1024, 30000).astype(np.uint32)
        stream = huffman_encode(codes, 1024)
        np.testing.assert_array_equal(huffman_decode(stream), codes)

    def test_serialization_roundtrip(self, rng):
        codes = rng.integers(0, 100, 5000).astype(np.uint32)
        stream = huffman_encode(codes, 128)
        back = HuffmanStream.from_bytes(stream.to_bytes())
        np.testing.assert_array_equal(huffman_decode(back), codes)

    def test_empty(self):
        stream = huffman_encode(np.array([], np.uint32), 16)
        assert huffman_decode(stream).size == 0

    def test_single_element(self):
        codes = np.array([7], np.uint32)
        stream = huffman_encode(codes, 16)
        np.testing.assert_array_equal(huffman_decode(stream), codes)

    def test_single_distinct_symbol(self):
        codes = np.full(9999, 3, np.uint32)
        stream = huffman_encode(codes, 16)
        # 1 bit per element, with no per-chunk padding
        assert stream.payload.size == -(-9999 // 8)
        np.testing.assert_array_equal(huffman_decode(stream), codes)

    def test_chunk_boundary_sizes(self, rng):
        for n in (2047, 2048, 2049, 4096):
            codes = rng.integers(0, 50, n).astype(np.uint32)
            stream = huffman_encode(codes, 64, chunk_bits=2048)
            np.testing.assert_array_equal(huffman_decode(stream), codes)

    def test_tiny_chunks(self, rng):
        codes = rng.integers(0, 8, 100).astype(np.uint32)
        stream = huffman_encode(codes, 8, chunk_bits=MAX_CODE_LEN)
        np.testing.assert_array_equal(huffman_decode(stream), codes)

    def test_bad_chunk_size(self):
        for budget in (0, MAX_CODE_LEN - 1, 1 << 16):
            with pytest.raises(CodecError):
                huffman_encode(np.zeros(4, np.uint32), 8, chunk_bits=budget)

    def test_corrupt_payload_detected(self, rng):
        codes = rng.integers(0, 64, 5000).astype(np.uint32)
        stream = huffman_encode(codes, 64)
        payload = stream.payload.copy()
        payload[: payload.size // 2] ^= 0xFF
        corrupt = dataclasses.replace(stream, payload=payload, crc32=0)
        with pytest.raises(CodecError):
            huffman_decode(corrupt)

    def test_compresses_skewed_data(self, rng):
        codes = np.where(rng.random(50000) < 0.95, 512,
                         rng.integers(0, 1024, 50000)).astype(np.uint32)
        stream = huffman_encode(codes, 1024)
        bpe = stream.nbytes * 8 / codes.size
        assert bpe < 2.0  # entropy ~0.65 bits

    @given(st.lists(st.integers(0, 255), max_size=300),
           st.integers(MAX_CODE_LEN, 256))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, values, chunk):
        codes = np.array(values, dtype=np.uint32)
        stream = huffman_encode(codes, 256, chunk_bits=chunk)
        back = huffman_decode(HuffmanStream.from_bytes(stream.to_bytes()))
        np.testing.assert_array_equal(back, codes)
