"""Unit + property tests for the chunked Huffman codec."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CodecError, CorruptStreamError
from repro.huffman import (MAX_CODE_LEN, PROBE_WIDTHS, HuffmanStream,
                           canonical_codebook,
                           canonical_order, code_lengths, histogram,
                           histogram_fingerprint, huffman_decode,
                           huffman_encode, topk_coverage)

from oracles import build_decode_table, code_lengths_heap, decode_loop
from test_huffman_adversarial import (DECODERS, _reencode,
                                      _rejected_before_allocation)


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


@st.composite
def _histograms(draw):
    """``(freqs, max_len)``: alphabets of 2-65536 with up to 600 used
    symbols, weights tie-heavy, Zipf, spread over 40 octaves (deep
    trees, so the Kraft repair runs) or a fingerprint's representative
    vector, and any code-length limit the used symbols fit."""
    alphabet = draw(st.integers(2, 1 << 16))
    n_used = draw(st.integers(1, min(alphabet, 600)))
    kind = draw(st.sampled_from(["ties", "zipf", "wide", "fingerprint"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ties":
        weights = rng.integers(1, 4, n_used)
    elif kind == "wide":
        weights = np.rint(2.0 ** rng.uniform(0, 40, n_used))
    else:
        weights = rng.zipf(1.3, n_used)
    freqs = np.zeros(alphabet, dtype=np.int64)
    freqs[rng.choice(alphabet, n_used, replace=False)] = weights
    if kind == "fingerprint":
        freqs = histogram_fingerprint(freqs)[1]
    min_len = max(1, (n_used - 1).bit_length())
    return freqs, draw(st.integers(min_len, MAX_CODE_LEN))


class TestTwoQueueMerge:
    """The two-queue tree against the heap oracle: the same
    length for every symbol, so every stream byte stays the same."""

    @settings(max_examples=200, deadline=None)
    @given(_histograms())
    def test_matches_heap_oracle(self, case):
        freqs, max_len = case
        np.testing.assert_array_equal(code_lengths(freqs, max_len),
                                      code_lengths_heap(freqs, max_len))

    @pytest.mark.parametrize("weights", ["ones", "zipf", "fingerprint"])
    def test_full_16_bit_alphabet(self, weights, rng):
        """All 65536 symbols used: flat ties, and skewed weights whose
        optimal tree is far deeper than 16 bits."""
        if weights == "ones":
            freqs = np.ones(1 << 16, dtype=np.int64)
        else:
            freqs = rng.zipf(1.2, 1 << 16).astype(np.int64)
            if weights == "fingerprint":
                freqs = histogram_fingerprint(freqs)[1]
        got = code_lengths(freqs, MAX_CODE_LEN)
        np.testing.assert_array_equal(got, code_lengths_heap(freqs,
                                                             MAX_CODE_LEN))
        assert np.sum(2.0 ** -got.astype(float)) <= 1.0

    def test_kraft_repair_over_many_sweeps(self):
        """Fibonacci weights give a path-shaped tree: clamping it to 5
        bits needs several repair sweeps."""
        freqs = np.array([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233,
                          377, 610, 987, 1597, 2584, 4181, 6765])
        for max_len in range(5, 20):
            np.testing.assert_array_equal(code_lengths(freqs, max_len),
                                          code_lengths_heap(freqs, max_len))


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


def _one_bit_stream(n_bits, budget, n_symbols=None, seed=0):
    """A stream over two 1-bit codes: every bit is a codeword boundary,
    so any budget with all-zero gaps chunks it validly."""
    payload = np.random.default_rng(seed).integers(
        0, 256, -(-n_bits // 8), dtype=np.uint8)
    if n_bits % 8:
        payload[-1] &= 0xFF << (8 - n_bits % 8) & 0xFF
    n_chunks = -(-n_bits // budget) if budget else 0
    stream = HuffmanStream(
        n_symbols=n_bits if n_symbols is None else n_symbols,
        alphabet_size=2, chunk_bits=budget,
        lengths=np.ones(2, np.uint8), gaps=np.zeros(n_chunks, np.uint8),
        total_bits=n_bits, payload=payload)
    stream.crc32 = stream.table_crc()
    return stream


class TestHostileV3Tables:
    """Version-3 chunk tables forged with an honest CRC. Each forgery
    decodes to the right symbols (or silently wrong ones) but for the one
    check it targets, so removing that check lets it through."""

    @pytest.fixture(scope="class")
    def stream(self):
        rng = np.random.default_rng(31)
        codes = rng.zipf(1.6, size=6000).astype(np.uint32) % 40
        stream = huffman_encode(codes, 40, chunk_bits=256)
        assert stream.n_chunks > 8
        np.testing.assert_array_equal(huffman_decode(stream), codes)
        return stream

    @pytest.fixture(scope="class")
    def codes(self, stream):
        return decode_loop(stream)

    def _starts(self, stream, codes):
        lens = stream.lengths.astype(np.int64)[codes]
        return np.cumsum(lens) - lens, lens

    def test_untouched_stream_decodes(self, stream, codes):
        for decode in DECODERS:
            np.testing.assert_array_equal(decode(stream), codes)

    def test_gap_of_sixteen_or_more(self, stream, codes):
        # hand chunk 3's leading codewords to chunk 2 until its gap
        # reaches MAX_CODE_LEN: the chunks still end on codeword bounds
        # and decode to the right symbols, so only the gap range catches it
        starts, lens = self._starts(stream, codes)
        bound = 3 * stream.chunk_bits
        k = int(np.searchsorted(starts, bound))
        while starts[k] - bound < MAX_CODE_LEN:
            k += 1
        gaps = stream.gaps.copy()
        gaps[3] = starts[k] - bound
        _rejected_before_allocation(_reencode(stream, gaps=gaps))

    def test_nonzero_first_gap(self, stream):
        # one junk bit ahead of the payload, every gap and the bit count
        # grown to match: every chunk decodes to the right symbols, but
        # the stream no longer starts with a codeword
        assert int(stream.gaps.max()) < MAX_CODE_LEN - 1
        assert stream.total_bits % stream.chunk_bits
        bits = np.unpackbits(stream.payload)[:stream.total_bits]
        payload = np.packbits(np.concatenate([[1], bits]))
        _rejected_before_allocation(_reencode(stream, payload=payload,
                                gaps=stream.gaps + 1,
                                total_bits=stream.total_bits + 1))

    def test_nonzero_pad_nibble(self, codes):
        # the longest prefix of the stream that has an odd chunk count
        odd = next(s for s in (huffman_encode(codes[:m], 40, chunk_bits=256)
                               for m in range(codes.size, 0, -64))
                   if s.n_chunks & 1)
        blob = bytearray(odd.to_bytes())
        table_end = len(blob) - odd.payload.size
        assert blob[table_end - 1] & 0xF == 0
        blob[table_end - 1] |= 0x5
        forged = HuffmanStream.from_bytes(bytes(blob))
        assert forged.pad == 0x5
        _rejected_before_allocation(forged)

    def test_table_packs_two_gaps_per_byte(self, stream):
        blob = stream.to_bytes()
        table = len(blob) - HuffmanStream.HEADER.size \
            - stream.alphabet_size - stream.payload.size
        assert table == (stream.n_chunks + 1) // 2
        back = HuffmanStream.from_bytes(blob)
        np.testing.assert_array_equal(back.gaps, stream.gaps)
        assert back.pad == 0

    @pytest.mark.parametrize("forgery", ["missing-chunk", "extra-chunk",
                                         "total-bits-up", "total-bits-down"])
    def test_chunk_count_not_ceil_of_total_bits(self, stream, forgery):
        budget = stream.chunk_bits
        if forgery == "missing-chunk":
            # the last lane carries two chunks' bits and still decodes
            bad = _reencode(stream, gaps=stream.gaps[:-1])
        elif forgery == "extra-chunk":
            bad = _reencode(stream, gaps=np.append(stream.gaps, np.uint8(0)))
        elif forgery == "total-bits-up":
            bad = _reencode(stream, total_bits=stream.total_bits + budget)
        else:
            bad = _reencode(stream, total_bits=stream.total_bits - budget)
        _rejected_before_allocation(bad)

    def test_last_chunk_starts_past_the_end(self):
        # 67 bits at B = 16 leave the last chunk 3 bits; a gap of 5 puts
        # its start past the end, and the previous chunk's end with it
        stream = _one_bit_stream(67, 16)
        gaps = stream.gaps.copy()
        gaps[-1] = 5
        with pytest.raises(CorruptStreamError, match="past the end"):
            _reencode(stream, gaps=gaps).layout()
        _rejected_before_allocation(_reencode(stream, gaps=gaps))

    @pytest.mark.parametrize("budget", [0, MAX_CODE_LEN - 1, 1 << 16])
    def test_budget_out_of_range(self, budget):
        # 1-bit codes: the chunking is valid at any budget, so only the
        # range check rejects it
        _rejected_before_allocation(_one_bit_stream(1000, budget))

    def test_truncated_gap_table(self, stream):
        blob = stream.to_bytes()
        table_at = HuffmanStream.HEADER.size + stream.alphabet_size
        for cut in (table_at, table_at + (stream.n_chunks + 1) // 2 - 1):
            with pytest.raises(CorruptStreamError, match="truncated"):
                HuffmanStream.from_bytes(blob[:cut])

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_symbol_count_outside_bit_range(self, side):
        # 16 Mbit of 1-bit codes hold exactly 2**24 symbols: claiming one
        # fewer must be refused before any decode work, and claiming
        # 2**40 before the output is sized from it
        n_bits = 1 << 24
        n = n_bits - 1 if side == "below" else 1 << 40
        _rejected_before_allocation(_one_bit_stream(n_bits, 4096, n_symbols=n))

    def test_chunk_end_inside_a_codeword(self):
        # codes 0, 10, 11: a chunk that opens with 10, its start moved one
        # bit later, leaves the previous chunk ending inside that
        # codeword while the next one decodes 0 from its second bit. The
        # symbol count still adds up, so without the end check the
        # stream decodes to wrong symbols. A 1-bit probe sends every
        # longer codeword through its one-codeword row, whose trim must
        # catch it there.
        lengths = np.array([1, 2, 2])
        codes = np.random.default_rng(5).choice(
            3, 240, p=[0.5, 0.25, 0.25]).astype(np.uint32)
        stream = huffman_encode(codes, 3, chunk_bits=16, lengths=lengths)
        lens = lengths[codes]
        starts = np.cumsum(lens) - lens
        chunk_starts = np.arange(stream.n_chunks) * 16 + stream.gaps
        first = codes[np.searchsorted(starts, chunk_starts[1:-1])]
        [k] = 1 + np.flatnonzero((first == 1)
                                 & (stream.gaps[1:-1] < MAX_CODE_LEN - 1))[:1]
        gaps = stream.gaps.copy()
        gaps[k] += 1
        bad = _reencode(stream, gaps=gaps)
        _rejected_before_allocation(bad)
        with pytest.raises(CorruptStreamError, match="inside a codeword"):
            huffman_decode(bad, probe_bits=1)

    def test_narrow_window_past_the_last_codeword(self):
        # lengths 1..15 and one 16 leave only the all-ones 16-bit window
        # without a codeword; one wide codeword mid-stream, its last bit
        # set, opens it. At a narrow width that window reaches the
        # LUT's invalid row, which emits nothing: only the invalid-row
        # check catches it (the chunk table and counts are untouched)
        lengths = np.append(np.arange(1, MAX_CODE_LEN), MAX_CODE_LEN)
        codes = np.random.default_rng(8).integers(0, 16, 400) \
            .astype(np.uint32)
        codes[200] = 15                      # the 16-bit codeword
        stream = huffman_encode(codes, 16, chunk_bits=256, lengths=lengths)
        lens = lengths[codes]
        end = int(lens[:201].sum())          # that codeword's end bit
        bits = np.unpackbits(stream.payload)
        assert not bits[end - 1]
        bits[end - 1] = 1
        bad = _reencode(stream, payload=np.packbits(bits))
        _rejected_before_allocation(bad)
        with pytest.raises(CorruptStreamError, match="invalid codeword"):
            huffman_decode(bad, probe_bits=PROBE_WIDTHS[0])

    def test_wide_codeword_straddles_a_chunk_end(self):
        # a complete code whose codewords reach 15 bits: a chunk that
        # opens with a codeword wider than a narrow probe, its start
        # moved one bit later, leaves the previous chunk ending inside
        # that codeword. Its lane meets the codeword's one-codeword row,
        # whose advance runs past the end, and only the trim catches it
        lengths = np.append(np.arange(1, MAX_CODE_LEN), MAX_CODE_LEN - 1)
        codes = np.random.default_rng(9).integers(0, 16, 3000) \
            .astype(np.uint32)
        stream = huffman_encode(codes, 16, chunk_bits=256, lengths=lengths)
        lens = lengths[codes]
        starts = np.cumsum(lens) - lens
        chunk_starts = np.arange(stream.n_chunks) * 256 + stream.gaps
        opens = lens[np.searchsorted(starts, chunk_starts[1:-1])]
        [k] = 1 + np.flatnonzero((opens > PROBE_WIDTHS[0])
                                 & (stream.gaps[1:-1] < MAX_CODE_LEN - 1))[:1]
        gaps = stream.gaps.copy()
        gaps[k] += 1
        bad = _reencode(stream, gaps=gaps)
        _rejected_before_allocation(bad)
        with pytest.raises(CorruptStreamError, match="inside a codeword"):
            huffman_decode(bad, probe_bits=PROBE_WIDTHS[0])

    @pytest.mark.parametrize("delta", [1, -1])
    def test_symbol_count_not_the_derived_sum(self, stream, delta):
        bad = _reencode(stream)
        bad.n_symbols += delta
        _rejected_before_allocation(bad)


class TestForgedV3Agreement:
    """On a stream whose table or payload bytes were flipped and whose
    CRC was re-stamped, the library decoder at every probe width and the
    oracle agree: each raises :class:`CorruptStreamError`, or each
    returns the same symbols."""

    @given(seed=st.integers(0, 2 ** 32 - 1),
           budget=st.sampled_from([16, 17, 64, 256]),
           flips=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_decoders_agree_on_forged_bytes(self, seed, budget, flips):
        rng = np.random.default_rng(seed)
        alphabet = int(rng.integers(2, 200))
        codes = (rng.zipf(1.5, int(rng.integers(1, 2000)))
                 % alphabet).astype(np.uint32)
        blob = bytearray(huffman_encode(codes, alphabet,
                                        chunk_bits=budget).to_bytes())
        tail = HuffmanStream.HEADER.size + alphabet
        for at in rng.integers(tail, len(blob), flips):
            blob[at] ^= int(rng.integers(1, 256))
        forged = HuffmanStream.from_bytes(bytes(blob))
        forged.crc32 = forged.table_crc()
        outcomes = []
        for decode in (decode_loop, *[functools.partial(
                huffman_decode, probe_bits=w) for w in (None, 1, 5, 12, 16)]):
            try:
                outcomes.append(decode(forged).tobytes())
            except CorruptStreamError:
                outcomes.append(None)
        assert len(set(outcomes)) == 1
