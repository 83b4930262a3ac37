"""Sparse Huffman encode: byte identity and the input contract.

``huffman_encode`` scans the codes once for the alphabet's middle code
(the zero bin) and counts only the others. It writes only the codewords
of the symbols other than the *background*, the canonical first symbol,
whose all-zero codeword the zeroed payload already holds, and reads each
chunk's gap off the coded codewords' spans. Whatever the background's
share and length, every stream must be byte-identical to the byte-plane
oracle ``oracles.encode_loop``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import encode_loop
from repro import telemetry
from repro.common.errors import CodecError
from repro.huffman import (MAX_CODE_LEN, huffman_decode, huffman_encode,
                           static_lengths)
from repro.huffman.histogram import SPARSE_ALPHABET

ALPHABETS = [2, 255, 256, 257, 1024, SPARSE_ALPHABET, SPARSE_ALPHABET + 3]
KINDS = ["centered", "wide", "off-center", "uniform"]
BUDGETS = [16, 17, 1023, 1024, 65535]


def _codes(kind: str, alphabet: int, n: int, seed: int) -> np.ndarray:
    """A stream of ``n`` symbols: concentrated on the center (a dominant
    background), spread wide, concentrated away from the center (the
    background is not the middle code), or uniform (almost every symbol
    is coded)."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.integers(0, alphabet, n).astype(np.uint32)
    center, scale = {"centered": (alphabet // 2, 2.0),
                     "wide": (alphabet // 2, 90.0),
                     "off-center": (alphabet // 7, 3.0)}[kind]
    vals = np.rint(rng.laplace(center, scale, n))
    return np.clip(vals, 0, alphabet - 1).astype(np.uint32)


def _same(codes, alphabet, **kw):
    stream = huffman_encode(codes, alphabet, **kw)
    assert stream.to_bytes() == encode_loop(codes, alphabet,
                                            **kw).to_bytes()
    return stream


def _pack_span(codes, alphabet, **kw):
    """Encode; return ``(stream, huffman.pack span attrs)``."""
    with telemetry.recording() as reg:
        stream = huffman_encode(codes, alphabet, **kw)
    [span] = [sp for sp in reg.spans if sp.name == "huffman.pack"]
    return stream, span.attrs


def _first_symbols(stream, codes) -> np.ndarray:
    """Each chunk's first symbol: the one starting at its start bit."""
    lens = stream.lengths.astype(np.int64)[codes]
    starts = np.cumsum(lens) - lens
    return np.searchsorted(starts, np.arange(stream.n_chunks)
                           * stream.chunk_bits + stream.gaps)


class TestByteIdentity:
    @given(alphabet=st.sampled_from(ALPHABETS), kind=st.sampled_from(KINDS),
           n=st.integers(1, 4000), seed=st.integers(0, 2 ** 32 - 1),
           budget=st.sampled_from(BUDGETS))
    @settings(max_examples=150, deadline=None)
    def test_equals_oracle(self, alphabet, kind, n, seed, budget):
        codes = _codes(kind, alphabet, n, seed)
        stream = _same(codes, alphabet, chunk_bits=budget)
        np.testing.assert_array_equal(huffman_decode(stream), codes)

    @pytest.mark.parametrize("alphabet", ALPHABETS)
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_tiny_streams(self, alphabet, n):
        for kind in KINDS:
            _same(_codes(kind, alphabet, n, n), alphabet)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [300_001, 300_002])
    def test_long_streams(self, kind, n):
        # odd and even n, past the uint16 range of symbol positions
        codes = _codes(kind, 1024, n, 3)
        for budget in (17, 1024):
            _same(codes, 1024, chunk_bits=budget)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_static_codebook(self, budget):
        lengths = static_lengths(1024, 512, 4.0)
        for kind in ("centered", "wide", "uniform"):
            codes = _codes(kind, 1024, 20_001, 5)
            _same(codes, 1024, chunk_bits=budget, lengths=lengths)

    @pytest.mark.parametrize("n", [4096, 4097, 4098, 4099])
    @pytest.mark.parametrize("budget", [16, 17, 1023])
    def test_all_16_bit_codes(self, n, budget):
        # every codeword is 16 bits, the background's too: it is symbol
        # 0, absent from the stream, so every symbol is coded; a 17- or
        # 1023-bit budget starts chunks at every symbol index mod 4
        lengths = np.full(1024, MAX_CODE_LEN)
        codes = _codes("centered", 1024, n, n)
        stream = _same(codes, 1024, chunk_bits=budget, lengths=lengths)
        assert stream.total_bits == MAX_CODE_LEN * n
        if budget != MAX_CODE_LEN:
            assert set(_first_symbols(stream, codes) % 4) == {0, 1, 2, 3}

    @pytest.mark.parametrize("kind", KINDS)
    def test_int64_offsets(self, kind, monkeypatch):
        # streams of 2**28 symbols and more lay out their bit offsets in
        # int64; the same bytes must come out of that path
        from repro.huffman import codec
        monkeypatch.setattr(codec, "_NARROW_LAYOUT_SYMBOLS", 0)
        for budget in (17, 1024):
            _same(_codes(kind, 1024, 20_001, 6), 1024, chunk_bits=budget)

    def test_chunk_bound_on_every_slot(self):
        codes = _codes("wide", 1024, 50_001, 11)
        stream = _same(codes, 1024, chunk_bits=1023)
        assert set(_first_symbols(stream, codes) % 4) == {0, 1, 2, 3}


def _background(stream) -> int:
    """The canonical first symbol: shortest code, lowest symbol."""
    lengths = stream.lengths.astype(np.int64)
    used = np.flatnonzero(lengths)
    return int(used[np.argmin(lengths[used])])


class TestCodedCount:
    """The ``huffman.pack`` span's ``n_coded``: the symbols written, all
    but the background ones."""

    def test_centered_stream_codes_all_but_the_middle(self):
        codes = _codes("centered", 1024, 10_000, 0)
        stream, attrs = _pack_span(codes, 1024)
        assert _background(stream) == 512
        assert attrs["n_coded"] == int(np.count_nonzero(codes != 512))

    def test_far_codes_are_coded_like_near_ones(self):
        codes = _codes("centered", 1024, 10_000, 0)
        codes[[5, 6, 4000]] = [0, 1023, 3]
        stream, attrs = _pack_span(codes, 1024)
        assert _background(stream) == 512
        assert attrs["n_coded"] == int(np.count_nonzero(codes != 512))
        np.testing.assert_array_equal(huffman_decode(stream), codes)

    def test_off_center_background(self):
        codes = _codes("off-center", 1024, 10_000, 1)
        stream, attrs = _pack_span(codes, 1024)
        background = _background(stream)
        assert background != 512
        assert attrs["n_coded"] == int(np.count_nonzero(codes != background))

    def test_uniform_stream_codes_almost_everything(self):
        codes = _codes("uniform", 1024, 10_000, 1)
        stream, attrs = _pack_span(codes, 1024)
        assert attrs["n_coded"] == int(
            np.count_nonzero(codes != _background(stream)))
        assert attrs["n_coded"] > 0.99 * codes.size


#: alphabet 8 with a 2-bit background: the middle code 4 is the first
#: 2-bit symbol (canonical codeword 00), 5 the other; 6, 7 take 3 bits
#: and 0-3 take 4 (Kraft sum exactly 1)
TWO_BIT = np.array([4, 4, 4, 4, 2, 2, 3, 3])
#: alphabet 4 with a 1-bit background: the middle code 2 is 0, 0 is 10,
#: 1 and 3 are 110 and 111
ONE_BIT = np.array([2, 3, 1, 3])


class TestGapRule:
    """Chunk gaps read off the coded spans: a bound inside a background
    run, on a coded codeword's start, inside a coded codeword, and on
    streams with nothing coded. Each case pins the gaps it must produce
    and must equal the oracle byte for byte."""

    @staticmethod
    def _gaps(codes, lengths, budget):
        codes = np.asarray(codes, dtype=np.uint32)
        stream = _same(codes, lengths.size, chunk_bits=budget,
                       lengths=lengths)
        np.testing.assert_array_equal(huffman_decode(stream), codes)
        return stream.gaps.tolist()

    def test_bound_inside_a_two_bit_background_run(self):
        # runs start on even bits: the odd bound 17 falls inside the
        # ninth background codeword, the next one starts at 18, and the
        # even bound 34 sits on a start
        assert self._gaps([4] * 20, TWO_BIT, 17) == [0, 1, 0]
        # a 3-bit codeword first shifts the run to odd bits: now 17 sits
        # on a start and 34 falls inside a codeword
        assert self._gaps([6] + [4] * 18, TWO_BIT, 17) == [0, 0, 1]

    def test_bound_on_a_coded_codeword_start(self):
        # 16 one-bit background codewords, then a 3-bit one at bit 16
        assert self._gaps([2] * 16 + [1] + [2] * 20, ONE_BIT, 16) == [0, 0, 0]
        # two-bit background: a coded 4-bit codeword starts at bound 18
        assert self._gaps([4] * 9 + [0] + [4] * 9, TWO_BIT, 18) == [0, 0, 0]

    def test_bound_inside_a_coded_codeword(self):
        # the 3-bit codeword spans bits 15-17: chunk 1 starts at its end
        assert self._gaps([2] * 15 + [1] + [2] * 20, ONE_BIT, 16) == [0, 2, 0]
        # two-bit background: a 4-bit codeword spans bits 16-19, so the
        # bound 17 is 3 bits short of the next start
        assert self._gaps([4] * 8 + [0] + [4] * 9, TWO_BIT, 17) == [0, 3, 0]

    def test_coded_codeword_ending_on_a_bound(self):
        # the 3-bit codeword spans bits 13-15; the background resumes at
        # bound 16
        assert self._gaps([2] * 13 + [3] + [2] * 20, ONE_BIT, 16) == [0, 0, 0]

    @pytest.mark.parametrize("budget", [16, 17, 65535])
    def test_all_background(self, budget):
        for lengths, symbol in ((TWO_BIT, 4), (ONE_BIT, 2)):
            codes = np.full(40_001, symbol, dtype=np.uint32)
            stream, attrs = _pack_span(codes, lengths.size,
                                       chunk_bits=budget, lengths=lengths)
            assert attrs["n_coded"] == 0
            self._gaps(codes, lengths, budget)
        # a dynamic codebook of one symbol: one bit per code
        codes = np.full(40_001, 512, dtype=np.uint32)
        assert _same(codes, 1024, chunk_bits=budget).total_bits == 40_001

    @pytest.mark.parametrize("budget", [16, 17, 65535])
    def test_off_center_background(self, budget):
        codes = _codes("off-center", 1024, 30_001, 2)
        stream = _same(codes, 1024, chunk_bits=budget)
        assert _background(stream) != 512
        # a static codebook whose canonical first symbol is no code of
        # the stream: every symbol is coded
        lengths = TWO_BIT[::-1].copy()
        codes = np.random.default_rng(2).choice([0, 3, 5], 5001)
        _, attrs = _pack_span(codes.astype(np.uint32), 8,
                              chunk_bits=budget, lengths=lengths)
        assert attrs["n_coded"] == codes.size
        self._gaps(codes, lengths, budget)

    @pytest.mark.parametrize("budget", [16, 17, 65535])
    @pytest.mark.parametrize("symbol", range(8))
    def test_one_symbol(self, budget, symbol):
        assert self._gaps([symbol], TWO_BIT, budget) == [0]


class TestSymbolCounts:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [0, 1, 999, 300_001])
    def test_counts_match_bincount(self, kind, n):
        codes = _codes(kind, 1024, n, 2)
        stream = huffman_encode(codes, 1024)
        np.testing.assert_array_equal(stream.symbol_counts,
                                      np.bincount(codes, minlength=1024))

    def test_parsed_stream_has_no_counts(self):
        stream = huffman_encode(_codes("centered", 64, 100, 0), 64)
        again = type(stream).from_bytes(stream.to_bytes())
        assert again.symbol_counts is None


class TestInputContract:
    """Bad symbols raise CodecError before anything input-sized is
    allocated."""

    N = 1 << 20

    def _rejected(self, codes, alphabet, **kw):
        tracemalloc.start()
        try:
            with pytest.raises(CodecError):
                huffman_encode(codes, alphabet, **kw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < codes.nbytes // 8

    def test_static_codebook_symbol_outside_alphabet(self):
        codes = np.full(self.N, 7, dtype=np.uint32)
        codes[-1] = 64
        self._rejected(codes, 64, lengths=static_lengths(64, 32, 2.0))

    def test_negative_code(self):
        codes = np.full(self.N, 7, dtype=np.int64)
        codes[-1] = -1
        self._rejected(codes, 64)

    def test_float_codes(self):
        self._rejected(np.full(self.N, 7.0), 64)

    def test_code_beyond_32_bits(self):
        codes = np.full(self.N, 7, dtype=np.int64)
        codes[-1] = (1 << 32) + 7
        self._rejected(codes, 64)

    def test_alphabet_out_of_range(self):
        with pytest.raises(CodecError):
            huffman_encode(np.zeros(4, np.uint32), 0)

    def test_signed_codes_in_range(self):
        codes = _codes("wide", 1024, 5001, 4).astype(np.int16)
        stream = huffman_encode(codes, 1024)
        assert stream.to_bytes() == encode_loop(
            codes.astype(np.uint32), 1024).to_bytes()


class TestPipelineStats:
    def test_nonzero_code_fraction_from_counts(self, monkeypatch):
        # the fraction comes from the encoder's symbol counts and must
        # equal a rescan of the code stream exactly
        from conftest import smooth_field
        from repro.core import pipeline
        seen = []
        encode = pipeline.huffman_encode

        def spy(codes, *args, **kw):
            seen.append(np.array(codes, copy=True))
            return encode(codes, *args, **kw)

        monkeypatch.setattr(pipeline, "huffman_encode", spy)
        for eb in (1e-2, 1e-4):
            codec = pipeline.CuSZi(eb=eb, mode="rel")
            _, stats = codec.compress_detailed(smooth_field(seed=3))
            codes = seen.pop()
            assert stats.nonzero_code_fraction == float(
                (codes != codec.radius).mean())
