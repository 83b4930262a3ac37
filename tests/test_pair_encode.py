"""Pair-table Huffman encode: byte identity and the input contract.

``huffman_encode`` ranks every code in a 255-code band around the
alphabet's center, codes most symbol pairs through one pair table over
the occupied band ranks, recodes the pairs holding an escape (a code
outside the table) from the per-symbol codebook, and packs four
codewords per 64-bit unit. Whichever way a pair was coded, every stream
must be byte-identical to the byte-plane oracle ``oracles.encode_loop``.
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
    """A stream of ``n`` symbols: concentrated on the center (pair table
    only), spread past the band (table plus escapes), concentrated away
    from the center (escapes for wide alphabets), or uniform (for wide
    alphabets nearly every pair escapes)."""
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


def _first_symbols(stream) -> np.ndarray:
    counts = stream.counts.astype(np.int64)
    return np.cumsum(counts) - counts


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
        # long enough for the pair-histogram count; odd and even n
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
        # every unit is exactly 64 bits (four 16-bit codewords), and a
        # 17- or 1023-bit budget puts a chunk bound on every slot of one
        lengths = np.full(1024, MAX_CODE_LEN)
        codes = _codes("centered", 1024, n, n)
        stream = _same(codes, 1024, chunk_bits=budget, lengths=lengths)
        assert stream.total_bits == MAX_CODE_LEN * n
        if budget != MAX_CODE_LEN:
            assert set(_first_symbols(stream) % 4) == {0, 1, 2, 3}

    def test_chunk_bound_on_every_slot(self):
        codes = _codes("wide", 1024, 50_001, 11)
        stream = _same(codes, 1024, chunk_bits=1023)
        assert set(_first_symbols(stream) % 4) == {0, 1, 2, 3}


class TestEscapes:
    def test_band_only_stream_has_no_escapes(self):
        codes = np.random.default_rng(0).integers(505, 520, 10_000)
        _, attrs = _pack_span(codes.astype(np.uint32), 1024)
        assert attrs["n_escapes"] == 0

    def test_escapes_counted(self):
        codes = np.random.default_rng(0).integers(505, 520, 10_000)
        codes[[5, 6, 4000]] = [0, 1023, 3]
        stream, attrs = _pack_span(codes.astype(np.uint32), 1024)
        assert attrs["n_escapes"] == 3
        np.testing.assert_array_equal(huffman_decode(stream), codes)

    def test_uniform_stream_escapes_everywhere(self):
        codes = _codes("uniform", 1024, 10_000, 1)
        _, attrs = _pack_span(codes, 1024)
        assert attrs["n_escapes"] == codes.size


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
