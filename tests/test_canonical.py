"""The canonical code and the decode surfaces built from it.

The decoder keeps no full-width (``2**MAX_CODE_LEN``) table: probe LUTs
are laid out from a first-codeword table at their own width, and a
codeword wider than the probe is found by a ``searchsorted`` over the
canonical starts. These tests pin both against the flat-table oracles in
``tests/oracles.py``, and the vectorized code assignment against the
one-symbol-at-a-time loop.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.huffman.canonical as canonical
from oracles import canonical_codebook_loop, decode_loop, expand_lut_flat
from repro.common.errors import CodecError, CorruptStreamError
from repro.huffman import (MAX_CODE_LEN, canonical_codebook, canonical_order,
                           code_lengths, huffman_decode, huffman_encode)
from repro.huffman.codec import _table_crc

ALL_WIDTHS = range(1, MAX_CODE_LEN + 1)


def _lengths(freqs) -> np.ndarray:
    return code_lengths(np.asarray(freqs, dtype=np.int64), MAX_CODE_LEN)


def _incomplete() -> np.ndarray:
    """Lengths 1..15 plus one 16: Kraft sum ``1 - 2**-16``, so the
    all-ones 16-bit window opens no codeword."""
    return np.append(np.arange(1, MAX_CODE_LEN), MAX_CODE_LEN)


#: code families the width-K expansion must reproduce byte for byte
FAMILIES = {
    "skewed": lambda: _lengths(np.random.default_rng(3).zipf(1.3, 700)),
    "concentrated": lambda: _lengths(
        np.bincount((512 + np.random.default_rng(4).normal(0, 2, 20000))
                    .round().astype(np.int64), minlength=1024)),
    "incomplete": _incomplete,
    "incomplete-short": lambda: np.array([1, 2, 3, 0], np.int64),
    "single-symbol": lambda: np.array([0, 0, 1, 0], np.int64),
    "full-16-bit": lambda: np.full(1 << 16, MAX_CODE_LEN, np.int64),
    "sparse-wide-alphabet": lambda: np.concatenate(
        [np.zeros(70000, np.int64), [1, 2, 2]]),
}


class TestCanonicalOrder:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, MAX_CODE_LEN), min_size=1,
                    max_size=300))
    def test_matches_loop_oracle(self, lengths):
        """Same codes as the loop, and the same Kraft error."""
        lengths = np.array(lengths, np.int64)
        try:
            expected = canonical_codebook_loop(lengths)
        except CodecError:
            with pytest.raises(CodecError, match="Kraft"):
                canonical._canonical_uncached(lengths)
            return
        code = canonical._canonical_uncached(lengths)
        np.testing.assert_array_equal(code.codes, expected)
        used = np.flatnonzero(lengths)
        assert sorted(code.order.tolist()) == used.tolist()
        np.testing.assert_array_equal(
            code.starts, expected[code.order].astype(np.int64)
            << (MAX_CODE_LEN - code.lens.astype(np.int64)))
        span = np.int64(1) << (MAX_CODE_LEN - code.lens.astype(np.int64))
        assert code.end == int(span.sum())

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=1100))
    def test_huffman_lengths_match_loop_oracle(self, freqs):
        lengths = _lengths(freqs)
        np.testing.assert_array_equal(canonical_codebook(lengths),
                                      canonical_codebook_loop(lengths))

    def test_kraft_violation_raises(self):
        with pytest.raises(CodecError, match="Kraft"):
            canonical_order(np.array([1, 1, 1]))
        with pytest.raises(CodecError, match="Kraft"):
            canonical_codebook_loop(np.array([1, 1, 1]))

    def test_memoized_once_per_length_vector(self):
        canonical.clear_codebook_caches()
        lengths = _lengths([5, 3, 1, 1])
        first = canonical_order(lengths)
        assert canonical_order(lengths.copy()) is first
        assert canonical_codebook(lengths) is first.codes
        stats = canonical.codebook_cache_stats()
        assert (stats["codebook_hits"], stats["codebook_misses"]) == (2, 1)


class TestWidthKExpansion:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_byte_identical_to_flat_table_expansion(self, family):
        lengths = FAMILIES[family]()
        for width in ALL_WIDTHS:
            got = canonical._expand_lut(lengths, width)
            want = expand_lut_flat(lengths, width)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape, \
                    (family, width)
                np.testing.assert_array_equal(a, b, err_msg=f"{family} "
                                              f"K={width}")

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=200),
           st.integers(1, MAX_CODE_LEN))
    def test_random_codes(self, freqs, width):
        lengths = _lengths(freqs)
        if not lengths.any():
            return
        for a, b in zip(canonical._expand_lut(lengths, width),
                        expand_lut_flat(lengths, width)):
            np.testing.assert_array_equal(a, b)


def _wide_stream(seed: int):
    """A heavy-tailed stream whose code has many codewords wider than
    the narrow probe widths."""
    rng = np.random.default_rng(seed)
    codes = (512 + np.clip(rng.standard_cauchy(60000) * 3, -500, 500)
             .round()).astype(np.uint32)
    return huffman_encode(codes, 1024)


class TestNarrowDecode:
    @pytest.mark.parametrize("width", [12, 13, 14])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_pinned_width_matches_loop(self, width, seed):
        stream = _wide_stream(seed)
        assert int(stream.lengths.max()) > width
        canonical.clear_codebook_caches()
        np.testing.assert_array_equal(
            huffman_decode(stream, probe_bits=width), decode_loop(stream))

    def test_every_width_matches_loop_on_incomplete_code(self):
        lengths = _incomplete()
        codes = np.tile(np.arange(lengths.size, dtype=np.uint32), 40)
        stream = huffman_encode(codes, lengths.size, lengths=lengths)
        expected = decode_loop(stream)
        np.testing.assert_array_equal(expected, codes)
        for width in ALL_WIDTHS:
            np.testing.assert_array_equal(
                huffman_decode(stream, probe_bits=width), expected)


def _forge_past_end(lengths: np.ndarray) -> object:
    """A CRC-valid stream whose last codeword is turned into the window
    just past the code's last codeword (all ones): the chunk table still
    adds up, so only the codeword lookup can catch it."""
    last = int(np.flatnonzero(lengths == lengths.max())[-1])
    codes = np.append(np.arange(lengths.size, dtype=np.uint32)
                      [lengths > 0], last).astype(np.uint32)
    stream = huffman_encode(codes, lengths.size, lengths=lengths)
    payload = stream.payload.copy()
    bits = np.unpackbits(payload)
    end = stream.total_bits
    bits[end - int(lengths[last]):end] = 1
    payload = np.packbits(bits)
    bad = dataclasses.replace(stream, payload=payload)
    bad.crc32 = _table_crc(bad.counts, bad.gaps, bad.payload)
    return bad


class TestPastLastCodeword:
    @pytest.mark.parametrize("lengths", [
        _incomplete(), np.array([1, 2, 3, 0], np.int64),
        np.array([2, 2, 2, 0, 0], np.int64)], ids=["deep", "short", "flat"])
    def test_raises_at_every_width(self, lengths):
        bad = _forge_past_end(lengths)
        with pytest.raises(CorruptStreamError):
            decode_loop(bad)
        for width in ALL_WIDTHS:
            canonical.clear_codebook_caches()
            with pytest.raises(CorruptStreamError):
                huffman_decode(bad, probe_bits=width)
