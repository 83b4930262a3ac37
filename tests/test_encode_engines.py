"""Huffman encode equivalence against the byte-plane oracle.

The encoder writes only the codewords of the symbols other than the
background (the canonical first symbol, whose codeword is all zero
bits), reads the gap-array chunk table off their spans and packs them
with ``pack_varbits64``. It must be byte-identical to the byte-plane oracle
``oracles.encode_loop``, which emits one codeword at a time and counts
its chunk table its own way, on every stream the codec accepts. Also
covers ``pack_varbits64``, the histogram fast paths, the fingerprint
codebook cache and the decode-LUT prewarm that back the encode hot path.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import encode_loop
from repro.common.bitpack import pack_varbits64
from repro.common.errors import CodecError
from repro.huffman import (MAX_CODE_LEN, clear_fingerprint_cache,
                           drain_lut_prewarm, fingerprint_cache_stats,
                           fingerprint_code_lengths, histogram,
                           histogram_fingerprint, huffman_decode,
                           huffman_encode, prewarm_lut_async,
                           static_lengths)
from repro.huffman.histogram import SPARSE_ALPHABET


def _both(codes, alphabet, **kw):
    sv = huffman_encode(codes, alphabet, **kw)
    sl = encode_loop(codes, alphabet, **kw)
    assert sv.to_bytes() == sl.to_bytes()
    return sv


class TestEngineByteIdentity:
    @pytest.mark.parametrize("shape", [(4096,), (61, 67), (17, 19, 23)])
    def test_dimensionalities(self, shape, rng):
        codes = rng.integers(0, 300, size=shape).astype(np.uint32)
        s = _both(codes, 300)
        assert np.array_equal(huffman_decode(s), codes.ravel())

    def test_f64_quant_stream(self, rng):
        # codes produced by the f64 pipeline are plain uint32 symbols;
        # exercise a wide-alphabet skewed stream like the ones it emits
        vals = np.clip(rng.normal(512, 3, size=50_000), 0, 1023)
        codes = vals.astype(np.uint32)
        s = _both(codes, 1024)
        assert np.array_equal(huffman_decode(s), codes)

    def test_empty_stream(self):
        s = _both(np.empty(0, np.uint32), 16)
        assert s.payload.size == 0
        assert huffman_decode(s).size == 0

    def test_single_chunk_stream(self, rng):
        codes = rng.integers(0, 9, size=200).astype(np.uint32)
        s = _both(codes, 9, chunk_bits=4096)
        assert s.n_chunks == 1
        assert np.array_equal(huffman_decode(s), codes)

    def test_single_symbol_codebook(self):
        codes = np.full(10_000, 5, dtype=np.uint32)
        s = _both(codes, 8)
        assert np.array_equal(huffman_decode(s), codes)

    def test_max_skew_codebook(self, rng):
        # geometric frequencies force the deepest (MAX_CODE_LEN) codes
        parts = [np.full(1 << (16 - i), i, dtype=np.uint32)
                 for i in range(17)]
        codes = np.concatenate(parts)
        rng.shuffle(codes)
        s = _both(codes, 32)
        assert int(s.lengths.max()) > 8
        assert np.array_equal(huffman_decode(s), codes)

    def test_static_codebook_streams(self, rng):
        lengths = static_lengths(64, 32, 2.0)
        codes = np.clip(rng.normal(32, 2, 8192), 0, 63).astype(np.uint32)
        _both(codes, 64, lengths=lengths)

    @pytest.mark.parametrize("chunk", [1, 3, 255, 256, 257])
    def test_odd_chunk_sizes(self, chunk, rng):
        # bit budgets below the longest code cannot hold a codeword
        # start per chunk: both encoders refuse them
        codes = rng.integers(0, 500, size=1000).astype(np.uint32)
        if chunk < MAX_CODE_LEN:
            for encode in (huffman_encode, encode_loop):
                with pytest.raises(CodecError):
                    encode(codes, 500, chunk_bits=chunk)
            return
        s = _both(codes, 500, chunk_bits=chunk)
        assert np.array_equal(huffman_decode(s), codes)


class TestPackVarbits64:
    def test_rejects_out_of_range(self):
        stage = np.array([1 << 63], dtype=np.uint64)
        ln = np.array([4], dtype=np.uint64)
        with pytest.raises(CodecError):
            pack_varbits64(stage, ln, np.array([6], np.int64), 1)

    def test_size_mismatch(self):
        with pytest.raises(CodecError):
            pack_varbits64(np.zeros(2, np.uint64), np.ones(3, np.uint64),
                           np.zeros(2, np.int64), 8)

    def test_word_boundary_spill(self):
        # a 16-bit code landing at bit 56 spans two output words
        stage = np.array([0xABCD << 48], dtype=np.uint64)
        ln = np.array([16], dtype=np.uint64)
        out = pack_varbits64(stage, ln, np.array([56], np.int64), 9)
        assert out[7] == 0xAB and out[8] == 0xCD


class TestHistogramFastPaths:
    def test_sparse_path_matches_dense(self, rng):
        alpha = SPARSE_ALPHABET * 2
        codes = (rng.normal(70_000, 40, 20_000)
                 .clip(0, alpha - 1).astype(np.int64))
        counts = histogram(codes, alpha)
        ref = np.bincount(codes, minlength=alpha)
        assert np.array_equal(counts, ref)

    def test_dense_wide_stream_falls_back(self, rng):
        alpha = SPARSE_ALPHABET
        codes = rng.integers(0, alpha, size=50_000)
        counts = histogram(codes, alpha)
        assert np.array_equal(counts, np.bincount(codes,
                                                  minlength=alpha))

    def test_out_of_range_raises(self):
        with pytest.raises(CodecError):
            histogram(np.array([SPARSE_ALPHABET * 2 + 5]),
                      SPARSE_ALPHABET * 2)
        with pytest.raises(CodecError):
            histogram(np.array([-1]), 16)
        with pytest.raises(CodecError):
            histogram(np.array([4]), 4)

    def test_non_integer_dtype_raises(self):
        with pytest.raises(CodecError):
            histogram(np.array([1.5, 2.0]), 8)


class TestFingerprintCache:
    def test_lengths_are_cache_history_independent(self, rng):
        freqs = np.bincount(
            rng.integers(0, 40, 5000).astype(np.int64), minlength=64)
        clear_fingerprint_cache()
        cold = fingerprint_code_lengths(freqs, MAX_CODE_LEN)
        warm = fingerprint_code_lengths(freqs, MAX_CODE_LEN)
        assert np.array_equal(cold, warm)
        stats = fingerprint_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        # a fresh process (cleared cache) must emit identical lengths
        clear_fingerprint_cache()
        again = fingerprint_code_lengths(freqs, MAX_CODE_LEN)
        assert np.array_equal(cold, again)

    def test_similar_histograms_share_a_tree(self):
        # counts chosen so each pair lands in the same quarter-log2
        # bucket: rint(4*log2(1000)) == rint(4*log2(1010)) == 40, etc.
        base = np.array([0, 1000, 250, 60, 8], dtype=np.int64)
        wobble = np.array([0, 1010, 252, 61, 8], dtype=np.int64)
        clear_fingerprint_cache()
        a = fingerprint_code_lengths(base, MAX_CODE_LEN)
        b = fingerprint_code_lengths(wobble, MAX_CODE_LEN)
        assert np.array_equal(a, b)
        assert fingerprint_cache_stats()["hits"] == 1

    def test_fingerprint_key_separates_support(self):
        k1, _ = histogram_fingerprint(np.array([0, 5, 0, 9]))
        k2, _ = histogram_fingerprint(np.array([5, 0, 0, 9]))
        assert k1 != k2

    def test_encode_decode_roundtrip_through_cache(self, rng):
        clear_fingerprint_cache()
        for seed in range(3):
            codes = np.random.default_rng(seed).integers(
                0, 200, 9000).astype(np.uint32)
            s = huffman_encode(codes, 256)
            assert np.array_equal(huffman_decode(s), codes)


class TestLutPrewarm:
    @pytest.fixture(autouse=True)
    def _no_prewarm_in_flight(self):
        # an earlier test's encode or decode may have left a prewarm
        # running; only one runs at a time, so a new one would be refused
        drain_lut_prewarm()

    def test_prewarm_then_drain_fills_lut_cache(self):
        from repro.huffman.canonical import (build_lut_tables,
                                             clear_codebook_caches,
                                             codebook_cache_stats)
        lengths = static_lengths(64, 32, 4.0)
        clear_codebook_caches()
        assert prewarm_lut_async(lengths)
        drain_lut_prewarm()
        before = codebook_cache_stats()["lut_hits"]
        build_lut_tables(lengths)
        assert codebook_cache_stats()["lut_hits"] == before + 1

    def test_prewarm_skips_warm_entries(self):
        from repro.huffman.canonical import build_lut_tables
        lengths = static_lengths(32, 16, 2.0)
        build_lut_tables(lengths)
        assert not prewarm_lut_async(lengths)

    def test_encode_hit_triggers_prewarm(self, rng):
        from repro.huffman.canonical import (build_lut_tables,
                                             clear_codebook_caches,
                                             codebook_cache_stats)
        clear_fingerprint_cache()
        clear_codebook_caches()
        codes = rng.integers(0, 100, 5000).astype(np.uint32)
        huffman_encode(codes, 128)     # miss: fills fingerprint cache
        huffman_encode(codes, 128)     # hit: kicks off the LUT prewarm
        drain_lut_prewarm()
        lengths = fingerprint_code_lengths(histogram(codes, 128),
                                           MAX_CODE_LEN)
        before = codebook_cache_stats()["lut_hits"]
        build_lut_tables(lengths)      # must hit the prewarmed entry
        assert codebook_cache_stats()["lut_hits"] == before + 1
