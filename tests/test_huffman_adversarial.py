"""Adversarial + oracle equivalence tests for the Huffman decoder.

The multi-symbol LUT decoder (chunk-parallel) and the one codeword per
lookup oracle (``oracles.decode_loop``) must agree byte-for-byte on
every valid stream and raise
:class:`~repro.common.errors.CorruptStreamError` — never mis-decode — on
every corrupt one. These tests drive both decoders through degenerate
codebooks (single symbol, maximally skewed trees), codewords wider than
the LUT probe, hostile gap-array chunk tables (each rejected before any
allocation sized from the stream), and the full pipeline across
dtypes, shapes and the slab / tiled / shm transports. The LUT decoder
also runs pinned to a narrow probe width, so the wide-codeword fallback
path sees the same hostile streams, and its per-stream width choice and
full-width promotion are checked directly.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.pipeline as pipeline
import repro.huffman.canonical as canonical
import repro.huffman.codec as codec
from oracles import decode_loop, encode_loop, v2_bytes
from repro import telemetry
from repro.common.errors import CodecError, CorruptStreamError
from repro.huffman import (MAX_CODE_LEN, PROBE_WIDTHS, HuffmanStream,
                           HuffmanStreamV2, build_lut_tables, choose_probe_bits,
                           code_lengths, drain_lut_prewarm,
                           huffman_decode, huffman_encode, lut_cached)
from repro.huffman.canonical import (LUT_CACHE_BYTES,
                                     clear_codebook_caches,
                                     codebook_cache_stats)

from conftest import smooth_field

#: the library decoder and its oracle, by the name each runs under
ENGINES = {"lut": huffman_decode, "loop": decode_loop}

#: every decoder configuration hostile streams must be rejected by:
#: both decoders, plus the lut decoder pinned to the narrowest probe
DECODERS = (huffman_decode,
            functools.partial(huffman_decode, probe_bits=PROBE_WIDTHS[0]),
            decode_loop)


def _reencode(stream, **parts):
    """Clone a stream with substituted parts, keeping the CRC honest so
    corruption must be caught by *decoding*, not the checksum."""
    bad = dataclasses.replace(stream, **parts)
    bad.crc32 = bad.table_crc()
    return bad


def _assert_both_engines_equal(stream, expected):
    for decode in ENGINES.values():
        np.testing.assert_array_equal(decode(stream), expected)


def _assert_both_engines_raise(stream):
    for decode in DECODERS:
        with pytest.raises(CorruptStreamError):
            decode(stream)


def _unpack_span(stream, **kwargs):
    """Decode ``stream``; return ``(symbols, huffman.unpack span attrs)``."""
    with telemetry.recording() as reg:
        out = huffman_decode(stream, **kwargs)
    [span] = [sp for sp in reg.spans if sp.name == "huffman.unpack"]
    return out, span.attrs


class TestDegenerateCodebooks:
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 4096])
    def test_single_symbol_stream(self, n):
        codes = np.full(n, 3, dtype=np.uint32)
        stream = huffman_encode(codes, 8, chunk_bits=64)
        _assert_both_engines_equal(stream, codes)

    def test_maximally_skewed_tree(self):
        # Fibonacci-ish frequencies drive the unbalanced tree to the
        # MAX_CODE_LEN rebalancing limit; every symbol must round-trip
        freqs = np.ones(24, dtype=np.int64)
        for i in range(2, 24):
            freqs[i] = freqs[i - 1] + freqs[i - 2]
        lengths = code_lengths(freqs, MAX_CODE_LEN)
        assert lengths.max() == MAX_CODE_LEN
        rng = np.random.default_rng(0)
        codes = rng.choice(24, size=5000,
                           p=freqs / freqs.sum()).astype(np.uint32)
        codes[:24] = np.arange(24)          # force every codeword to occur
        stream = huffman_encode(codes, 24, chunk_bits=97)
        _assert_both_engines_equal(stream, codes)

    def test_two_symbol_alternation(self):
        codes = (np.arange(3000) & 1).astype(np.uint32)
        stream = huffman_encode(codes, 2, chunk_bits=128)
        _assert_both_engines_equal(stream, codes)


class TestNarrowProbeFallback:
    """Codewords wider than the probe exercise the wide-codeword fallback
    (the full-width default probe never needs it)."""

    @pytest.mark.parametrize("probe_bits", [1, 2, 4, 8])
    def test_decodes_codes_wider_than_probe(self, probe_bits):
        rng = np.random.default_rng(7)
        codes = (rng.zipf(1.2, size=20000).astype(np.uint32) % 512)
        codes[:512] = np.arange(512)
        stream = huffman_encode(codes, 512, chunk_bits=256)
        expected = decode_loop(stream)
        clear_codebook_caches()
        try:
            np.testing.assert_array_equal(
                huffman_decode(stream, probe_bits=probe_bits), expected)
            np.testing.assert_array_equal(expected, codes)
        finally:
            clear_codebook_caches()

    def test_lut_marks_overwide_first_codeword(self):
        # alphabet of 256 equal symbols -> every code is 8 bits; a 4-bit
        # probe can never contain a complete codeword
        lengths = code_lengths(np.ones(256, dtype=np.int64), MAX_CODE_LEN)
        count, cum, syms, adv = build_lut_tables(lengths, probe_bits=4)
        assert count.max() == 0 and adv.max() == 0
        assert cum.shape[0] == 16 and syms.shape[0] == 16

    def test_probe_width_bounds_rejected(self):
        lengths = code_lengths(np.array([3, 1]), MAX_CODE_LEN)
        with pytest.raises(CodecError):
            build_lut_tables(lengths, probe_bits=0)
        with pytest.raises(CodecError):
            build_lut_tables(lengths, probe_bits=MAX_CODE_LEN + 1)


class TestLutTableInvariants:
    def test_cum_bits_leading_zero_column(self):
        lengths = code_lengths(np.array([8, 4, 2, 1, 1]), MAX_CODE_LEN)
        count, cum, syms, adv = build_lut_tables(lengths, probe_bits=6)
        assert np.all(cum[:, 0] == 0)
        # within each row's emitted prefix, every codeword advances the
        # cursor by >= 1 bit and never past the probe width (entries
        # beyond count[w] are padding and carry no meaning)
        diffs = np.diff(cum.astype(np.int64), axis=1)
        valid = np.arange(diffs.shape[1])[None, :] < count[:, None]
        assert np.all(diffs[valid] >= 1)
        assert cum.max() <= 6
        # a row's own count indexes its final cumulative advance
        rows = np.arange(count.size)
        assert np.all(cum[rows, count] == cum.max(axis=1))
        # ... which is the row's whole advance
        np.testing.assert_array_equal(adv, cum[rows, count])

    def test_syms_dtype_tracks_alphabet(self):
        small = code_lengths(np.ones(16, dtype=np.int64), MAX_CODE_LEN)
        syms = build_lut_tables(small, probe_bits=8).syms
        assert syms.dtype == np.uint16

    def test_tables_are_readonly(self):
        lengths = code_lengths(np.array([4, 2, 1, 1]), MAX_CODE_LEN)
        for arr in build_lut_tables(lengths, probe_bits=5):
            assert not arr.flags.writeable


class TestHostileStreams:
    @pytest.fixture
    def stream(self, rng):
        codes = rng.integers(0, 3, 2000).astype(np.uint32)
        # three 2-bit codes leave the fourth 2-bit prefix unused, so
        # hostile payload bytes can hit an invalid codeword
        return huffman_encode(codes, 3, chunk_bits=128)

    def test_truncated_header(self, stream):
        with pytest.raises(CorruptStreamError):
            HuffmanStream.from_bytes(stream.to_bytes()[:4])

    def test_truncated_tables(self, stream):
        blob = stream.to_bytes()
        with pytest.raises(CorruptStreamError):
            HuffmanStream.from_bytes(blob[:16 + stream.lengths.size // 2])

    def test_truncated_payload(self, stream):
        half = HuffmanStream.from_bytes(
            stream.to_bytes()[:-stream.payload.size // 2])
        _assert_both_engines_raise(half)

    def test_garbage_payload_invalid_codeword(self, stream):
        bad = _reencode(stream,
                        payload=np.full_like(stream.payload, 0xFF))
        _assert_both_engines_raise(bad)

    def test_chunk_bits_stretched(self, stream):
        # one extra bit in a chunk's budget (its successor's gap grown by
        # one, so the chunk now ends inside the successor's first
        # codeword) must surface as a corrupt stream, never as wrong
        # symbols. A chunk whose successor opens with a 1-bit codeword is
        # skipped: stretched over that codeword it still ends on a
        # codeword boundary, and the stream decodes to the same symbols.
        codes = decode_loop(stream)
        lens = stream.lengths.astype(np.int64)[codes]
        starts = np.cumsum(lens) - lens
        chunk_starts = (np.arange(stream.n_chunks) * stream.chunk_bits
                        + stream.gaps)
        opens = lens[np.searchsorted(starts, chunk_starts[1:-1])]
        [k] = 1 + np.flatnonzero((opens > 1)
                                 & (stream.gaps[1:-1] < MAX_CODE_LEN - 1))[:1]
        gaps = stream.gaps.copy()
        gaps[k] += 1
        _assert_both_engines_raise(_reencode(stream, gaps=gaps))

    def test_chunk_bits_shrunk(self, stream):
        gaps = stream.gaps.copy()
        [k] = np.flatnonzero(gaps)[:1]   # a chunk that starts mid-codeword
        gaps[k] -= 1
        _assert_both_engines_raise(_reencode(stream, gaps=gaps))

    def test_chunk_table_garbage(self, stream):
        _assert_both_engines_raise(_reencode(
            stream, gaps=np.full_like(stream.gaps, 0xFF)))

    def test_chunk_count_mismatch(self, stream):
        bad = _reencode(stream)
        bad.n_symbols += 128
        _assert_both_engines_raise(bad)

    def test_flipped_payload_byte_fails_checksum(self, stream):
        payload = stream.payload.copy()
        payload[len(payload) // 2] ^= 0x40
        # stale CRC kept on purpose
        bad = dataclasses.replace(stream, payload=payload)
        _assert_both_engines_raise(bad)

    def test_flipped_table_byte_fails_checksum(self, stream):
        gaps = stream.gaps.copy()
        gaps[1] ^= 0x4
        _assert_both_engines_raise(dataclasses.replace(stream, gaps=gaps))


def _forged_stream(n_symbols, total_bits, payload):
    """A one-chunk stream over two 1-bit codes with an honest CRC."""
    payload = np.asarray(payload, dtype=np.uint8)
    stream = HuffmanStream(
        n_symbols=n_symbols, alphabet_size=2, chunk_bits=max(total_bits, 16),
        lengths=np.array([1, 1], dtype=np.uint8),
        gaps=np.zeros(1, np.uint8), total_bits=total_bits, payload=payload)
    stream.crc32 = stream.table_crc()
    return stream


class TestForgedSymbolCount:
    """The header's symbol count lies outside the CRC: a stream whose
    bits cannot hold (or cannot be filled by) its claimed symbols must
    be rejected before any symbol-sized allocation."""

    def test_huge_count_in_tiny_stream_rejected_fast(self):
        stream = _forged_stream(1 << 22, 8, [0xA5])
        assert len(stream.to_bytes()) == 36
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            _assert_both_engines_raise(
                HuffmanStream.from_bytes(stream.to_bytes()))
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1 << 20          # the 16 MiB output never allocated

    def test_budget_beyond_longest_codes_rejected(self):
        # 8 one-bit symbols cannot fill a 16-bit chunk
        _assert_both_engines_raise(_forged_stream(8, 16, [0, 0]))

    def test_stream_without_codewords_rejected(self):
        stream = _forged_stream(8, 8, [0])
        stream.lengths = np.zeros(2, dtype=np.uint8)
        _assert_both_engines_raise(stream)

    def test_exact_budgets_still_decode(self):
        stream = _forged_stream(8, 8, [0xA5])
        _assert_both_engines_equal(
            stream, np.array([1, 0, 1, 0, 0, 1, 0, 1], dtype=np.uint32))


def _rejected_before_allocation(stream):
    """Every decoder raises a typed error within the corruption suite's
    bounds: 0.1 s and 8 MiB, far below what the forged sizes would
    allocate."""
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        _assert_both_engines_raise(stream)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 8 << 20


class TestHostileV2Tables:
    """Version-2 gap-array chunk tables (written by the oracle encoder)
    forged with a re-stamped CRC, so only the table validation can catch
    them."""

    @pytest.fixture(scope="class")
    def stream(self):
        rng = np.random.default_rng(21)
        codes = rng.zipf(1.6, size=20000).astype(np.uint32) % 40
        stream = encode_loop(codes, 40, chunk_bits=256, version=2)
        assert stream.n_chunks > 8
        return stream

    def test_forged_symbol_count(self, stream):
        # a count moved between chunks keeps the sum, so only the
        # per-chunk bit spans can catch it
        counts = stream.counts.astype(np.int64)
        counts[2] += 40
        counts[5] -= 40
        _rejected_before_allocation(
            _reencode(stream, counts=counts.astype(np.uint16)))

    def test_huge_counts(self, stream):
        counts = np.full_like(stream.counts, 0xFFFF)
        bad = _reencode(stream, counts=counts)
        bad.n_symbols = 0xFFFF * stream.n_chunks   # sum consistent
        _rejected_before_allocation(bad)

    @pytest.mark.parametrize("delta", [1, -1, 1 << 40])
    def test_counts_do_not_sum_to_symbol_count(self, stream, delta):
        bad = _reencode(stream)
        bad.n_symbols += delta
        _rejected_before_allocation(bad)

    @pytest.mark.parametrize("gap", [MAX_CODE_LEN, 0xFF])
    def test_gap_beyond_codeword_reach(self, stream, gap):
        gaps = stream.gaps.copy()
        gaps[3] = gap
        _rejected_before_allocation(_reencode(stream, gaps=gaps))

    def test_codewords_moved_across_a_chunk_bound(self, stream):
        # hand chunk 3's leading codewords to chunk 2: every chunk still
        # decodes to the right symbols, but chunk 3's gap now exceeds
        # any codeword's reach, so the table breaks the layout rule
        codes = decode_loop(stream)
        lengths = stream.lengths.astype(np.int64)[codes]
        first = int(stream.counts[:3].astype(np.int64).sum())
        k, gap = 0, int(stream.gaps[3])
        while gap < MAX_CODE_LEN:
            gap += int(lengths[first + k])
            k += 1
        counts, gaps = stream.counts.copy(), stream.gaps.copy()
        counts[2] += k
        counts[3] -= k
        gaps[3] = gap
        _rejected_before_allocation(_reencode(stream, counts=counts,
                                              gaps=gaps))

    def test_first_gap_nonzero(self, stream):
        gaps = stream.gaps.copy()
        gaps[0] = 1
        _rejected_before_allocation(_reencode(stream, gaps=gaps))

    def test_leading_junk_bit(self, stream):
        # one junk bit ahead of the payload, every gap and the bit count
        # grown to match: the chunks still decode to the right symbols,
        # but the stream no longer starts with a codeword
        assert int(stream.gaps.max()) < MAX_CODE_LEN - 1
        assert stream.total_bits % stream.chunk_bits
        bits = np.unpackbits(stream.payload)[:stream.total_bits]
        payload = np.packbits(np.concatenate([[1], bits]))
        _rejected_before_allocation(_reencode(
            stream, payload=payload, gaps=stream.gaps + 1,
            total_bits=stream.total_bits + 1))

    @pytest.mark.parametrize("forgery", ["total-bits-up", "total-bits-down",
                                         "extra-chunk", "missing-chunk",
                                         "merged-chunks"])
    def test_chunk_count_not_ceil_of_total_bits(self, stream, forgery):
        budget = stream.chunk_bits
        if forgery == "total-bits-up":
            bad = _reencode(stream, total_bits=stream.total_bits + budget)
        elif forgery == "total-bits-down":
            bad = _reencode(stream, total_bits=stream.total_bits - budget)
        elif forgery == "extra-chunk":
            bad = _reencode(stream,
                            counts=np.append(stream.counts, np.uint16(0)),
                            gaps=np.append(stream.gaps, np.uint8(0)))
        elif forgery == "missing-chunk":
            bad = _reencode(stream, counts=stream.counts[:-1],
                            gaps=stream.gaps[:-1])
            bad.n_symbols -= int(stream.counts[-1])
        else:
            # the last two chunks as one: it still decodes to the right
            # symbols, but one lane now carries two chunks' bits
            counts = stream.counts[:-1].copy()
            counts[-1] += stream.counts[-1]
            bad = _reencode(stream, counts=counts, gaps=stream.gaps[:-1])
        _rejected_before_allocation(bad)

    @pytest.mark.parametrize("budget", [0, 1, MAX_CODE_LEN - 1, 1 << 16,
                                        (1 << 32) - 1])
    def test_budget_out_of_range(self, stream, budget):
        # the chunk count and payload stay consistent with the budget,
        # so only the range check rejects it
        n_chunks = -(-stream.total_bits // budget) if budget else 0
        _rejected_before_allocation(_reencode(
            stream, chunk_bits=budget, counts=np.zeros(n_chunks, np.uint16),
            gaps=np.zeros(n_chunks, np.uint8)))

    @pytest.mark.parametrize("side", ["min", "max"])
    def test_count_cannot_fit_chunk_span(self, stream, side):
        # move symbols between two chunks so the sum holds but one chunk
        # claims more symbols than its B +- 15 bits hold at the shortest
        # code, or fewer than they need at the longest
        used = stream.lengths[stream.lengths > 0]
        counts = stream.counts.astype(np.int64)
        span = stream.chunk_bits + MAX_CODE_LEN - 1
        if side == "min":
            shift = span // int(used.min()) + 1 - counts[1]
        else:
            shift = (stream.chunk_bits - MAX_CODE_LEN) // int(used.max()) \
                - 1 - counts[1]
        counts[1] += shift
        # take the surplus from (or give the deficit to) later chunks
        for k in range(2, counts.size):
            take = min(shift, counts[k])
            counts[k] -= take
            shift -= take
        assert shift == 0 and counts.max() <= 0xFFFF
        _rejected_before_allocation(
            _reencode(stream, counts=counts.astype(np.uint16)))

    def test_serialized_round_trip_of_forgery(self, stream):
        gaps = stream.gaps.copy()
        gaps[1] = MAX_CODE_LEN
        blob = v2_bytes(_reencode(stream, gaps=gaps))
        _rejected_before_allocation(HuffmanStreamV2.from_bytes(blob))


@st.composite
def _codebooks(draw):
    """A canonical length vector: random (Kraft-repaired), all 16-bit
    codes, or a single 1-bit symbol; unused alphabet slots get 0."""
    kind = draw(st.sampled_from(["random", "all16", "single"]))
    if kind == "random":
        lengths = np.array(draw(st.lists(st.integers(1, MAX_CODE_LEN),
                                         min_size=2, max_size=48)))
        # lengthen the shortest codes until the Kraft sum fits
        while np.ldexp(1.0, -lengths).sum() > 1:
            lengths[np.argmin(lengths)] += 1
    elif kind == "all16":
        lengths = np.full(draw(st.integers(1, 64)), MAX_CODE_LEN)
    else:
        lengths = np.array([1])
    pad = draw(st.integers(0, 3))
    return np.concatenate([lengths, np.zeros(pad, np.int64)])


class TestOracleProperty:
    """The library coder equals the oracles on every stream: the encoder
    byte for byte, the decoder symbol for symbol at every pinned probe
    width (widths below the longest code route codewords through the
    wide-codeword fallback inside the chunk-major replay), on the
    version-3 stream and on the version-2 stream of the same chunking."""

    @given(lengths=_codebooks(), n=st.integers(0, 3000),
           seed=st.integers(0, 2 ** 32 - 1),
           budget=st.sampled_from([16, 64, 256, 1024, 4096]),
           width=st.integers(12, MAX_CODE_LEN))
    @settings(max_examples=80, deadline=None)
    def test_decode_equals_oracle(self, lengths, n, seed, budget, width):
        used = np.flatnonzero(lengths)
        weights = np.ldexp(1.0, -lengths[used])
        rng = np.random.default_rng(seed)
        codes = rng.choice(used, size=n, p=weights / weights.sum()) \
            .astype(np.uint32)
        stream = huffman_encode(codes, lengths.size, budget,
                                lengths=lengths)
        assert stream.to_bytes() == encode_loop(
            codes, lengths.size, budget, lengths=lengths).to_bytes()
        v2 = encode_loop(codes, lengths.size, budget, lengths=lengths,
                         version=2)
        for parsed in (HuffmanStream.from_bytes(stream.to_bytes()),
                       HuffmanStreamV2.from_bytes(v2_bytes(v2))):
            np.testing.assert_array_equal(decode_loop(parsed), codes)
            np.testing.assert_array_equal(
                huffman_decode(parsed, probe_bits=width), codes)


class TestProbeWidthChoice:
    """The decoder picks its probe width per stream and converges to
    the full-width LUT once a codebook recurs."""

    @pytest.fixture
    def stream(self):
        rng = np.random.default_rng(11)
        codes = (rng.zipf(1.5, size=30000).astype(np.uint32) % 700)
        codes[:700] = np.arange(700)
        stream = huffman_encode(codes, 1024)
        # start cold: no LUT cached or in flight (an encode-side prewarm
        # would otherwise land a full-width LUT mid-test)
        drain_lut_prewarm()
        clear_codebook_caches()
        yield stream
        drain_lut_prewarm()
        clear_codebook_caches()

    def test_chooser_is_pure(self, stream):
        sizes = (1, 10 ** 4, 10 ** 6, 10 ** 9)
        first = [choose_probe_bits(n, stream.lengths) for n in sizes]
        build_lut_tables(stream.lengths)   # cache state must not matter
        again = [choose_probe_bits(n, stream.lengths.copy()) for n in sizes]
        assert first == again
        assert set(first) <= set(PROBE_WIDTHS)

    def test_chooser_extremes(self, stream):
        # a short stream never pays the full-width build; a huge stream
        # with many codewords wider than every narrow probe does
        assert stream.lengths.max() > PROBE_WIDTHS[-2]
        assert choose_probe_bits(1000, stream.lengths) < MAX_CODE_LEN
        assert choose_probe_bits(10 ** 10, stream.lengths) == MAX_CODE_LEN
        # a code with no codeword wider than the narrowest probe has
        # nothing to gain from a wider one
        short = code_lengths(np.arange(1, 65, dtype=np.int64), MAX_CODE_LEN)
        assert short.max() <= PROBE_WIDTHS[0]
        assert choose_probe_bits(10 ** 10, short) == PROBE_WIDTHS[0]

    def test_second_decode_promotes_to_full_width(self, stream):
        expected = decode_loop(stream)
        narrow = choose_probe_bits(stream.n_symbols, stream.lengths)
        assert narrow < MAX_CODE_LEN
        seen = []
        for _ in range(2):
            out, attrs = _unpack_span(stream)
            np.testing.assert_array_equal(out, expected)
            seen.append((attrs["probe_bits"], attrs["lut"]))
        assert seen == [(narrow, "built"), (narrow, "promoted")]
        drain_lut_prewarm()
        assert lut_cached(stream.lengths, MAX_CODE_LEN)
        # the full-width LUT retires the narrow one it replaces
        assert not lut_cached(stream.lengths, narrow)
        out, attrs = _unpack_span(stream)
        np.testing.assert_array_equal(out, expected)
        assert (attrs["probe_bits"], attrs["lut"]) == (MAX_CODE_LEN, "hit")

    def test_pinned_width_never_promotes(self, stream):
        for outcome in ("built", "hit"):
            _, attrs = _unpack_span(stream, probe_bits=PROBE_WIDTHS[0])
            assert (attrs["probe_bits"], attrs["lut"]) == \
                (PROBE_WIDTHS[0], outcome)
        assert not lut_cached(stream.lengths, MAX_CODE_LEN)

    def test_full_width_decode_skips_wide_fallback(self, stream,
                                                   monkeypatch):
        """Only a narrow probe meets codewords it cannot finish, so only
        a narrow decode fetches the canonical starts its fallback
        searches."""
        calls = []
        real = codec.canonical_order
        monkeypatch.setattr(codec, "canonical_order",
                            lambda lengths: calls.append(1) or real(lengths))
        build_lut_tables(stream.lengths)
        _, attrs = _unpack_span(stream)
        assert attrs["probe_bits"] == MAX_CODE_LEN
        assert calls == []
        _, attrs = _unpack_span(stream, probe_bits=PROBE_WIDTHS[0])
        assert calls == [1]

    def test_back_to_back_promotions_build_one_at_a_time(self):
        """Background prewarms compete with the foreground decode for the
        host's cores, so at most one runs at a time process-wide."""
        streams = []
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            codes = rng.zipf(1.5, size=30000).astype(np.uint32) % 700
            codes[:700] = np.arange(700)
            streams.append(huffman_encode(codes, 1024))
        expected = [decode_loop(s) for s in streams]
        drain_lut_prewarm()
        clear_codebook_caches()
        live = [0]
        stop = threading.Event()

        def sample():
            while not stop.is_set():
                live[0] = max(live[0], sum(
                    t.name == "repro-lut-prewarm" and t.is_alive()
                    for t in threading.enumerate()))
                time.sleep(1e-4)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        outcomes = []
        try:
            for s, want in zip(streams, expected):   # cold: narrow LUTs
                np.testing.assert_array_equal(huffman_decode(s), want)
            for s, want in zip(streams, expected):   # reuse: promote
                out, attrs = _unpack_span(s)
                np.testing.assert_array_equal(out, want)
                outcomes.append(attrs["lut"])
        finally:
            stop.set()
            sampler.join(timeout=10)
            drain_lut_prewarm()
        assert not sampler.is_alive()
        assert live[0] <= 1
        assert "promoted" in outcomes
        assert set(outcomes) <= {"promoted", "hit"}
        for s, want in zip(streams, expected):
            np.testing.assert_array_equal(huffman_decode(s), want)
        clear_codebook_caches()

    def test_prewarm_is_not_a_lookup(self, stream):
        before = codebook_cache_stats()
        assert canonical.prewarm_lut_async(stream.lengths)
        drain_lut_prewarm()
        after = codebook_cache_stats()
        assert (after["lut_hits"], after["lut_misses"]) == \
            (before["lut_hits"], before["lut_misses"])
        assert lut_cached(stream.lengths)


class TestUnpackSpanShape:
    """The ``huffman.unpack`` span reports the decode loop's shape."""

    def test_loop_shape_attrs(self):
        data = smooth_field((40, 44, 36), seed=9)
        codes = np.clip(np.round(np.diff(data.ravel(), prepend=0) * 64)
                        + 512, 0, 1023).astype(np.uint32)
        stream = huffman_encode(codes, 1024)
        out, attrs = _unpack_span(stream)
        np.testing.assert_array_equal(out, codes)
        assert attrs["n_chunks"] == stream.n_chunks > 1
        # every kept record emits 1..16 symbols
        assert codes.size / MAX_CODE_LEN <= attrs["records_kept"] \
            <= codes.size
        # a step consumes at most 57 bits per lane, and chunks of equal
        # bit budgets finish together: the step count tracks the budget
        # (B + 15 bits), not the longest chunk's symbol count
        slots = (64 - 7) // attrs["probe_bits"]
        per_step = slots * attrs["probe_bits"]
        assert -(-(stream.chunk_bits - 15) // per_step) <= attrs["steps"]
        assert attrs["steps"] <= 3 * -(-(stream.chunk_bits + 15)
                                        // per_step)

    def test_empty_stream_shape(self):
        _, attrs = _unpack_span(huffman_encode(np.empty(0, np.uint32), 4))
        assert (attrs["steps"], attrs["n_chunks"], attrs["records_kept"]) \
            == (0, 0, 0)


class TestLutCacheByteBudget:
    def test_eviction_under_byte_pressure(self, monkeypatch, rng):
        clear_codebook_caches()
        # one full-width LUT is ~3 MiB; a tiny budget forces eviction on
        # every second insert while always keeping the newest entry
        monkeypatch.setitem(canonical._BYTE_BUDGETS, "lut", 4 << 20)
        try:
            for alph in (16, 17, 18, 19):
                # one dominant symbol -> 1-bit code -> up to 16 symbols
                # per probe row, so each LUT is ~3 MiB
                freqs = np.ones(alph, dtype=np.int64)
                freqs[0] = 1 << 20
                build_lut_tables(code_lengths(freqs, MAX_CODE_LEN))
            stats = codebook_cache_stats()
            assert stats["lut_evictions"] >= 2
            assert len(canonical._lut_cache) >= 1
            assert canonical._cache_bytes["lut"] <= 4 << 20
        finally:
            clear_codebook_caches()

    def test_default_budget_is_advertised(self):
        assert canonical._BYTE_BUDGETS["lut"] == LUT_CACHE_BYTES

    def test_budget_counts_what_the_registry_reports(self, monkeypatch):
        """Eviction must count the bytes the registry reports as
        ``size_bytes`` (keys included), which ``repro doctor`` gates on:
        values that just fit the budget must not leave it over."""
        lengths = [code_lengths(np.arange(1, n + 1, dtype=np.int64),
                                MAX_CODE_LEN) for n in (64, 65)]
        clear_codebook_caches()
        values = sum(canonical._entry_nbytes(build_lut_tables(lens, 8))
                     for lens in lengths)
        clear_codebook_caches()
        monkeypatch.setitem(canonical._BYTE_BUDGETS, "lut", values + 8)
        try:
            for lens in lengths:
                build_lut_tables(lens, 8)
            lut = canonical.caches.snapshot()["huffman.lut"]
            assert lut["size_bytes"] <= lut["byte_limit"]
        finally:
            clear_codebook_caches()

    def test_byte_total_survives_racing_builds(self, rng):
        """Foreground builds at two widths race background promotions of
        the same codebooks; the running byte total must still equal the
        bytes actually cached (a double insert must not count twice)."""
        lengths = [code_lengths(rng.zipf(1.3, size=400).astype(np.int64),
                                MAX_CODE_LEN) for _ in range(3)]

        def decode_like(lens, width):
            build_lut_tables(lens, width)
            canonical.prewarm_lut_async(lens)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                drain_lut_prewarm()
                clear_codebook_caches()
                threads = [threading.Thread(target=decode_like,
                                            args=(lens, width))
                           for lens in lengths
                           for width in (PROBE_WIDTHS[0], MAX_CODE_LEN)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                drain_lut_prewarm()
                reported = canonical.caches.snapshot()["huffman.lut"]
                recount = sum(canonical._footprint(k, v)
                              for k, v in canonical._lut_cache.items())
                assert reported["size_bytes"] == recount
                assert all(lut_cached(lens) for lens in lengths)
        finally:
            sys.setswitchinterval(interval)
            drain_lut_prewarm()
            clear_codebook_caches()


class TestPipelineCrossEngine:
    """The decoder and its oracle must reconstruct byte-identical fields
    through every transport the pipeline ships streams over."""

    @pytest.mark.parametrize("shape", [(300,), (64, 48), (40, 44, 36)])
    def test_shapes(self, monkeypatch, shape):
        from repro.registry import get_compressor
        data = smooth_field(shape, seed=3)
        comp = get_compressor("cuszi", eb=1e-3, mode="rel")
        blob = comp.compress(data)
        outs = {}
        for engine, decode in ENGINES.items():
            monkeypatch.setattr(pipeline, "huffman_decode", decode)
            outs[engine] = comp.decompress(blob)
        assert outs["lut"].tobytes() == outs["loop"].tobytes()

    def test_float64(self, monkeypatch):
        from repro.registry import get_compressor
        data = smooth_field((32, 32, 32), seed=5).astype(np.float64)
        comp = get_compressor("cuszi", eb=1e-4, mode="abs")
        blob = comp.compress(data)
        outs = {}
        for engine, decode in ENGINES.items():
            monkeypatch.setattr(pipeline, "huffman_decode", decode)
            outs[engine] = comp.decompress(blob)
        assert outs["lut"].tobytes() == outs["loop"].tobytes()

    def test_slab_stream(self, monkeypatch):
        from repro.streaming import compress_slabs, decompress_slabs
        data = smooth_field((32, 40, 36), seed=11)
        stream = compress_slabs(data, 8, codec="cuszi", eb=1e-3,
                                mode="rel")
        outs = {}
        for engine, decode in ENGINES.items():
            monkeypatch.setattr(pipeline, "huffman_decode", decode)
            outs[engine] = decompress_slabs(stream)
        assert outs["lut"].tobytes() == outs["loop"].tobytes()

    def test_tiled_out_of_core(self, monkeypatch, tmp_path):
        from repro.runtime.tiled import (tiled_compress_file,
                                         tiled_decompress_file)
        field = smooth_field((24, 20, 16), seed=13)
        raw = tmp_path / "field.raw"
        field.tofile(raw)
        stream = tmp_path / "field.slabs"
        tiled_compress_file(str(raw), field.shape, out_path=str(stream),
                            tile_planes=8, codec="cuszi", eb=1e-3,
                            mode="rel")
        outs = {}
        for engine, decode in ENGINES.items():
            monkeypatch.setattr(pipeline, "huffman_decode", decode)
            out = tmp_path / f"out_{engine}.raw"
            tiled_decompress_file(str(stream), str(out))
            outs[engine] = out.read_bytes()
        assert outs["lut"] == outs["loop"]

    def test_shm_parallel_matches_serial_loop(self, monkeypatch):
        # the pooled shm decompress (workers decode with the library
        # decoder) must agree byte-for-byte with an in-process
        # oracle decode of the same archive
        from repro.runtime import (parallel_decompress_slabs,
                                   resolve_workers)
        from repro.streaming import compress_slabs, decompress_slabs
        data = smooth_field((16, 24, 20), seed=17)
        stream = compress_slabs(data, 4, codec="cuszi", eb=1e-3,
                                mode="rel")
        pooled = parallel_decompress_slabs(
            stream, workers=min(2, max(2, resolve_workers("auto"))))
        monkeypatch.setattr(pipeline, "huffman_decode", decode_loop)
        serial = decompress_slabs(stream)
        assert pooled.tobytes() == serial.tobytes()


class TestPipelineProbeWidths:
    """Every width the chooser can return must reconstruct fields that
    are byte-identical to the full-width decode."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3000,), (64, 48), (24, 20, 16)])
    def test_roundtrip_identical_at_every_width(self, monkeypatch, shape,
                                                dtype):
        from repro.registry import get_compressor
        data = smooth_field(shape, seed=7).astype(dtype)
        comp = get_compressor("cuszi", eb=1e-4, mode="rel")
        blob = comp.compress(data)
        outs = {}
        try:
            for width in PROBE_WIDTHS:
                # an empty cache keeps a full-width LUT from overriding
                # the chooser
                drain_lut_prewarm()
                clear_codebook_caches()
                monkeypatch.setattr(codec, "choose_probe_bits",
                                    lambda n, lengths, w=width: w)
                with telemetry.recording() as reg:
                    outs[width] = comp.decompress(blob).tobytes()
                widths = {sp.attrs["probe_bits"] for sp in reg.spans
                          if sp.name == "huffman.unpack"}
                assert widths == {width}
        finally:
            drain_lut_prewarm()
            clear_codebook_caches()
        assert len(set(outs.values())) == 1
