"""Coarse-grained chunked Huffman encode/decode (paper §VI-A).

Encoding mirrors the cuSZ GPU encoder: the symbol stream is split into
fixed-size chunks (one per thread block on the GPU); every chunk's bitstream
starts on a byte boundary, and per-chunk bit lengths are recorded so chunks
are independently decodable.

* **Encode** is chunk-vectorized end to end. It gathers one packed
  ``(code, length)`` 64-bit pair per symbol, derives every codeword's
  absolute bit offset from an exclusive prefix sum of the gathered
  lengths (rebased per chunk to the byte-aligned chunk starts), and emits
  the whole stream through one
  :func:`repro.common.bitpack.pack_varbits64` scatter-OR into 64-bit
  output words — the exact mirror of the decode-side window gather.
  Dynamic codebooks are resolved through
  :func:`repro.huffman.tree.fingerprint_code_lengths`, so eb-retunes and
  timestep streams skip the tree build and prewarm the decode LUT.
* **Decode** steps all chunks simultaneously. Each outer step gathers one
  64-bit window per chunk and then chains multi-symbol LUT probes inside
  it: each probe reads the next ``K`` bits and emits every complete
  codeword they contain in a single gather, falling back to the flat
  ``MAX_CODE_LEN`` table only for the rare codeword wider than the probe.
  ``K`` is chosen per stream (:func:`choose_probe_bits`): a narrow LUT
  builds several times faster than the full-width one, which a recurring
  codebook is promoted to.

The one-codeword-per-lookup decoder and the byte-plane encoder in
``tests/oracles.py`` are the references the equivalence suites compare
this codec against byte for byte.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.common.bitpack import pack_varbits64
from repro.common.errors import CodecError, CorruptStreamError
from repro.huffman.canonical import (MAX_CODE_LEN, build_decode_table,
                                     build_lut_tables, canonical_codebook,
                                     lut_cached, prewarm_lut_async)
from repro.huffman.histogram import histogram
from repro.huffman.tree import fingerprint_code_lengths

__all__ = ["huffman_encode", "huffman_decode", "HuffmanStream",
           "choose_probe_bits", "PROBE_WIDTHS", "DEFAULT_CHUNK"]

#: default symbols per chunk for new streams. 256 (was 2048) widens the
#: chunk-parallel front the batched LUT decoder advances over by 8x —
#: the decode wall scales with symbols-per-chunk, not stream length —
#: at the cost of 4 bytes of chunk table per extra chunk (~2% of a
#: typical 64**3 container before the orchestrator losslessly packs the
#: highly regular chunk table back down). Streams self-describe their
#: chunk size, so any chunk size remains decodable.
DEFAULT_CHUNK = 256
_HDR = struct.Struct("<QIIII")  # n_symbols, alphabet, chunk_size, n_chunks, crc32


@dataclass
class HuffmanStream:
    """A serialized chunked-Huffman stream."""

    n_symbols: int
    alphabet_size: int
    chunk_size: int
    lengths: np.ndarray      # uint8[alphabet] canonical code lengths
    chunk_bits: np.ndarray   # uint32[n_chunks] payload bits per chunk
    payload: np.ndarray      # uint8, concatenated byte-aligned chunks
    crc32: int = 0           # checksum of the payload (corruption guard)

    def to_bytes(self) -> bytes:
        head = _HDR.pack(self.n_symbols, self.alphabet_size,
                         self.chunk_size, int(self.chunk_bits.size),
                         self.crc32)
        return (head + self.lengths.astype(np.uint8).tobytes()
                + self.chunk_bits.astype(np.uint32).tobytes()
                + self.payload.tobytes())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "HuffmanStream":
        if len(blob) < _HDR.size:
            raise CorruptStreamError("truncated Huffman stream header")
        n_symbols, alphabet, chunk_size, n_chunks, crc = \
            _HDR.unpack_from(blob, 0)
        pos = _HDR.size
        if len(blob) < pos + alphabet + 4 * n_chunks:
            raise CorruptStreamError("truncated Huffman stream tables")
        lengths = np.frombuffer(blob, np.uint8, alphabet, pos)
        pos += alphabet
        chunk_bits = np.frombuffer(blob, np.uint32, n_chunks, pos)
        pos += 4 * n_chunks
        payload = np.frombuffer(blob, np.uint8, offset=pos)
        return cls(n_symbols=n_symbols, alphabet_size=alphabet,
                   chunk_size=chunk_size, lengths=lengths,
                   chunk_bits=chunk_bits, payload=payload, crc32=crc)

    @property
    def nbytes(self) -> int:
        return (_HDR.size + self.lengths.size + 4 * self.chunk_bits.size
                + self.payload.size)


# below this symbol count the whole bit-offset computation fits uint32
# (total bits <= n * MAX_CODE_LEN), halving the memory traffic of the
# layout and scatter index arrays on the encode hot path
_NARROW_LAYOUT_SYMBOLS = ((1 << 32) - 64) // MAX_CODE_LEN


def _chunk_layout(sym_len: np.ndarray, n: int, chunk_size: int):
    """Per-chunk bit counts and byte-aligned per-symbol bit offsets.

    Chunk boundaries, padding, and every codeword's landing position are
    decided here; the emitter only scatters bits to these positions.
    The offset arithmetic is exact in either dtype; uint32 is chosen
    whenever the stream's total bit count cannot overflow it, and the
    cumulative-sum buffer is reused in place for the exclusive scan and
    the rebased positions so only two full-size arrays are ever live.
    """
    n_chunks = -(-n // chunk_size)
    bounds = np.arange(0, n_chunks * chunk_size, chunk_size)
    ends = np.minimum(bounds + chunk_size, n)
    acc = np.uint32 if n <= _NARROW_LAYOUT_SYMBOLS else np.int64

    cum = np.cumsum(sym_len, dtype=acc)        # inclusive bit scan
    end_bits = cum[ends - 1].astype(np.int64)
    np.subtract(cum, sym_len, out=cum, casting="unsafe")
    chunk_first = cum[bounds].astype(np.int64)  # first symbol's offset
    chunk_bits = (end_bits - chunk_first).astype(np.uint32)
    chunk_bytes = -(-chunk_bits.astype(np.int64) // 8)
    chunk_byte_off = np.concatenate(([0], np.cumsum(chunk_bytes)))

    # rebase global bit offsets to chunk-local byte-aligned positions:
    # the adjustment (chunk_byte_off*8 - chunk_first) is constant within
    # a chunk (and non-negative, since byte alignment only adds padding),
    # so repeat each chunk's adjustment across its symbols
    adj = (chunk_byte_off[:-1] * 8 - chunk_first).astype(acc)
    np.add(cum, np.repeat(adj, ends - bounds), out=cum, casting="unsafe")
    return chunk_bits, cum, int(chunk_byte_off[-1]), n_chunks


def huffman_encode(codes: np.ndarray, alphabet_size: int,
                   chunk_size: int = DEFAULT_CHUNK,
                   lengths: np.ndarray | None = None) -> HuffmanStream:
    """Encode a symbol stream into a chunked canonical Huffman stream.

    Passing prebuilt ``lengths`` (see :mod:`repro.huffman.static`) skips
    the histogram and tree build — the paper's §VI-A speed direction — at
    the cost of a slightly suboptimal code. A dynamic codebook that hits
    the fingerprint cache also starts its decode LUT build in the
    background.
    """
    if chunk_size < 1:
        raise CodecError("chunk size must be >= 1")
    codes = np.asarray(codes, dtype=np.uint32).ravel()
    n = codes.size
    with telemetry.span("huffman.codebook", n_symbols=n,
                        alphabet=alphabet_size,
                        static=lengths is not None):
        if lengths is None:
            freqs = histogram(codes, alphabet_size)
            lengths = fingerprint_code_lengths(freqs, MAX_CODE_LEN,
                                               prewarm_lut=True)
        else:
            lengths = np.asarray(lengths, dtype=np.int64)
            if lengths.size != alphabet_size:
                raise CodecError("static codebook size mismatch")
            if n and int(lengths[codes].min(initial=1)) == 0:
                raise CodecError(
                    "static codebook lacks a code for a symbol")
        codebook = canonical_codebook(lengths)
    if n == 0:
        return HuffmanStream(0, alphabet_size, chunk_size,
                             lengths.astype(np.uint8),
                             np.empty(0, np.uint32), np.empty(0, np.uint8),
                             crc32=0)

    with telemetry.span("huffman.pack", n_symbols=n) as sp:
        # one packed pair per alphabet symbol: MSB-aligned codeword in
        # the high bits, its length in the low byte. A single gather
        # then yields both the staged bits and the per-symbol length,
        # and the emitter never shifts codes again.
        lu = lengths.astype(np.uint64)
        sh = np.where(lu > 0, np.uint64(64) - lu, np.uint64(0))
        pair64 = np.where(
            lu > 0, (codebook.astype(np.uint64) << sh) | lu,
            np.uint64(0))
        g = pair64[codes]
        sym_len = g.astype(np.uint8)   # truncation keeps the low byte
        chunk_bits, pos, total_bytes, n_chunks = \
            _chunk_layout(sym_len, n, chunk_size)
        g &= np.uint64(0xFFFFFFFFFFFFFF00)  # strip lengths in place
        payload = pack_varbits64(g, sym_len, pos, total_bytes)
        sp.set(bytes_out=int(payload.size), n_chunks=int(n_chunks))
    return HuffmanStream(n_symbols=n, alphabet_size=alphabet_size,
                         chunk_size=chunk_size,
                         lengths=lengths.astype(np.uint8),
                         chunk_bits=chunk_bits, payload=payload,
                         crc32=zlib.crc32(payload.tobytes()))


def huffman_decode(stream: HuffmanStream, *,
                   probe_bits: int | None = None) -> np.ndarray:
    """Decode a :class:`HuffmanStream` back into its uint32 symbol array.

    Raises :class:`~repro.common.errors.CorruptStreamError` on a corrupt
    stream. The probe width is picked per stream
    (:func:`choose_probe_bits`); ``probe_bits`` pins one instead. The
    ``huffman.unpack`` span records the width used and the LUT outcome:
    ``hit`` (cached), ``built`` (cold build) or ``promoted`` (a cached
    narrow LUT reused, full-width build started in the background); an
    empty stream uses no LUT and records ``none`` at width 0.
    """
    with telemetry.span("huffman.unpack", n_symbols=stream.n_symbols,
                        bytes_in=int(stream.payload.size)) as sp:
        out, width, outcome = _decode_lut(stream, probe_bits)
        sp.set(probe_bits=width, lut=outcome)
        return out


def _decode_prepare(stream: HuffmanStream):
    """Stream validation + per-chunk cursor state for the decoder.

    Everything sized from the header is checked here, before the decoder
    allocates its output: the symbol count is outside the CRC, so
    each chunk's bit budget must be reachable by its symbol count at the
    stream's shortest and longest code lengths.
    """
    n = stream.n_symbols
    chunk_size = stream.chunk_size
    if chunk_size < 1:
        raise CorruptStreamError("chunk size must be >= 1")
    n_chunks = int(stream.chunk_bits.size)
    if n_chunks != -(-n // chunk_size):
        raise CorruptStreamError("chunk count inconsistent with symbol count")
    used = stream.lengths[stream.lengths > 0]
    if used.size == 0:
        raise CorruptStreamError("Huffman stream has no codewords")
    counts = np.full(n_chunks, chunk_size, dtype=np.int64)
    counts[-1] = n - chunk_size * (n_chunks - 1)
    chunk_bits = stream.chunk_bits.astype(np.int64)
    if np.any(chunk_bits < counts * int(used.min())) \
            or np.any(chunk_bits > counts * int(used.max())):
        raise CorruptStreamError(
            "chunk bit counts inconsistent with symbol count")
    if zlib.crc32(np.ascontiguousarray(stream.payload).tobytes()) \
            != stream.crc32:
        raise CorruptStreamError("Huffman payload checksum mismatch")
    chunk_byte_off = np.concatenate(([0], np.cumsum(-(-chunk_bits // 8))))
    if int(chunk_byte_off[-1]) != stream.payload.size:
        raise CorruptStreamError("payload size mismatch")
    # pad so window gathers never read past the end
    pay = np.concatenate([stream.payload, np.zeros(8, np.uint8)])
    bitpos = chunk_byte_off[:-1] * 8
    bit_end = bitpos + chunk_bits
    return pay, counts, bitpos, bit_end


#: probe widths :func:`choose_probe_bits` returns, narrowest first
PROBE_WIDTHS = (12, 13, 14, MAX_CODE_LEN)

# Cold-decode cost model (ms), calibrated on a 2-CPU x86-64 VM with
# NumPy 2.4 over real pipeline streams of 65k-883k symbols (chunk 256):
# - LUT build: ~0.9 ms fixed (flat table) plus _BUILD_MS_PER_ROW per
#   probe row, i.e. 1.5 ms at K=12, 3.0 at K=14 and 11.5 at K=16;
# - narrow-probe penalty over a full-width decode: every codeword wider
#   than K idles its chunk lane for the rest of a 64-bit window, so the
#   penalty scales with the share of such codewords, p(K), as
#   p(K) * (_STALL_MS + _STALL_MS_PER_SYMBOL * n_symbols).
_BUILD_MS_PER_ROW = 1.62e-4
_STALL_MS = 89.0
_STALL_MS_PER_SYMBOL = 3.9e-4


def choose_probe_bits(n_symbols: int, lengths: np.ndarray) -> int:
    """Probe width of least LUT build plus decode time for a cold decode
    of ``n_symbols`` symbols coded with ``lengths``.

    A canonical code of length ``L`` carries probability ``~2**-L``, so
    the share of codewords wider than ``K`` (the ones a ``K``-bit probe
    must hand to the flat-table fallback) is read off the lengths alone;
    the result is a pure function of its two arguments.
    """
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    used = lengths[lengths > 0]
    weight = np.ldexp(1.0, -used)
    stall_ms = _STALL_MS + _STALL_MS_PER_SYMBOL * n_symbols
    costs = [_BUILD_MS_PER_ROW * (1 << k)
             + float(weight[used > k].sum()) * stall_ms
             for k in PROBE_WIDTHS]
    return PROBE_WIDTHS[int(np.argmin(costs))]


def _lut_for(stream: HuffmanStream, probe_bits: int | None):
    """The ``(probe_bits, LUT outcome, LUT)`` a decode of ``stream`` uses.

    A pinned ``probe_bits`` is used as given. Otherwise a cached
    full-width LUT always wins, and failing that the cold-cost rule
    (:func:`choose_probe_bits`) picks the width; reusing a cached narrow
    LUT then also starts the full-width build in the background, so a
    recurring codebook converges to the fast full-width decode.
    """
    lengths = stream.lengths
    chosen = probe_bits is None
    if chosen:
        probe_bits = MAX_CODE_LEN if lut_cached(lengths) \
            else choose_probe_bits(stream.n_symbols, lengths)
    outcome = "hit" if lut_cached(lengths, probe_bits) else "built"
    # always fetched through build_lut_tables (a hit returns the cached
    # entry), so every LUT a decode uses is one call of one function
    lut = build_lut_tables(lengths, probe_bits)
    if chosen and outcome == "hit" and probe_bits < MAX_CODE_LEN \
            and prewarm_lut_async(lengths):
        outcome = "promoted"
    return probe_bits, outcome, lut


def _decode_lut(stream: HuffmanStream, probe_bits: int | None = None
                ) -> tuple[np.ndarray, int, str]:
    """Chunk-parallel multi-symbol LUT decode.

    Returns ``(symbols, probe width, LUT outcome)`` (see
    :func:`_lut_for`). One batched advance per step: every still-active
    chunk gathers the 64-bit big-endian window at its bit cursor and
    chains ``(64 - 7) // K`` probes of the next ``K`` bits through the
    multi-symbol LUT, advancing by every complete codeword each probe
    contained (after ``<= 7`` alignment bits every chained probe still
    fits the window, so no slot needs a feasibility mask). A probe whose
    first codeword is wider than ``K`` emits nothing and advances by
    nothing, so its lane idles for the rest of the word; only after the
    slot loop do the idle lanes take one flat-table step, off the
    per-slot critical ops. A full-width probe never idles on a valid
    stream, so there an idle lane means an invalid codeword. Symbol
    *emission* is deferred: steps only record ``(probe row, output
    start, emit count)`` triples, and one ragged scatter at the end
    expands every probe of every step into the output array — so
    per-step cost is a handful of width-``n_chunks`` gathers and wall
    time scales with the longest chunk, not the sum of chunk lengths.
    """
    n = stream.n_symbols
    if n == 0:
        return np.empty(0, dtype=np.uint32), 0, "none"
    pay, counts, bitpos, bit_end = _decode_prepare(stream)
    probe_bits, outcome, (lut_count, lut_cum, lut_syms) = \
        _lut_for(stream, probe_bits)
    narrow = probe_bits < MAX_CODE_LEN
    if narrow:
        table_sym, table_len = build_decode_table(stream.lengths)
    windows8 = np.lib.stride_tricks.sliding_window_view(pay, 8)
    n_chunks = counts.size
    # flattened cum-bits gather (row*stride + emit) beats 2-D fancy
    # indexing in the slot loop below; the leading zero column of
    # ``lut_cum`` makes zero-emit lanes advance by 0 with no masking
    cum_flat = lut_cum.ravel()
    cstride = lut_cum.shape[1]
    kmask = np.int64((1 << probe_bits) - 1)
    fmask = np.int64((1 << MAX_CODE_LEN) - 1)
    slots = (64 - 7) // probe_bits
    last_byte = pay.size - 8

    base = np.arange(n_chunks, dtype=np.int64) * stream.chunk_size
    decoded = np.zeros(n_chunks, dtype=np.int64)
    active = np.arange(n_chunks)
    probes, starts, emits = [], [], []      # LUT probes, replayed at the end
    fb_wins, fb_starts = [], []             # flat-table fallback singles
    while active.size:
        bp = bitpos[active]
        byte = np.minimum(bp >> 3, last_byte)  # drift-safe gather
        # big-endian *signed* view: arithmetic shift then mask extracts
        # the same bit field a logical shift would, without uint64
        # mixed-dtype shift headaches
        word = windows8[byte].view(">i8").ravel().astype(np.int64)
        off0 = bp & 7
        off = off0.copy()                    # bit cursor within the word
        here = base[active] + decoded[active]
        rem = counts[active] - decoded[active]
        for _ in range(slots):
            probe = (word >> (64 - probe_bits - off)) & kmask
            raw = lut_count[probe]
            emit = np.minimum(raw, rem)
            adv = cum_flat[probe * cstride + emit]
            probes.append(probe)
            starts.append(here.copy())
            emits.append(emit)
            off += adv
            here += emit
            rem -= emit
        # a lane idled (its last probe held no complete codeword) iff its
        # first idle probe recurred through the remaining slots
        idle = np.flatnonzero((raw == 0) & (rem > 0))
        if idle.size:
            if not narrow:
                raise CorruptStreamError(
                    "corrupt Huffman payload (invalid codeword)")
            # one flat-table step per idle lane, from a fresh gather at
            # its cursor (the rest of the word may be too short for it)
            cur = bp[idle] + (off[idle] - off0[idle])
            fw = windows8[np.minimum(cur >> 3, last_byte)] \
                .view(">i8").ravel().astype(np.int64)
            win = (fw >> (64 - MAX_CODE_LEN - (cur & 7))) & fmask
            ln = table_len[win].astype(np.int64)
            if np.any(ln == 0):
                raise CorruptStreamError(
                    "corrupt Huffman payload (invalid codeword)")
            fb_wins.append(win)
            fb_starts.append(here[idle])
            off[idle] += ln
            rem[idle] -= 1
        bitpos[active] += off - off0
        decoded[active] = counts[active] - rem
        active = active[rem > 0]
    if np.any(bitpos != bit_end):
        raise CorruptStreamError("chunk bit counts do not match decoded "
                                 "stream")

    out = np.empty(n, dtype=np.uint32)
    pr = np.concatenate(probes)
    st = np.concatenate(starts)
    em = np.concatenate(emits)
    # idle lanes (chunk already drained within the step) record
    # zero-emit probes; dropping them up front shrinks the ragged
    # replay below, whose cost scales with the probe count
    keep = np.flatnonzero(em)
    pr, st, em = pr[keep], st[keep], em[keep]
    # ragged replay: per probe p, symbols lut_syms[pr[p], :em[p]]
    # land at out[st[p]:st[p]+em[p]]. Folding the exclusive prefix
    # sum into both bases keeps this at two repeats + one arange —
    # this is the hottest allocation of the whole decode
    csum = np.cumsum(em)
    excl = csum - em
    ranges = np.arange(int(csum[-1]) if em.size else 0, dtype=np.int64)
    out[np.repeat(st - excl, em) + ranges] = \
        lut_syms.ravel()[np.repeat(pr * lut_syms.shape[1] - excl, em)
                         + ranges]
    if fb_wins:
        out[np.concatenate(fb_starts)] = table_sym[np.concatenate(fb_wins)]
    return out, probe_bits, outcome
