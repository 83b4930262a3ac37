"""Coarse-grained chunked Huffman encode/decode (paper §VI-A).

Chunks are independently decodable, as in the cuSZ GPU encoder, but they
are cut at a fixed *bit* budget rather than a fixed symbol count: the
payload is one plain concatenated bitstream, and chunk ``k`` holds the
codewords whose start bit lies in ``[k*B, (k+1)*B)``. The chunk table
keeps only each chunk's *gap* — the offset of its first codeword from
``k*B``, below ``MAX_CODE_LEN`` and so one 4-bit nibble — and every chunk
carries ``B ± 15`` bits, so every decode lane finishes in about the same
number of steps (the gap-array layout of Yamamoto et al., ICPP 2020).
A chunk's symbol count is not stored: its lane decodes up to the next
chunk's start bit and counts what it emitted.

* **Encode** works on symbol *pairs*, because interpolation concentrates
  nearly every quant-code in a narrow band around the zero bin (the
  observation behind cuSZ-i's register-cached top-k histogram). Each
  code gets an 8-bit rank in the 255-code band centered on the
  alphabet's middle, or the escape rank. Viewed as uint16, the rank
  stream is one pair per cell of a 256x256 table: one ``bincount`` over
  the ``n/2`` pairs gives the band counts (only escapes are counted per
  symbol), and one gather from a per-codebook *pair table* gives each
  pair's two codewords, MSB-aligned, with their summed length in the
  low byte. The table is filled only over the block of band ranks whose
  counts repay it; pairs holding a symbol outside it (and the odd
  tail) are recoded from the per-symbol codebook, at a cost linear in
  their count. Adjacent pairs then merge into 64-bit units of four
  codewords, so the prefix sum of unit lengths, the chunk table and the
  :func:`repro.common.bitpack.pack_varbits64` word scatter all run over
  ``n/4`` units. The chunk table stays at symbol granularity: each
  chunk bound resolves the ``<= 4`` symbol starts inside the unit that
  straddles it. A stream where the table would cover too few symbols
  (most pairs escape) codes every pair from the per-symbol codebook.
  Dynamic codebooks are resolved through
  :func:`repro.huffman.tree.fingerprint_code_lengths`, so eb-retunes and
  timestep streams skip the tree build and prewarm the decode LUT.
* **Decode** steps all chunks simultaneously. Each outer step gathers one
  64-bit window per chunk and then chains multi-symbol LUT probes inside
  it: each probe reads the next ``K`` bits and yields every complete
  codeword they contain, falling back to one ``searchsorted`` over the
  canonical codewords' left-justified starts only for the rare codeword
  wider than the probe. A lane stops at its own bit end; its last probe
  usually runs past it and is trimmed after the loop to the codewords
  that end there. Steps record only ``(probe, emit count)`` per lane;
  read chunk by chunk those records are in output order, so the symbols
  are expanded after the loop by one row gather and one boolean
  compaction. ``K`` is chosen per stream (:func:`choose_probe_bits`): a
  narrow LUT builds several times faster than the full-width one, which
  a recurring codebook is promoted to.

Streams of the earlier versions still decode through the same loop;
only their table validation differs (:meth:`HuffmanStreamV1.layout`:
fixed-count, byte-aligned chunks; :meth:`HuffmanStreamV2.layout`: gap
bytes plus u16 symbol counts), and their stored counts become a check on
the counts the decode derives. The container meta key :data:`FORMAT_KEY`
names the version (:func:`read_stream`). The one-codeword-per-lookup
decoder and the byte-plane encoder in ``tests/oracles.py`` are the
references the equivalence suites compare this codec against byte for
byte: the pair-table encoder writes exactly the bytes a
symbol-at-a-time encoder would.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from repro import telemetry
from repro.common.bitpack import pack_uint, pack_varbits64, unpack_uint
from repro.common.errors import CodecError, CorruptStreamError
from repro.huffman.canonical import (MAX_CODE_LEN, build_lut_tables,
                                     canonical_codebook, canonical_order,
                                     lut_cached, prewarm_lut_async)
from repro.huffman.histogram import histogram
from repro.huffman.tree import fingerprint_code_lengths

__all__ = ["huffman_encode", "huffman_decode", "HuffmanStream",
           "HuffmanStreamV1", "HuffmanStreamV2", "read_stream",
           "section_bounds", "choose_probe_bits",
           "PROBE_WIDTHS", "DEFAULT_CHUNK_BITS", "FORMAT_KEY",
           "FORMAT_VERSION"]

#: default chunk bit budget ``B`` of new streams. A 256-bit chunk holds
#: ~170 symbols of a typical 1.5 bit/symbol quant-code stream, its table
#: entry is one 4-bit gap (~0.2% of the payload), and a full-width decode
#: lane finishes it in ~6 steps.
DEFAULT_CHUNK_BITS = 256
#: the largest chunk bit budget a stream may declare (in version 2 a
#: chunk's symbol count, at most ``B``, had to fit a u16 count column)
MAX_CHUNK_BITS = 0xFFFF
#: stream version :func:`huffman_encode` writes
FORMAT_VERSION = 3
#: container-meta key recording the Huffman stream version of a blob's
#: ``huffman`` segment; a blob without it holds a version-1 stream
FORMAT_KEY = "huffman_format"
#: bits per gap in a version-3 chunk table: every gap is below
#: ``MAX_CODE_LEN`` = 16, so two gaps share a byte
_GAP_BITS = 4

# n_symbols, alphabet, chunk_bits, n_chunks, total_bits, crc32
_HDR = struct.Struct("<QIIIQI")
# n_symbols, alphabet, chunk_size, n_chunks, crc32
_HDR_V1 = struct.Struct("<QIIII")


def _crc(*parts: np.ndarray) -> int:
    """CRC-32 over the parts' bytes, in order."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(np.ascontiguousarray(part), crc)
    return crc


def _check_extent(budget: int, n_chunks: int, total_bits: int,
                  payload: np.ndarray) -> None:
    """The scalar checks of a gap-array stream: the budget must admit a
    non-empty chunk, and the chunk count and payload size must follow
    from ``total_bits``."""
    if not MAX_CODE_LEN <= budget <= MAX_CHUNK_BITS:
        raise CorruptStreamError(
            f"chunk bit budget {budget} outside "
            f"[{MAX_CODE_LEN}, {MAX_CHUNK_BITS}]")
    if n_chunks != -(-total_bits // budget):
        raise CorruptStreamError(
            "chunk count inconsistent with the stream's bit count")
    if payload.size != -(-total_bits // 8):
        raise CorruptStreamError("payload size mismatch")


def _gap_spans(budget: int, total_bits: int, gaps: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Each chunk's ``(start bits, end bits)`` from its gap, after
    checking the layout rule: every gap is below ``MAX_CODE_LEN`` (a gap
    is the tail of a codeword begun in the previous chunk), the first is
    0, and no chunk starts past the stream's end."""
    gaps = gaps.astype(np.int64)
    if gaps.size and int(gaps.max()) >= MAX_CODE_LEN:
        raise CorruptStreamError("chunk gap outside the codeword reach")
    if gaps.size and gaps[0] != 0:
        raise CorruptStreamError("first chunk gap is not 0")
    starts = np.arange(gaps.size, dtype=np.int64) * budget + gaps
    if gaps.size and starts[-1] > total_bits:
        raise CorruptStreamError("chunk starts past the end of the stream")
    return starts, np.append(starts[1:], total_bits)


@dataclass
class HuffmanStream:
    """A serialized gap-array Huffman stream (format version 3).

    The chunk table is one 4-bit gap per chunk, two per byte, high nibble
    first; an odd chunk count leaves a zero pad nibble. No symbol counts
    are stored: a chunk decodes up to the next chunk's start bit.
    """

    HEADER: ClassVar[struct.Struct] = _HDR

    n_symbols: int
    alphabet_size: int
    chunk_bits: int          # bit budget B: chunk k starts in [k*B, (k+1)*B)
    lengths: np.ndarray      # uint8[alphabet] canonical code lengths
    gaps: np.ndarray         # uint8[n_chunks] first codeword's offset from k*B
    total_bits: int          # payload bits (the rest of the last byte is 0)
    payload: np.ndarray      # uint8, one concatenated MSB-first bitstream
    crc32: int = 0           # checksum of gaps and payload
    pad: int = 0             # the table's pad nibble (odd chunk counts)
    #: int64[alphabet] count of every symbol, as the encoder tallied it
    #: for the codebook; not serialized, so ``None`` on a parsed stream
    symbol_counts: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def n_chunks(self) -> int:
        return int(self.gaps.size)

    def table_crc(self) -> int:
        """CRC-32 over the gaps (one byte each) and the payload."""
        return _crc(self.gaps.astype(np.uint8), self.payload)

    def to_bytes(self) -> bytes:
        nibbles = self.gaps
        if self.n_chunks & 1:
            nibbles = np.append(nibbles, self.pad)
        head = self.HEADER.pack(self.n_symbols, self.alphabet_size,
                                self.chunk_bits, self.n_chunks,
                                self.total_bits, self.crc32)
        return (head + self.lengths.astype(np.uint8).tobytes()
                + pack_uint(nibbles, _GAP_BITS).tobytes()
                + self.payload.tobytes())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "HuffmanStream":
        if len(blob) < cls.HEADER.size:
            raise CorruptStreamError("truncated Huffman stream header")
        n_symbols, alphabet, chunk_bits, n_chunks, total_bits, crc = \
            cls.HEADER.unpack_from(blob, 0)
        pos = cls.HEADER.size
        table = (n_chunks + 1) // 2
        if len(blob) < pos + alphabet + table:
            raise CorruptStreamError("truncated Huffman stream tables")
        lengths = np.frombuffer(blob, np.uint8, alphabet, pos)
        pos += alphabet
        nibbles = unpack_uint(np.frombuffer(blob, np.uint8, table, pos),
                              _GAP_BITS, 2 * table).astype(np.uint8)
        pos += table
        payload = np.frombuffer(blob, np.uint8, offset=pos)
        return cls(n_symbols=n_symbols, alphabet_size=alphabet,
                   chunk_bits=chunk_bits, lengths=lengths,
                   gaps=nibbles[:n_chunks], total_bits=total_bits,
                   payload=payload, crc32=crc,
                   pad=int(nibbles[n_chunks]) if n_chunks & 1 else 0)

    @property
    def nbytes(self) -> int:
        return (self.HEADER.size + self.lengths.size
                + (self.n_chunks + 1) // 2 + self.payload.size)

    def layout(self) -> tuple[None, np.ndarray, np.ndarray]:
        """Validated ``(None, start bits, end bits)`` per chunk: version 3
        stores no symbol counts, so the decoder derives them.

        Only O(table) work happens before the CRC, and nothing is sized
        from the header's scalars (:func:`_check_extent`); after it the
        pad nibble must be 0 and the gaps must follow the layout rule
        (:func:`_gap_spans`).
        """
        _check_extent(self.chunk_bits, self.n_chunks, self.total_bits,
                      self.payload)
        if self.table_crc() != self.crc32:
            raise CorruptStreamError("Huffman stream checksum mismatch")
        if self.pad:
            raise CorruptStreamError("nonzero pad nibble in the chunk table")
        return (None, *_gap_spans(self.chunk_bits, self.total_bits,
                                  self.gaps))


@dataclass
class HuffmanStreamV2:
    """A version-2 stream: the version-3 layout with a u16 symbol count
    and a whole byte per chunk gap. Read only; new streams are version 3
    (the writer lives on in ``tests/oracles.py`` for fixtures)."""

    HEADER: ClassVar[struct.Struct] = _HDR

    n_symbols: int
    alphabet_size: int
    chunk_bits: int          # bit budget B: chunk k starts in [k*B, (k+1)*B)
    lengths: np.ndarray      # uint8[alphabet] canonical code lengths
    counts: np.ndarray       # uint16[n_chunks] symbols per chunk
    gaps: np.ndarray         # uint8[n_chunks] first codeword's offset from k*B
    total_bits: int          # payload bits (the rest of the last byte is 0)
    payload: np.ndarray      # uint8, one concatenated MSB-first bitstream
    crc32: int = 0           # checksum of counts, gaps and payload

    @property
    def n_chunks(self) -> int:
        return int(self.counts.size)

    def table_crc(self) -> int:
        """CRC-32 over the counts (u16), the gaps (u8) and the payload."""
        return _crc(self.counts.astype("<u2"), self.gaps.astype(np.uint8),
                    self.payload)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "HuffmanStreamV2":
        if len(blob) < cls.HEADER.size:
            raise CorruptStreamError("truncated Huffman stream header")
        n_symbols, alphabet, chunk_bits, n_chunks, total_bits, crc = \
            cls.HEADER.unpack_from(blob, 0)
        pos = cls.HEADER.size
        if len(blob) < pos + alphabet + 3 * n_chunks:
            raise CorruptStreamError("truncated Huffman stream tables")
        lengths = np.frombuffer(blob, np.uint8, alphabet, pos)
        pos += alphabet
        counts = np.frombuffer(blob, "<u2", n_chunks, pos)
        pos += 2 * n_chunks
        gaps = np.frombuffer(blob, np.uint8, n_chunks, pos)
        pos += n_chunks
        payload = np.frombuffer(blob, np.uint8, offset=pos)
        return cls(n_symbols=n_symbols, alphabet_size=alphabet,
                   chunk_bits=chunk_bits, lengths=lengths, counts=counts,
                   gaps=gaps, total_bits=total_bits, payload=payload,
                   crc32=crc)

    def layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validated ``(counts, start bits, end bits)`` per chunk: the
        version-3 checks, with the CRC over the counts too, and the
        counts must sum to the header's symbol count."""
        _check_extent(self.chunk_bits, self.n_chunks, self.total_bits,
                      self.payload)
        if self.table_crc() != self.crc32:
            raise CorruptStreamError("Huffman stream checksum mismatch")
        starts, ends = _gap_spans(self.chunk_bits, self.total_bits,
                                  self.gaps)
        counts = self.counts.astype(np.int64)
        if int(counts.sum()) != self.n_symbols:
            raise CorruptStreamError(
                "chunk symbol counts inconsistent with symbol count")
        return counts, starts, ends


@dataclass
class HuffmanStreamV1:
    """A version-1 stream: fixed ``chunk_size``-symbol chunks, each
    starting on a byte boundary. Read only; new streams are version 3."""

    HEADER: ClassVar[struct.Struct] = _HDR_V1

    n_symbols: int
    alphabet_size: int
    chunk_size: int
    lengths: np.ndarray      # uint8[alphabet] canonical code lengths
    chunk_bits: np.ndarray   # uint32[n_chunks] payload bits per chunk
    payload: np.ndarray      # uint8, concatenated byte-aligned chunks
    crc32: int = 0           # checksum of the payload

    @property
    def n_chunks(self) -> int:
        return int(self.chunk_bits.size)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "HuffmanStreamV1":
        if len(blob) < cls.HEADER.size:
            raise CorruptStreamError("truncated Huffman stream header")
        n_symbols, alphabet, chunk_size, n_chunks, crc = \
            cls.HEADER.unpack_from(blob, 0)
        pos = cls.HEADER.size
        if len(blob) < pos + alphabet + 4 * n_chunks:
            raise CorruptStreamError("truncated Huffman stream tables")
        lengths = np.frombuffer(blob, np.uint8, alphabet, pos)
        pos += alphabet
        chunk_bits = np.frombuffer(blob, "<u4", n_chunks, pos)
        pos += 4 * n_chunks
        payload = np.frombuffer(blob, np.uint8, offset=pos)
        return cls(n_symbols=n_symbols, alphabet_size=alphabet,
                   chunk_size=chunk_size, lengths=lengths,
                   chunk_bits=chunk_bits, payload=payload, crc32=crc)

    def layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validated ``(counts, start bits, end bits)`` per chunk, derived
        from the symbol-count chunking and the per-chunk bit table."""
        n, chunk_size, n_chunks = self.n_symbols, self.chunk_size, \
            self.n_chunks
        if chunk_size < 1:
            raise CorruptStreamError("chunk size must be >= 1")
        if n_chunks != -(-n // chunk_size):
            raise CorruptStreamError(
                "chunk count inconsistent with symbol count")
        if zlib.crc32(np.ascontiguousarray(self.payload)) != self.crc32:
            raise CorruptStreamError("Huffman payload checksum mismatch")
        bits = self.chunk_bits.astype(np.int64)
        byte_off = np.concatenate(([0], np.cumsum(-(-bits // 8))))
        if int(byte_off[-1]) != self.payload.size:
            raise CorruptStreamError("payload size mismatch")
        counts = np.full(n_chunks, chunk_size, dtype=np.int64)
        counts[-1] = n - chunk_size * (n_chunks - 1)
        starts = byte_off[:-1] * 8
        return counts, starts, starts + bits


#: Huffman stream classes by the version :data:`FORMAT_KEY` records
_VERSIONS = {1: HuffmanStreamV1, 2: HuffmanStreamV2, 3: HuffmanStream}
#: a stream of any readable version
AnyStream = HuffmanStream | HuffmanStreamV2 | HuffmanStreamV1


def _stream_class(meta: dict):
    """The stream class of the version a container's ``meta`` records
    (:data:`FORMAT_KEY`; absent means version 1)."""
    if not isinstance(meta, dict):
        raise CorruptStreamError("header metadata is not a JSON object")
    version = meta.get(FORMAT_KEY, 1)
    cls = _VERSIONS.get(version) if type(version) is int else None
    if cls is None:
        raise CorruptStreamError(
            f"unknown Huffman stream version {version!r}")
    return cls


def read_stream(blob: bytes, meta: dict) -> AnyStream:
    """Parse a container's ``huffman`` segment at the version its
    ``meta`` records."""
    return _stream_class(meta).from_bytes(blob)


def section_bounds(blob, meta: dict) -> tuple[int, int] | None:
    """Byte offsets ``(head_end, table_end)`` that split a container's
    serialized ``huffman`` segment into header plus code lengths, chunk
    table and payload, at the version its ``meta`` records; ``None``
    when the segment does not parse."""
    try:
        cls = _stream_class(meta)
        stream = cls.from_bytes(blob)
    except CorruptStreamError:
        return None
    return (cls.HEADER.size + stream.alphabet_size,
            len(blob) - stream.payload.size)


# below this symbol count the whole bit-offset computation fits uint32
# (total bits <= n * MAX_CODE_LEN), halving the memory traffic of the
# layout and scatter index arrays on the encode hot path
_NARROW_LAYOUT_SYMBOLS = ((1 << 32) - 64) // MAX_CODE_LEN

#: codes in the pair-table band: the ``_BAND`` codes centered on the
#: alphabet's middle (quant-codes center on the radius) take the ranks
#: ``0 .. _BAND - 1``; every other code takes the escape rank ``_BAND``
_BAND = 255
_ESCAPE = _BAND
#: symbols per packed unit: two pair-table cells of at most
#: ``2 * MAX_CODE_LEN`` bits each fill one 64-bit unit
_UNIT_SYMBOLS = 4
#: from this symbol count on, band ranks are counted by one ``bincount``
#: over the ``n/2`` rank pairs; below it the 64Ki-cell pair histogram's
#: zeroing and reductions cost more than a ``bincount`` over all ``n``
#: ranks (on a 2-vCPU x86-64 VM the two meet near 64Ki symbols; at 256Ki
#: the pair count takes 0.37 ms against 0.58 ms)
_PAIR_COUNT_SYMBOLS = 1 << 16
#: cost of one pair-table cell relative to recoding one pair from the
#: per-symbol codebook (measured 4.3 ns against 17 ns on the same VM); a
#: band rank joins the table only when its count repays the table row
#: and column it adds
_CELL_COST = 0.25
#: the pair table is built only when its block holds at least this share
#: of the symbols; below it most pairs hold an escape, and coding every
#: pair from the per-symbol codebook beats gathering and then recoding
#: them (measured on 96^3-sized streams: the table still won at 80%, the
#: per-symbol coding at 70%)
_TABLE_MIN_SHARE = 0.75
_LENGTH_MASK = np.uint64(0xFF)
_CODE_MASK = np.uint64(0xFFFFFFFFFFFFFF00)


def _check_codes(codes, alphabet_size: int) -> np.ndarray:
    """The encoder's input contract: a flat array of unsigned symbols.

    The codes must be integers in ``[0, alphabet_size)``. Both bounds are
    read with reductions over the input as given, so a bad stream fails
    before anything input-sized is allocated (a negative or wide code
    must not turn into a huge histogram, nor silently wrap to a valid
    symbol). Non-negative signed codes come back as an unsigned view.
    """
    if not 1 <= alphabet_size <= 0xFFFFFFFF:
        raise CodecError(f"alphabet size {alphabet_size} outside "
                         f"[1, 2**32 - 1]")
    codes = np.asarray(codes)
    if codes.dtype.kind not in "iu":
        raise CodecError(f"Huffman symbols must be integers, "
                         f"not {codes.dtype}")
    if codes.size:
        if codes.dtype.kind == "i" and int(codes.min()) < 0:
            raise CodecError("negative symbol")
        if int(codes.max()) >= alphabet_size:
            raise CodecError("symbol outside alphabet")
    codes = np.ascontiguousarray(codes).ravel()
    return codes.view(codes.dtype.str.replace("i", "u"))


#: codes per step of :func:`_band_ranks`: each step's uint32 offsets stay
#: in cache, and a longer step gains little (on a 2-vCPU x86-64 VM a
#: 740k-code stream takes 0.36 ms in 32Ki steps, 0.44 ms in 16Ki steps
#: and 0.69 ms as one whole-stream step with its 3 MB temporary)
_RANK_STEP = 1 << 15
#: the escape rank once per code of a step: an integer ``minimum``
#: against an array runs several times faster than against a scalar
_ESCAPES = np.full(_RANK_STEP, _ESCAPE, dtype=np.uint32)
_ESCAPES.setflags(write=False)


def _band_ranks(codes: np.ndarray, base: int) -> np.ndarray:
    """Every code's band rank as uint8, padded with one escape rank when
    ``n`` is odd so the buffer views as whole uint16 pairs.

    A code's rank is ``min(code - base, _ESCAPE)`` with uint32 wrap, so
    codes below the band escape too (every code is below ``2**32``, as
    the alphabet is). The stream is ranked in cache-sized steps through
    one step-sized scratch buffer.
    """
    n = codes.size
    ranks = np.empty(n + (n & 1), dtype=np.uint8)
    ranks[n:] = _ESCAPE
    off = np.empty(min(n, _RANK_STEP), dtype=np.uint32)
    base = np.uint32(base)
    for at in range(0, n, _RANK_STEP):
        step = codes[at:at + _RANK_STEP]
        m = step.size
        np.subtract(step, base, out=off[:m], casting="unsafe")
        np.minimum(off[:m], _ESCAPES[:m], out=off[:m])
        np.copyto(ranks[at:at + m], off[:m], casting="unsafe")
    return ranks


def _rank_counts(ranks: np.ndarray, n: int) -> np.ndarray:
    """Count of every rank among the first ``n`` (the odd-``n`` pad is
    not counted). A long stream takes one ``bincount`` over its rank
    pairs: each rank's count is its row plus its column of the 256x256
    pair histogram."""
    if n < _PAIR_COUNT_SYMBOLS:
        return np.bincount(ranks[:n], minlength=256)
    cells = np.bincount(ranks.view("<u2"), minlength=1 << 16)
    cells = cells.reshape(256, 256)
    counts = cells.sum(axis=0) + cells.sum(axis=1)
    counts[_ESCAPE] -= n & 1
    return counts


def _table_block(rank_counts: np.ndarray, n: int) -> tuple[int, int]:
    """The band ranks ``[lo, hi)`` the pair table covers.

    A rank joins when its count repays the ``2 m`` cells it adds to an
    ``m x m`` table (``m`` = the occupied span); the block spans the
    ranks that do. It is empty when no rank does, or when it would hold
    less than :data:`_TABLE_MIN_SHARE` of the symbols.
    """
    band = rank_counts[:_BAND]
    occupied = np.flatnonzero(band)
    if occupied.size == 0:
        return 0, 0
    span = int(occupied[-1] - occupied[0]) + 1
    keep = np.flatnonzero(band >= 2 * span * _CELL_COST)
    if keep.size == 0:
        return 0, 0
    lo, hi = int(keep[0]), int(keep[-1]) + 1
    if int(band[lo:hi].sum()) < _TABLE_MIN_SHARE * n:
        return 0, 0
    return lo, hi


class _PairPlan(NamedTuple):
    """How the pair table codes a stream."""

    ranks: np.ndarray     # uint8 ranks rebased on the block, odd-n padded
    first: int            # the symbol of rank 0
    width: int            # block ranks; any other rank is an escape
    escapes: np.ndarray   # sorted positions of the escapes


def _count_symbols(codes: np.ndarray, alphabet_size: int
                   ) -> tuple[np.ndarray, _PairPlan | None]:
    """Every symbol's count, plus the pair-table plan (``None`` when
    the table does not pay and every pair is coded per symbol).

    The band ranks are counted first (:func:`_rank_counts`); only the
    escapes of the chosen block are then counted per symbol, by a
    histogram over that subset.
    """
    n = codes.size
    if n == 0:
        return np.zeros(alphabet_size, dtype=np.int64), None
    base = max(0, alphabet_size // 2 - _BAND // 2)   # band's first code
    ranks = _band_ranks(codes, base)
    rank_counts = _rank_counts(ranks, n)
    lo, hi = _table_block(rank_counts, n)
    if hi == lo:
        return histogram(codes, alphabet_size), None
    # rebase the ranks on the block: every symbol outside it (the band's
    # escapes included) then has a rank >= its width
    if lo:
        np.subtract(ranks, np.uint8(lo), out=ranks)
    escapes = np.flatnonzero(ranks[:n] >= hi - lo)
    freqs = histogram(codes[escapes], alphabet_size)
    freqs[base + lo:base + hi] += rank_counts[lo:hi]
    return freqs, _PairPlan(ranks, base + lo, hi - lo, escapes)


def _symbol_table(lengths: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """The per-symbol codebook as MSB-aligned ``codeword | length`` in
    one uint64 per alphabet symbol (0 for a symbol without a code)."""
    lu = lengths.astype(np.uint64)
    used = lu > 0
    shift = np.where(used, np.uint64(64) - lu, np.uint64(0))
    return np.where(used, (codebook.astype(np.uint64) << shift) | lu,
                    np.uint64(0))


def _pair_table(sym_table: np.ndarray, first: int,
                width: int) -> np.ndarray:
    """MSB-aligned ``(codeword pair | bit length)`` per pair of symbols
    ``first + a, first + b`` with ``a, b < width``.

    Cell ``a | b << 8`` (the uint16 view of ranks ``a, b`` in stream
    order) holds ``a``'s codeword followed by ``b``'s, shifted to the top
    of a uint64, with their summed length in the low byte (two codewords
    take at most 32 bits, so code and length never overlap: OR is ADD).
    Only the ``width x width`` block is filled; the encoder gathers no
    other cell without recoding it.
    """
    table = np.empty(1 << 16, dtype=np.uint64)
    sym = sym_table[first:first + width]
    ln = sym & _LENGTH_MASK
    # row b, column a: b's codeword shifted past a's, plus b's length,
    # plus a's codeword and length
    block = table.reshape(256, 256)[:width, :width]
    np.right_shift((sym ^ ln)[:, None], ln, out=block)
    block += ln[:, None]
    block += sym
    return table


def _symbol_pairs(sym_table: np.ndarray, codes: np.ndarray,
                  at: np.ndarray | None = None):
    """``(units, bit lengths)`` of the symbol pairs ``at`` (sorted, all
    pairs when ``None``), coded from the per-symbol codebook. The second
    symbol of pair ``n // 2`` is the odd-``n`` pad, which has no bits."""
    n = codes.size
    if at is None:
        first = sym_table[codes[0::2]]
        second = np.zeros(first.size, dtype=np.uint64)
        np.take(sym_table, codes[1::2], out=second[:n // 2])
    else:
        first = sym_table[codes[2 * at]]
        second = sym_table[codes[np.minimum(2 * at + 1, n - 1)]]
        if n & 1:
            second[-1] = 0              # the pad pair sorts last
    bits = first.astype(np.uint8)
    second_bits = second.astype(np.uint8)
    first &= _CODE_MASK
    second &= _CODE_MASK
    np.right_shift(second, bits, out=second)
    first |= second
    bits += second_bits
    return first, bits


def _pair_units(codes: np.ndarray, sym_table: np.ndarray,
                plan: _PairPlan | None):
    """Every symbol pair as ``(MSB-aligned codewords, bit length)``.

    Through the pair table: one gather per pair, whose length byte peels
    off by a uint8 truncation before one scalar mask strips it in place;
    then the pairs holding an escape, plus the odd-``n`` pad, are recoded
    from the per-symbol codebook (the escape positions are sorted, so
    the two escapes of one pair are adjacent).
    """
    if plan is None:
        return _symbol_pairs(sym_table, codes)
    n = codes.size
    table = _pair_table(sym_table, plan.first, plan.width)
    pairs = table[plan.ranks.view("<u2")]
    pair_len = pairs.astype(np.uint8)
    pairs &= _CODE_MASK
    redo = plan.escapes >> 1
    if n & 1:
        redo = np.append(redo, n >> 1)
    if redo.size:
        redo = redo[np.flatnonzero(np.diff(redo, prepend=-1))]
        pairs[redo], pair_len[redo] = _symbol_pairs(sym_table, codes, redo)
    return pairs, pair_len


def _merge_pairs(pairs: np.ndarray, pair_len: np.ndarray):
    """Adjacent pair units merged into ``(units, bit lengths)`` of four
    codewords each (at most 64 bits); an odd last pair stays alone."""
    m = pairs.size
    q = m // 2
    units = np.empty(q + (m & 1), dtype=np.uint64)
    unit_len = np.empty(units.size, dtype=np.uint8)
    first_len = pair_len[0:2 * q:2]
    np.right_shift(pairs[1:2 * q:2], first_len, out=units[:q])
    units[:q] |= pairs[0:2 * q:2]
    np.add(first_len, pair_len[1:2 * q:2], out=unit_len[:q])
    if m & 1:
        units[q] = pairs[-1]
        unit_len[q] = pair_len[-1]
    return units, unit_len


def _chunk_layout(unit_len: np.ndarray, codes: np.ndarray,
                  lengths: np.ndarray, chunk_bits: int):
    """Every unit's bit offset plus the gap-array chunk table.

    Returns ``(offsets, total_bits, gaps)``. The offsets are one
    exclusive prefix sum of the unit lengths, in uint32 whenever the
    stream's bit count cannot overflow it, computed in place. The chunk
    table is at symbol granularity: chunk ``k``'s first codeword is the
    first *symbol* start ``>= k*B``. One ``searchsorted`` finds the unit
    that starts at or before each bound; its ``<= 4`` symbol starts plus
    its end (the next unit's start) come from its symbols' code lengths,
    and the first of those five at or past the bound is the chunk's
    start, so the work past the prefix sum is O(chunks). Every ``B``-bit
    window inside the stream holds a codeword start (no codeword is
    longer than ``MAX_CODE_LEN <= B``), so only the last chunk can be
    empty; its gap then reaches ``total_bits``.
    """
    n = codes.size
    acc = np.uint32 if n <= _NARROW_LAYOUT_SYMBOLS else np.int64
    pos = np.cumsum(unit_len, dtype=acc)       # inclusive bit scan
    total_bits = int(pos[-1])
    np.subtract(pos, unit_len, out=pos, casting="unsafe")
    bounds = np.arange(0, total_bits, chunk_bits, dtype=np.int64)
    unit = np.searchsorted(pos, bounds.astype(acc), side="right") - 1
    sym = unit[:, None] * _UNIT_SYMBOLS + np.arange(_UNIT_SYMBOLS)
    # symbol starts, then the unit's end; the last unit may hold fewer
    # symbols, and a missing one has no bits, so it starts (as symbol n)
    # where the stream ends
    starts = np.empty((unit.size, _UNIT_SYMBOLS + 1), dtype=np.int64)
    starts[:, 0] = pos[unit]
    starts[:, 1:] = lengths[codes[np.minimum(sym, n - 1)]]
    if sym[-1, -1] >= n:
        starts[:, 1:][sym >= n] = 0
    np.cumsum(starts, axis=1, out=starts)
    at = np.argmax(starts >= bounds[:, None], axis=1)
    first_bit = starts.ravel()[at + np.arange(0, starts.size,
                                              _UNIT_SYMBOLS + 1)]
    return pos, total_bits, (first_bit - bounds).astype(np.uint8)


def huffman_encode(codes: np.ndarray, alphabet_size: int,
                   chunk_bits: int = DEFAULT_CHUNK_BITS,
                   lengths: np.ndarray | None = None) -> HuffmanStream:
    """Encode a symbol stream into a gap-array canonical Huffman stream.

    ``codes`` must be integers in ``[0, alphabet_size)``; anything else
    raises :class:`~repro.common.errors.CodecError` before the encoder
    allocates. ``chunk_bits`` is the chunk bit budget ``B``. Passing
    prebuilt ``lengths`` (see :mod:`repro.huffman.static`) skips the
    tree build — the paper's §VI-A speed direction — at the cost of a
    slightly suboptimal code. A dynamic codebook that hits the
    fingerprint cache also starts its decode LUT build in the
    background. The returned stream carries the symbol counts in
    :attr:`HuffmanStream.symbol_counts`. The ``huffman.pack`` span
    records ``n_escapes``: the symbols outside the pair table, each
    coded with its pair from the per-symbol codebook.
    """
    if not MAX_CODE_LEN <= chunk_bits <= MAX_CHUNK_BITS:
        raise CodecError(f"chunk bit budget must be in "
                         f"[{MAX_CODE_LEN}, {MAX_CHUNK_BITS}]")
    codes = _check_codes(codes, alphabet_size)
    n = codes.size
    with telemetry.span("huffman.codebook", n_symbols=n,
                        alphabet=alphabet_size,
                        static=lengths is not None):
        freqs, plan = _count_symbols(codes, alphabet_size)
        if lengths is None:
            lengths = fingerprint_code_lengths(freqs, MAX_CODE_LEN,
                                               prewarm_lut=True)
        else:
            lengths = np.asarray(lengths, dtype=np.int64)
            if lengths.size != alphabet_size:
                raise CodecError("static codebook size mismatch")
            if np.any(lengths[freqs > 0] == 0):
                raise CodecError(
                    "static codebook lacks a code for a symbol")
        codebook = canonical_codebook(lengths)
    gaps = np.empty(0, np.uint8)
    payload = np.empty(0, np.uint8)
    total_bits = 0
    if n:
        n_escapes = n if plan is None else int(plan.escapes.size)
        with telemetry.span("huffman.pack", n_symbols=n,
                            n_escapes=n_escapes) as sp:
            pairs, pair_len = _pair_units(
                codes, _symbol_table(lengths, codebook), plan)
            units, unit_len = _merge_pairs(pairs, pair_len)
            del pairs, pair_len, plan
            pos, total_bits, gaps = _chunk_layout(
                unit_len, codes, lengths, chunk_bits)
            payload = pack_varbits64(units, unit_len, pos,
                                     -(-total_bits // 8))
            sp.set(bytes_out=int(payload.size), n_chunks=int(gaps.size))
    stream = HuffmanStream(n_symbols=n, alphabet_size=alphabet_size,
                           chunk_bits=chunk_bits,
                           lengths=lengths.astype(np.uint8), gaps=gaps,
                           total_bits=total_bits, payload=payload)
    stream.crc32 = stream.table_crc()
    stream.symbol_counts = freqs
    return stream


def huffman_decode(stream: AnyStream, *,
                   probe_bits: int | None = None) -> np.ndarray:
    """Decode a Huffman stream (any version) into its uint32 symbols.

    Raises :class:`~repro.common.errors.CorruptStreamError` on a corrupt
    stream. The probe width is picked per stream
    (:func:`choose_probe_bits`); ``probe_bits`` pins one instead. The
    ``huffman.unpack`` span records the width used and the LUT outcome:
    ``hit`` (cached), ``built`` (cold build) or ``promoted`` (a cached
    narrow LUT reused, full-width build started in the background); an
    empty stream uses no LUT and records ``none`` at width 0. It also
    records the decode loop's shape: ``n_chunks`` lanes ran ``steps``
    window steps, and ``records_kept`` probe records emitted symbols — a
    straggler-bound decode shows many steps, a replay-bound one many
    records per symbol.
    """
    with telemetry.span("huffman.unpack", n_symbols=stream.n_symbols,
                        bytes_in=int(stream.payload.size)) as sp:
        out, width, outcome, shape = _decode_lut(stream, probe_bits)
        sp.set(probe_bits=width, lut=outcome, **shape)
        return out


def _decode_prepare(stream: AnyStream):
    """Stream validation + per-chunk cursor state for the decoder.

    Everything sized from the header is checked here, before the decoder
    allocates its output. Each version derives its chunk bit spans, and
    its stored chunk symbol counts if it has any
    (:meth:`HuffmanStream.layout`). The symbol count must be reachable
    by the spans at the stream's shortest and longest code lengths: per
    chunk where counts are stored, over the whole stream otherwise.
    Returns ``(padded payload, counts or None, start bits, end bits)``.
    """
    counts, bitpos, bit_end = stream.layout()
    used = stream.lengths[stream.lengths > 0]
    if used.size == 0:
        raise CorruptStreamError("Huffman stream has no codewords")
    shortest, longest = int(used.min()), int(used.max())
    bits = bit_end - bitpos
    if counts is None:
        total = int(bits.sum())
        if not stream.n_symbols * shortest <= total \
                <= stream.n_symbols * longest:
            raise CorruptStreamError(
                "symbol count inconsistent with the stream's bit count")
    elif np.any(bits < counts * shortest) \
            or np.any(bits > counts * longest):
        raise CorruptStreamError(
            "chunk bit counts inconsistent with symbol count")
    # pad so window gathers never read past the end
    pay = np.concatenate([stream.payload, np.zeros(8, np.uint8)])
    return pay, counts, bitpos, bit_end


#: probe widths :func:`choose_probe_bits` returns, narrowest first
PROBE_WIDTHS = (12, 13, 14, MAX_CODE_LEN)

# Cold-decode cost model (ms), calibrated on a 2-CPU x86-64 VM with
# NumPy 2.4 over real pipeline streams of 65k-883k symbols (version-1
# streams, 256-symbol chunks):
# - LUT build: _BUILD_MS_PER_ROW per probe row, i.e. 1.5 ms at K=12,
#   3.0 at K=14 and 11.5 at K=16 (a fixed cost common to every width
#   does not enter the choice);
# - narrow-probe penalty over a full-width decode: every codeword wider
#   than K idles its chunk lane for the rest of a 64-bit window, so the
#   penalty scales with the share of such codewords, p(K), as
#   p(K) * (_STALL_MS + _STALL_MS_PER_SYMBOL * n_symbols).
# On version-2 streams the measured penalty is 2-3x this model, but a
# refit (which picks wider, larger LUTs) did not lower archive-mixed
# decompress_ms_p50 beyond noise and raised its peak RSS ~6%, so the
# constants stay. On the 32 seed-0 archive-mixed version-3 streams the
# widths it picks decode cold within 4% of each stream's fastest width
# (docs/PERFORMANCE.md), too little for a refit to show in the bench.
_BUILD_MS_PER_ROW = 1.62e-4
_STALL_MS = 89.0
_STALL_MS_PER_SYMBOL = 3.9e-4


def choose_probe_bits(n_symbols: int, lengths: np.ndarray) -> int:
    """Probe width of least LUT build plus decode time for a cold decode
    of ``n_symbols`` symbols coded with ``lengths``.

    A canonical code of length ``L`` carries probability ``~2**-L``, so
    the share of codewords wider than ``K`` (the ones a ``K``-bit probe
    must hand to the wide-codeword fallback) is read off the lengths
    alone; the result is a pure function of its two arguments.
    """
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    used = lengths[lengths > 0]
    weight = np.ldexp(1.0, -used)
    stall_ms = _STALL_MS + _STALL_MS_PER_SYMBOL * n_symbols
    costs = [_BUILD_MS_PER_ROW * (1 << k)
             + float(weight[used > k].sum()) * stall_ms
             for k in PROBE_WIDTHS]
    return PROBE_WIDTHS[int(np.argmin(costs))]


def _lut_for(stream: AnyStream, probe_bits: int | None):
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


#: probe records one replay block spans (chunks x record columns): its
#: row gather is ~256 KiB at the full-width LUT's 16 uint16 symbols
_REPLAY_RECORDS = 8192


def _decode_lut(stream: AnyStream,
                probe_bits: int | None = None
                ) -> tuple[np.ndarray, int, str, dict]:
    """Chunk-parallel multi-symbol LUT decode.

    Returns ``(symbols, probe width, LUT outcome, loop shape)`` (see
    :func:`_lut_for`; the shape dict holds ``steps``, ``n_chunks`` and
    ``records_kept``). One batched advance per step: every chunk lane
    gathers the 64-bit big-endian window at its bit cursor and chains
    ``(64 - 7) // K`` probes of the next ``K`` bits through the
    multi-symbol LUT (after ``<= 7`` alignment bits every chained probe
    still fits the window, so no slot needs a feasibility mask). A lane
    is live while its cursor is short of its chunk's bit end; a live
    lane advances by the LUT row's whole advance (``adv``), a finished
    one neither emits nor advances, and chunks carry about the same bit
    count, so few lanes idle that way. A probe whose first codeword is
    wider than ``K`` emits nothing and advances by nothing, so its lane
    idles for the rest of the word; only after the slot loop do the idle
    lanes take one wide-codeword step (a ``searchsorted`` over the
    canonical codewords' starts), off the per-slot critical ops. A
    full-width probe never idles on a valid stream, so there an idle
    lane means an invalid codeword.

    Symbol *emission* is deferred: each slot only records one
    ``(probe, emit count)`` column across all lanes (a wide-codeword step
    takes over its idle lane's empty last-slot record, storing the
    symbol as the negative probe ``~symbol``). Stacked chunk by chunk,
    those records are in output order, since chunks are consecutive in
    the output and each lane's records are in stream order. The replay
    first trims each lane's last record, the one that crossed its bit
    end, to the codewords that end there (none may straddle it). The
    emits then add up to each chunk's symbol count: their total must be
    the header's, and a stream that stores counts must match them chunk
    by chunk. It then drops the zero-emit records, gathers each kept
    probe's LUT row and keeps each row's emitted prefix through a
    per-emit-count mask — one boolean compaction into the output per
    block of chunks.
    """
    n = stream.n_symbols
    if n == 0:
        return (np.empty(0, dtype=np.uint32), 0, "none",
                {"steps": 0, "n_chunks": 0, "records_kept": 0})
    pay, counts, bitpos, bit_end = _decode_prepare(stream)
    probe_bits, outcome, lut = _lut_for(stream, probe_bits)
    lut_count, adv = lut.count, lut.adv
    narrow = probe_bits < MAX_CODE_LEN
    if narrow:
        code = canonical_order(stream.lengths)
    windows8 = np.lib.stride_tricks.sliding_window_view(pay, 8)
    n_chunks = bitpos.size
    kmask = np.int64((1 << probe_bits) - 1)
    fmask = np.int64((1 << MAX_CODE_LEN) - 1)
    slots = (64 - 7) // probe_bits
    last_byte = pay.size - 8

    probes, emits = [], []          # one record column per slot
    steps = 0
    while np.any(bitpos < bit_end):
        steps += 1
        byte = np.minimum(bitpos >> 3, last_byte)  # drift-safe gather
        # big-endian *signed* view: arithmetic shift then mask extracts
        # the same bit field a logical shift would, without uint64
        # mixed-dtype shift headaches
        word = windows8[byte].view(">i8").ravel().astype(np.int64)
        # shift that brings the next probe to the low bits: each slot
        # lowers it by the bits its probe consumed, so the lane's cursor
        # is bitpos + sh0 - sh, and the lane is live while sh > stop
        sh0 = (64 - probe_bits) - (bitpos & 7)
        stop = bitpos + sh0 - bit_end
        sh = sh0.copy()
        for _ in range(slots):
            probe = (word >> sh) & kmask
            live = sh > stop
            emit = lut_count[probe] * live
            sh -= adv[probe] * live
            probes.append(probe)
            emits.append(emit)
        # a lane idled (its last probe held no complete codeword) iff its
        # first idle probe recurred through the remaining slots
        idle = np.flatnonzero((emit == 0) & (sh > stop))
        if idle.size:
            if not narrow:
                raise CorruptStreamError(
                    "corrupt Huffman payload (invalid codeword)")
            # one wide-codeword step per idle lane, from a fresh gather
            # at its cursor (the rest of the word may be too short for
            # it): the codeword is the last one starting at or before
            # the 16-bit window, and none starts at or past the end
            cur = bitpos[idle] + (sh0[idle] - sh[idle])
            fw = windows8[np.minimum(cur >> 3, last_byte)] \
                .view(">i8").ravel().astype(np.int64)
            win = (fw >> (64 - MAX_CODE_LEN - (cur & 7))) & fmask
            if np.any(win >= code.end):
                raise CorruptStreamError(
                    "corrupt Huffman payload (invalid codeword)")
            at = np.searchsorted(code.starts, win, side="right") - 1
            ln = code.lens[at]
            if np.any(cur + ln > bit_end[idle]):
                raise CorruptStreamError("chunk end inside a codeword")
            # the idle lane's last-slot record emitted nothing: it
            # becomes the wide-codeword step's record
            probe[idle] = ~code.order[at].astype(np.int64)
            emit[idle] = 1
            sh[idle] -= ln
        bitpos += sh0 - sh
    emits, probes = np.array(emits), np.array(probes)   # (record, chunk)
    n_rec = emits.shape[0]
    # a lane that ran past its chunk's end did so in its last nonzero
    # record, a LUT probe (a wide-codeword step never overshoots): trim
    # it to the codewords that end within the chunk, the row's longest
    # prefix whose advance fits, which must fill the chunk exactly
    over = bitpos - bit_end
    cross = np.flatnonzero(over)
    if cross.size:
        # each lane's last nonzero record: the highest (record + 1)
        rank = np.arange(1, n_rec + 1, dtype=np.min_scalar_type(n_rec))
        at = (rank[:, None] * (emits != 0)).max(axis=0)[cross] \
            .astype(np.int64) - 1
        row = probes[at, cross]
        # need < adv <= 16: the row ran past the chunk's end
        need = (adv[row] - over[cross]).astype(np.uint8)
        cum = np.take(lut.cum, row, axis=0)
        # a row's cumulative bits past its count are 0, so only its
        # codewords that end past the chunk's end exceed ``need``
        trim = lut_count[row] - (cum > need[:, None]).sum(
            axis=1, dtype=np.uint8)
        if np.any(cum.ravel()[np.arange(0, cum.size, cum.shape[1]) + trim]
                  != need):
            raise CorruptStreamError("chunk end inside a codeword")
        emits[at, cross] = trim
    if int(emits.sum()) != n:
        raise CorruptStreamError(
            "decoded symbol count does not match the stream's")
    if counts is not None and np.any(emits.sum(axis=0) != counts):
        raise CorruptStreamError(
            "chunk symbol counts do not match the decoded stream")

    width = lut.syms.shape[1]
    prefix = np.arange(width) < np.arange(width + 1)[:, None]
    out = np.empty(n, dtype=np.uint32)
    done = kept = 0
    # replay a block of chunks at a time, so the row gather and its mask
    # stay cache-sized however long the stream is
    block = max(1, _REPLAY_RECORDS // n_rec)
    for c0 in range(0, n_chunks, block):
        c1 = min(c0 + block, n_chunks)
        # chunk-major records are in output order
        em = emits[:, c0:c1].T.ravel()
        keep = np.flatnonzero(em)
        em = em[keep]
        pr = probes[:, c0:c1].T.ravel()[keep]
        kept += keep.size
        # the clip mode maps the wide-codeword records' negative probes to
        # row 0, whose first slot is then overwritten with the symbol
        rows = np.take(lut.syms, pr, axis=0, mode="clip")
        if narrow:
            fb = np.flatnonzero(pr < 0)
            rows[fb, 0] = ~pr[fb]
        syms = rows[np.take(prefix, em, axis=0)]
        out[done:done + syms.size] = syms
        done += syms.size
    return out, probe_bits, outcome, {"steps": steps, "n_chunks": n_chunks,
                                      "records_kept": kept}
