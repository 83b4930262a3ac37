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

* **Encode** touches only the symbols outside the *background*: the
  canonical code's first symbol, whose codeword is all zero bits.
  Interpolation puts nearly every quant-code in the zero bin, the
  alphabet's middle (the observation behind cuSZ-i's register-cached
  top-k histogram, and behind FZ-GPU's and cuSZ+'s sparse handling of
  the same stream). One scan finds the codes other than the middle;
  only they are counted, and the middle takes the rest. Once the
  codebook is known, those codes are the coded symbols (a second scan
  finds them when the background is another symbol). Every other
  symbol is a background codeword, already present as zero bits in the
  zeroed payload, so only the coded codewords are placed: one prefix
  sum of the bits each takes beyond the background's length gives
  their start bits, :func:`repro.common.bitpack.pack_varbits64`
  scatters them, and each chunk's gap is read off the coded spans with
  one ``searchsorted`` (:func:`_coded_layout`). The work past the scan
  is linear in the coded symbols, not in ``n``; a stream whose
  background share is small (a tight bound, a high-entropy field) pays
  one scatter unit per symbol for it (docs/PERFORMANCE.md, "The encode
  mirror").
  Dynamic codebooks are resolved through
  :func:`repro.huffman.tree.fingerprint_code_lengths`, so eb-retunes and
  timestep streams skip the tree build and prewarm the decode LUT.
* **Decode** steps all chunks simultaneously. Each outer step gathers one
  64-bit window per chunk and then chains multi-symbol LUT probes inside
  it: each probe's LUT row yields every complete codeword in the next
  ``K`` bits, or the one codeword wider than ``K`` that the 16-bit
  window there opens (a row of its own), so a wide codeword is decoded
  in the slot that meets it. A lane stops at its own bit end; its last
  probe usually runs past it and is trimmed after the loop to the
  codewords that end there. Steps record only ``(LUT row, emit
  count)`` per lane; read chunk by chunk those records are in output
  order, so the symbols are expanded after the loop by one row gather
  and one boolean compaction.
  ``K`` is chosen per stream (:func:`choose_probe_bits`): a narrow LUT
  builds several times faster than the full-width one, which a
  recurring codebook is promoted to.

Streams of the earlier versions still decode through the same loop;
only their table validation differs (:meth:`HuffmanStreamV1.layout`:
fixed-count, byte-aligned chunks; :meth:`HuffmanStreamV2.layout`: gap
bytes plus u16 symbol counts), and their stored counts become a check on
the counts the decode derives. The container meta key :data:`FORMAT_KEY`
names the version (:func:`read_stream`). The one-codeword-per-lookup
decoder and the byte-plane encoder in ``tests/oracles.py`` are the
references the equivalence suites compare this codec against byte for
byte: the sparse encoder writes exactly the bytes a symbol-at-a-time
encoder would.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro import telemetry
from repro.common.bitpack import pack_uint, pack_varbits64, unpack_uint
from repro.common.errors import CodecError, CorruptStreamError
from repro.huffman.canonical import (MAX_CODE_LEN, build_lut_tables,
                                     canonical_order, lut_cached,
                                     prewarm_lut_async)
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


def _other_codes(codes: np.ndarray,
                 symbol: int) -> tuple[np.ndarray, np.ndarray]:
    """``(positions, symbols)`` of the codes other than ``symbol``."""
    at = np.flatnonzero(codes != symbol)
    return at, codes[at]


def _symbol_table(lengths: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """The per-symbol codebook as MSB-aligned ``codeword | length`` in
    one uint64 per alphabet symbol (0 for a symbol without a code)."""
    lu = lengths.astype(np.uint64)
    used = lu > 0
    shift = np.where(used, np.uint64(64) - lu, np.uint64(0))
    return np.where(used, (codebook.astype(np.uint64) << shift) | lu,
                    np.uint64(0))


def _coded_layout(at: np.ndarray, coded_len: np.ndarray, bg_len: int,
                  n: int, chunk_bits: int):
    """Every coded codeword's start bit plus the gap-array chunk table.

    ``at`` holds the sorted positions of the symbols that are not the
    background in a stream of ``n``, ``coded_len`` their code lengths;
    every other symbol is a ``bg_len``-bit background codeword. Returns
    ``(offsets, total_bits, gaps)``. Codeword ``j`` starts at
    ``at[j] * bg_len`` plus the bits the earlier coded codewords take
    beyond ``bg_len`` (the background code is the shortest, so none
    takes fewer): one exclusive prefix sum, in uint32 whenever the
    stream's bit count cannot overflow it.

    Chunk ``k``'s gap is the offset of the first codeword starting at or
    past its bound ``b = k*B``. One ``searchsorted`` finds the last coded
    codeword starting before ``b``. If it straddles ``b``, the next
    codeword starts at its end. Otherwise ``b`` lies in a run of
    background codewords starting at that end (or at 0), so the next
    start is the run's first at or past ``b``: the gap is ``(run start -
    b) mod bg_len``. The run reaches the next coded codeword in whole
    background codewords, so a coded codeword starting exactly at ``b``
    gives gap 0 too. Only the last chunk can be empty; its gap then
    reaches ``total_bits``.
    """
    acc = np.uint32 if n <= _NARROW_LAYOUT_SYMBOLS else np.int64
    extra = coded_len - np.uint8(bg_len)
    pos = np.cumsum(extra, dtype=acc)          # inclusive bit scan
    total_bits = n * bg_len + (int(pos[-1]) if pos.size else 0)
    np.subtract(pos, extra, out=pos, casting="unsafe")
    np.add(pos, at * bg_len, out=pos, casting="unsafe")
    bounds = np.arange(0, total_bits, chunk_bits, dtype=np.int64)
    before = np.searchsorted(pos, bounds.astype(acc), side="left")
    run = np.zeros(bounds.size, dtype=np.int64)
    seen = np.flatnonzero(before)
    last = before[seen] - 1
    run[seen] = pos[last] + coded_len[last]
    run -= bounds
    gaps = np.where(run > 0, run, run % bg_len).astype(np.uint8)
    return pos, total_bits, gaps


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
    records ``n_coded``: the symbols written, all but the background
    ones, whose all-zero codewords the zeroed payload already holds.
    """
    if not MAX_CODE_LEN <= chunk_bits <= MAX_CHUNK_BITS:
        raise CodecError(f"chunk bit budget must be in "
                         f"[{MAX_CODE_LEN}, {MAX_CHUNK_BITS}]")
    codes = _check_codes(codes, alphabet_size)
    n = codes.size
    with telemetry.span("huffman.codebook", n_symbols=n,
                        alphabet=alphabet_size,
                        static=lengths is not None):
        # quant-codes center on the zero bin, the alphabet's middle: only
        # the other codes are counted, and the middle takes the rest
        middle = alphabet_size // 2
        at, coded = _other_codes(codes, middle)
        freqs = histogram(coded, alphabet_size)
        freqs[middle] += n - at.size
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
        code = canonical_order(lengths)
    gaps = np.empty(0, np.uint8)
    payload = np.empty(0, np.uint8)
    total_bits = 0
    if n:
        with telemetry.span("huffman.pack", n_symbols=n) as sp:
            # the background is the canonical first symbol: its codeword
            # is all zero bits, so the zeroed payload already holds it
            background = int(code.order[0])
            if background != middle:
                at, coded = _other_codes(codes, background)
            units = _symbol_table(lengths, code.codes)[coded]
            del coded
            unit_len = units.astype(np.uint8)
            units &= _CODE_MASK
            pos, total_bits, gaps = _coded_layout(
                at, unit_len, int(lengths[background]), n, chunk_bits)
            payload = pack_varbits64(units, unit_len, pos,
                                     -(-total_bits // 8))
            sp.set(n_coded=int(at.size), bytes_out=int(payload.size),
                   n_chunks=int(gaps.size))
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
PROBE_WIDTHS = (9, 10, 11, 12, 13, 14, MAX_CODE_LEN)

# Cold-decode cost model (ms), fitted on a 2-CPU x86-64 VM with NumPy 2.4
# over cold decodes of 68 bench streams at K = 9..14 (seed 1) and checked
# on another 68 (seed 4; docs/PERFORMANCE.md, "Probe width"):
# - LUT build: _BUILD_MS_PER_ROW per LUT row, the 2**K probe rows plus
#   one per 16-bit window that opens a codeword wider than K;
# - decode loop: _SLOT_MS per lane slot that consumes bits, of which a
#   stream of B bits takes B / a(K), a(K) being the bits one slot
#   consumes on average. A wider probe fits more codewords in a slot, so
#   a(K) grows with K.
_BUILD_MS_PER_ROW = 1.69e-4
_SLOT_MS = 3.26e-5


def _slot_bits(lengths: np.ndarray) -> tuple[list, list]:
    """``(a, wide)`` per probe width ``K`` = 0..16, for a code whose
    codeword of length ``L`` occurs with probability ``p_L = 2**-L``:
    ``a[K]`` the mean bits one probe slot consumes, ``wide[K]`` the
    share of the 16-bit windows that open a codeword wider than ``K``.

    A slot consumes every complete codeword in its ``K`` bits, or the
    one wider codeword it opens, so ``a[K] = fill[K] + sum over L > K of
    p_L * L``, where ``fill[b]``, the mean bits of the complete
    codewords in ``b`` bits, is ``sum over L <= b of p_L * (L +
    fill[b - L])``.
    """
    counts = np.bincount(lengths, minlength=MAX_CODE_LEN + 1)
    p = np.ldexp(counts, -np.arange(MAX_CODE_LEN + 1)).tolist()
    terms = [(j, p[j]) for j in range(1, MAX_CODE_LEN + 1) if p[j]]
    fill = [0.0] * (MAX_CODE_LEN + 1)
    over = [0.0] * (MAX_CODE_LEN + 1)
    wide = [0.0] * (MAX_CODE_LEN + 1)
    for b in range(1, MAX_CODE_LEN + 1):
        fill[b] = sum([pj * (j + fill[b - j]) for j, pj in terms if j <= b])
    for k in range(MAX_CODE_LEN - 1, -1, -1):
        over[k] = over[k + 1] + p[k + 1] * (k + 1)
        wide[k] = wide[k + 1] + p[k + 1]
    return [f + o for f, o in zip(fill, over)], wide


def choose_probe_bits(total_bits: int, lengths: np.ndarray) -> int:
    """Probe width of least LUT build plus decode time for a cold decode
    of a ``total_bits``-bit stream coded with ``lengths``.

    A canonical code of length ``L`` carries probability ``~2**-L``, so
    both the LUT's row count and the bits a probe slot consumes are read
    off the lengths alone (:func:`_slot_bits`); the result is a pure
    function of its two arguments.
    """
    a, wide = _slot_bits(np.asarray(lengths, dtype=np.uint8).ravel())
    costs = [_BUILD_MS_PER_ROW * ((1 << k) + wide[k] * (1 << MAX_CODE_LEN))
             + _SLOT_MS * total_bits / a[k] for k in PROBE_WIDTHS]
    return PROBE_WIDTHS[costs.index(min(costs))]


def _lut_for(stream: AnyStream, probe_bits: int | None, total_bits: int):
    """The ``(probe_bits, LUT outcome, LUT)`` a decode of ``stream``, of
    ``total_bits`` payload bits, uses.

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
            else choose_probe_bits(total_bits, lengths)
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
    ``(64 - 7) // K`` probes of the ``W`` bits at its cursor through the
    multi-symbol LUT. When the LUT has a row index (some codeword is
    wider than ``K``), ``W`` is 16 and the index maps the window to the
    ``K``-bit probe row, or to the row of the one wider codeword it
    opens (:func:`repro.huffman.canonical.build_lut_tables`); otherwise
    ``W = K`` and the window is the row. A lane is live while its cursor
    is short of its chunk's bit end and, with an index, while its whole
    window lies inside the word (without one, after ``<= 7`` alignment
    bits every slot's window does); a live lane advances by
    the row's whole advance (``adv``), a lane that is not neither emits
    nor advances, and chunks carry about the same bit count, so few
    lanes idle that way. Every window that opens a codeword reaches a
    row that emits, so a live lane whose row emits nothing has met an
    invalid codeword: it stays on that row, and is caught after the
    slots.

    Symbol *emission* is deferred: each slot only records one
    ``(row, emit count)`` column across all lanes. Stacked chunk by
    chunk, those records are in output order, since chunks are
    consecutive in the output and each lane's records are in stream
    order. The replay first trims each lane's last record, the one that
    crossed its bit end, to the codewords that end there (none may
    straddle it). The emits then add up to each chunk's symbol count:
    their total must be the header's, and a stream that stores counts
    must match them chunk by chunk. It then drops the zero-emit records,
    gathers each kept record's LUT row and keeps each row's emitted
    prefix through a per-emit-count mask — one boolean compaction into
    the output per block of chunks.
    """
    n = stream.n_symbols
    if n == 0:
        return (np.empty(0, dtype=np.uint32), 0, "none",
                {"steps": 0, "n_chunks": 0, "records_kept": 0})
    pay, counts, bitpos, bit_end = _decode_prepare(stream)
    probe_bits, outcome, lut = _lut_for(stream, probe_bits,
                                        int((bit_end - bitpos).sum()))
    lut_count, adv, index = lut.count, lut.adv, lut.index
    windows8 = np.lib.stride_tricks.sliding_window_view(pay, 8)
    n_chunks = bitpos.size
    window = probe_bits if index is None else MAX_CODE_LEN
    wmask = np.int64((1 << window) - 1)
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
        # shift that brings the window at the cursor to the low bits:
        # each slot lowers it by the bits its row consumed, so the lane's
        # cursor is bitpos + sh0 - sh, and the lane is live while
        # sh > stop
        sh0 = (64 - window) - (bitpos & 7)
        stop = bitpos + sh0 - bit_end
        if index is not None:
            # the 16-bit window is wider than the K bits a probe row
            # consumes, and a wide codeword's row consumes more than K,
            # so a late slot's window may run off the word (sh < 0): the
            # lane then waits for the next step. A negative shift yields
            # 0 or -1, so its masked window still indexes the LUT
            np.maximum(stop, -1, out=stop)
        sh = sh0.copy()
        for _ in range(slots):
            probe = (word >> sh) & wmask
            if index is not None:
                probe = index[probe]
            live = sh > stop
            emit = lut_count[probe] * live
            sh -= adv[probe] * live
            probes.append(probe)
            emits.append(emit)
        if np.any((emit == 0) & (sh > stop)):
            raise CorruptStreamError(
                "corrupt Huffman payload (invalid codeword)")
        bitpos += sh0 - sh
    emits, probes = np.array(emits), np.array(probes)   # (record, chunk)
    n_rec = emits.shape[0]
    # a lane that ran past its chunk's end did so in its last nonzero
    # record: trim it to the codewords that end within the chunk, the
    # row's longest prefix whose advance fits, which must fill the chunk
    # exactly (a wide codeword's row holds one codeword, so it never can)
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
        syms = np.take(lut.syms, pr, axis=0)[np.take(prefix, em, axis=0)]
        out[done:done + syms.size] = syms
        done += syms.size
    return out, probe_bits, outcome, {"steps": steps, "n_chunks": n_chunks,
                                      "records_kept": kept}
