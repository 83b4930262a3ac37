"""GLE — the Bitcomp-lossless stand-in (paper §VI-B).

NVIDIA Bitcomp is proprietary; the paper uses it as a *repeated-pattern
canceling* pass over Huffman output, whose gains come from the long runs of
identical bytes that highly concentrated quant-codes leave behind (e.g.
continuous ``0x00`` when the dominant code has a 1-bit codeword). GLE
removes exactly that redundancy class with two GPU-friendly passes:

1. **Word RLE** — the stream is viewed as 32-bit words; maximal runs of a
   repeated word with length >= ``MIN_RUN`` become ``(value, count)``
   tokens, everything else is grouped into literal segments. Run detection
   is a diff + compact (GPU: ballot/scan), reconstruction a masked scatter
   (GPU: scatter after exclusive scan).
2. **Block bit-width reduction** — the literal bytes are split into
   fixed-size blocks; each block is packed at the minimal bit width of its
   bytes (GPU: per-block reduce + shuffle pack). Blocks are grouped by
   width so each width class is one :func:`pack_uint` call. Blocks of
   entropy-coded bytes typically stay at width 8 (1-byte header overhead
   per block); sparse structures (chunk-length tables, anchor mantissa
   tails) shrink.

The encoder never expands beyond a 17-byte frame + ~0.4%: a stage that
does not pay for itself is skipped, and the frame flags record which
stages ran. :func:`gle_decompress` reads every combination, including
frames whose encoder switched a stage off on purpose (the orchestrator's
retired ``gle-rle`` and ``gle-pack`` backends).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.common.bitpack import bit_length, pack_uint, unpack_uint
from repro.common.errors import CorruptStreamError

__all__ = ["gle_compress", "gle_decompress", "GLECodec",
           "MIN_RUN", "PACK_BLOCK"]

#: A run of identical 32-bit words must be at least this long to tokenize.
MIN_RUN = 4
#: Block size (bytes) for the bit-width reduction pass.
PACK_BLOCK = 512

_FRAME = struct.Struct("<4sBQI")  # magic, flags, orig length, crc32
_MAGIC = b"GLE1"
_FLAG_RLE = 1
_FLAG_PACK = 2
#: frame carries no payload checksum (crc field is 0). Set by callers that
#: already checksum the enclosing frame (the per-segment orchestrator), so
#: integrity is still verified end-to-end without paying for it twice.
_FLAG_NOCRC = 4

_RLE_HDR = struct.Struct("<II")  # n_tokens, n_literal_words
_RUN_BIT = np.uint32(0x80000000)


def _as_bytes_view(data) -> np.ndarray:
    """Zero-copy uint8 view of bytes/bytearray/memoryview/ndarray input."""
    if isinstance(data, np.ndarray):
        if not data.flags.c_contiguous:
            data = np.ascontiguousarray(data)
        return data.view(np.uint8).ravel()
    return np.frombuffer(data, dtype=np.uint8)


def _word_rle_encode(data: np.ndarray) -> bytes | None:
    """Stage 1 encode. Returns None when RLE would not shrink the stream."""
    pad = (-data.size) % 4
    if pad:
        data = np.concatenate([data, np.zeros(pad, np.uint8)])
    words = data.view(np.uint32)
    n = words.size
    if n < MIN_RUN:
        return None
    # maximal runs without materializing every segment boundary: AND
    # shifted equality masks so runm[i] == "words[i:i+MIN_RUN] all equal".
    # Contiguous True blocks then map 1:1 onto maximal runs (two adjacent
    # maximal runs always break the chain at their join), so only the few
    # block edges are compacted — not the ~n word-change boundaries.
    eq = words[1:] == words[:-1]
    m = n - MIN_RUN + 1
    runm = eq[:m] & eq[1:m + 1] if MIN_RUN > 2 else eq[:m].copy()
    for k in range(2, MIN_RUN - 1):
        runm &= eq[k:m + k]
    ri = runm.view(np.int8)
    edges = ri[1:] - ri[:-1]
    # nonzero over bool comparisons: ~5x faster than compacting the
    # int8 edge array directly
    run_start = np.flatnonzero(edges == 1) + 1
    block_end = np.flatnonzero(edges == -1) + 1
    if ri[0]:
        run_start = np.concatenate([np.zeros(1, np.int64), run_start])
    if ri[-1]:
        block_end = np.concatenate([block_end,
                                    np.full(1, m, dtype=np.int64)])
    n_long = run_start.size
    if n_long == 0:
        return None
    run_len = (block_end - run_start) + (MIN_RUN - 1)
    saved = int(run_len.sum() - 2 * n_long) * 4  # each long run -> 2 words
    if saved <= n_long * 2 + _RLE_HDR.size + 64:  # token overhead margin
        return None

    run_values = words[run_start]
    # interleaved token stream: literal gap, run, literal gap, run, ...,
    # final literal tail. A token is a u32 word count with the high bit
    # flagging runs; zero-length literal gaps keep the alternation regular
    # (the decoder skips empty segments for free).
    run_end = run_start + run_len
    lit_len = np.empty(n_long + 1, dtype=np.int64)
    lit_len[0] = run_start[0]
    np.subtract(run_start[1:], run_end[:-1], out=lit_len[1:-1])
    lit_len[-1] = n - run_end[-1]
    if n >= 0x80000000:
        return None  # absurdly long segment; bail to stored
    tokens = np.empty(2 * n_long + 1, dtype=np.uint32)
    tokens[0::2] = lit_len
    tokens[1::2] = run_len.astype(np.uint32) | _RUN_BIT
    n_lit = n - int(run_len.sum())
    total = _RLE_HDR.size + 4 * (tokens.size + n_long + n_lit)
    if total >= 4 * n:
        return None
    # single preallocated output; literal words (everything not inside a
    # long run, in order) are compressed straight into it. The membership
    # mask repeats over the ~2*n_long interleaved segments, far fewer
    # than the per-word-change segments.
    out = np.empty(total, dtype=np.uint8)
    _RLE_HDR.pack_into(out, 0, tokens.size, n_lit)
    u32 = out[_RLE_HDR.size:].view(np.uint32)
    u32[:tokens.size] = tokens
    u32[tokens.size:tokens.size + n_long] = run_values
    seg_len = np.empty(2 * n_long + 1, dtype=np.int64)
    seg_len[0::2] = lit_len
    seg_len[1::2] = run_len
    is_lit = np.zeros(2 * n_long + 1, dtype=bool)
    is_lit[0::2] = True
    u32[tokens.size + n_long:] = words[np.repeat(is_lit, seg_len)]
    return out


def _word_rle_decode(blob: bytes, original_padded_len: int) -> np.ndarray:
    """Stage 1 decode back to the padded word stream (as uint8)."""
    if len(blob) < _RLE_HDR.size:
        raise CorruptStreamError("truncated GLE RLE header")
    n_tokens, n_lit = _RLE_HDR.unpack_from(blob, 0)
    pos = _RLE_HDR.size
    if len(blob) < pos + 4 * n_tokens:
        raise CorruptStreamError("truncated GLE RLE token table")
    tokens = np.frombuffer(blob, np.uint32, n_tokens, pos)
    pos += 4 * n_tokens
    is_run = (tokens & _RUN_BIT) != 0
    seg_words = (tokens & ~_RUN_BIT).astype(np.int64)
    n_runs = int(is_run.sum())
    if len(blob) < pos + 4 * (n_runs + n_lit):
        raise CorruptStreamError("truncated GLE RLE payload")
    run_values = np.frombuffer(blob, np.uint32, n_runs, pos)
    pos += 4 * n_runs
    literal_words = np.frombuffer(blob, np.uint32, n_lit, pos)
    pos += 4 * n_lit
    if pos != len(blob):
        raise CorruptStreamError("trailing bytes in GLE RLE frame")

    total = int(seg_words.sum())
    if total * 4 != original_padded_len:
        raise CorruptStreamError("GLE RLE length mismatch")
    # scatter reconstruction: one boolean run/literal mask over the output
    # (a repeat off the token table), runs expanded by a second repeat,
    # literals copied through the complementary mask
    out = np.empty(total, dtype=np.uint32)
    in_run = np.repeat(is_run, seg_words)
    if n_runs:
        out[in_run] = np.repeat(run_values, seg_words[is_run])
    n_lit_expected = total - int(seg_words[is_run].sum())
    if n_lit_expected != literal_words.size:
        raise CorruptStreamError("GLE literal count mismatch")
    if n_lit:
        out[~in_run] = literal_words
    return out.view(np.uint8)


def _pack_encode(data: np.ndarray) -> bytes | None:
    """Stage 2 encode: per-block byte bit-width packing."""
    n = data.size
    if n == 0:
        return None
    n_blocks = -(-n // PACK_BLOCK)
    pad = n_blocks * PACK_BLOCK - n
    if pad:
        data = np.concatenate([data, np.zeros(pad, np.uint8)])
    blocks = data.reshape(n_blocks, PACK_BLOCK)
    widths = bit_length(blocks.max(axis=1))
    packed_bits = widths.astype(np.int64) * PACK_BLOCK
    est = n_blocks + int(np.sum(-(-packed_bits // 8)))
    if est >= n:
        return None
    parts = [struct.pack("<QI", n, n_blocks), widths.tobytes()]
    # group blocks by width so each group is one vectorized pack
    for w in range(1, 9):
        sel = widths == w
        if not np.any(sel):
            continue
        parts.append(pack_uint(blocks[sel].ravel(), w).tobytes())
    out = b"".join(parts)
    if len(out) >= n:
        return None
    return out


def _pack_decode(blob: bytes) -> np.ndarray:
    """Stage 2 decode (returns the byte stream as uint8)."""
    if len(blob) < 12:
        raise CorruptStreamError("truncated GLE pack header")
    n, n_blocks = struct.unpack_from("<QI", blob, 0)
    pos = 12
    if len(blob) < pos + n_blocks:
        raise CorruptStreamError("truncated GLE pack width table")
    widths = np.frombuffer(blob, np.uint8, n_blocks, pos)
    pos += n_blocks
    out = np.zeros((n_blocks, PACK_BLOCK), dtype=np.uint8)
    for w in range(1, 9):
        sel = widths == w
        cnt = int(sel.sum())
        if cnt == 0:
            continue
        nbytes = -(-cnt * PACK_BLOCK * w // 8)
        if len(blob) < pos + nbytes:
            raise CorruptStreamError("truncated GLE pack payload")
        chunk = np.frombuffer(blob, np.uint8, nbytes, pos)
        pos += nbytes
        if w == 8:
            out[sel] = chunk.reshape(cnt, PACK_BLOCK)
        else:
            vals = unpack_uint(chunk, w, cnt * PACK_BLOCK)
            out[sel] = vals.reshape(cnt, PACK_BLOCK).astype(np.uint8)
    if pos != len(blob):
        raise CorruptStreamError("trailing bytes in GLE pack frame")
    return out.reshape(-1)[:n]


def gle_compress(data, *, checksum: bool = True) -> bytes:
    """Compress arbitrary bytes with the two-stage GLE scheme.

    ``data`` may be ``bytes``, a ``memoryview``, or a NumPy buffer — it is
    viewed, never copied. ``checksum=False`` omits the payload CRC for
    callers that verify the enclosing frame themselves. The frame records
    which stages actually ran, so incompressible input costs only the
    17-byte frame header.
    """
    arr = _as_bytes_view(data)
    orig_len = arr.size
    if checksum:
        crc = zlib.crc32(arr)
        flags = 0
    else:
        crc = 0
        flags = _FLAG_NOCRC
    stage = arr
    enc = _word_rle_encode(stage)
    if enc is not None:
        stage = np.frombuffer(enc, dtype=np.uint8)
        flags |= _FLAG_RLE
    enc = _pack_encode(stage)
    if enc is not None:
        stage = np.frombuffer(enc, dtype=np.uint8)
        flags |= _FLAG_PACK
    return b"".join((_FRAME.pack(_MAGIC, flags, orig_len, crc),
                     memoryview(stage)))


def gle_decompress(blob) -> bytes:
    """Invert :func:`gle_compress`.

    Raises :class:`~repro.common.errors.CorruptStreamError` on bad magic,
    truncated frames, and checksum mismatch.
    """
    blob = bytes(blob)
    if len(blob) < _FRAME.size:
        raise CorruptStreamError("truncated GLE frame")
    magic, flags, orig_len, crc = _FRAME.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise CorruptStreamError("bad GLE magic")
    stage = np.frombuffer(blob, np.uint8, offset=_FRAME.size)
    if flags & _FLAG_PACK:
        stage = _pack_decode(stage)
    if flags & _FLAG_RLE:
        padded_len = orig_len + ((-orig_len) % 4)
        stage = _word_rle_decode(stage, padded_len)
    if stage.size < orig_len:
        raise CorruptStreamError("GLE frame shorter than recorded length")
    out = stage[:orig_len].tobytes()
    if not (flags & _FLAG_NOCRC) and zlib.crc32(out) != crc:
        raise CorruptStreamError(
            "GLE payload checksum mismatch (corrupt frame)")
    return out


class GLECodec:
    """Object wrapper satisfying the lossless-codec protocol."""

    name = "gle"

    def compress_bytes(self, data) -> bytes:
        return gle_compress(data)

    def decompress_bytes(self, blob) -> bytes:
        return gle_decompress(blob)
