"""Vectorized fixed-width bit packing.

Several codecs in this reproduction (cuSZp's block encoding, cuZFP's
bit-plane coder, GLE's bit-width reduction) pack streams of small unsigned
integers at a fixed bit width. On a GPU this is a shuffle/ballot kernel; the
NumPy transcription expands values to a dense bit matrix and round-trips
through :func:`numpy.packbits` / :func:`numpy.unpackbits`, which keeps every
step a single vectorized pass.

Byte-aligned widths never touch the bit matrix: width 8 (the dominant
class for entropy-coded bytes) is a straight byte copy, widths 1/2/4 fold
``8/w`` values into each byte with ``8/w`` shift-or passes, and widths
that are whole bytes (16, 24, 32, ...) go through a big-endian byte view.
Only the ragged widths (3, 5, 6, 7, ...) pay for the dense expansion.
Integer input at widths up to 8 is packed in uint8 throughout, its range
read by reductions rather than from a widened uint64 copy.

Bit order is MSB-first within each value and values are laid out
back-to-back, so a stream packed at width ``w`` occupies exactly
``ceil(n*w/8)`` bytes.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import CodecError

__all__ = ["pack_uint", "unpack_uint", "pack_varbits64",
           "zigzag_encode", "zigzag_decode",
           "bit_length", "min_bit_width"]

_MAX_WIDTH = 64


def pack_varbits64(stage: np.ndarray, lengths: np.ndarray,
                   bitpos: np.ndarray, total_bytes: int) -> np.ndarray:
    """Scatter variable-length bit units into a dense MSB-first bitstream
    (trusted inputs: only cheap scalar bounds are checked).

    ``stage[i]`` is the ``i``-th unit already MSB-aligned in a uint64
    (``code << (64 - lengths[i])``, ``1 <= lengths[i] <= 64``, every bit
    below the unit zero); it lands at absolute bit offset ``bitpos[i]``.
    A unit is one codeword or several already concatenated (the Huffman
    encoder packs four codewords per unit). Offsets must be
    non-decreasing and the units non-overlapping — this is the
    producer-side mirror of the decoder's 64-bit window gather, so the
    caller (the Huffman encoder) derives the offsets from its own prefix
    sum and only cheap scalar bounds are re-checked here. ``stage`` is
    **consumed**: the shift runs in place, so the caller must not reuse
    the array. The hot path is memory-bound, which is why offsets are
    taken in whatever (ideally ``uint32``) dtype the caller provides.

    Emission works per 64-bit output *word*: every unit ORs
    ``stage >> (bitpos & 63)`` into the word it starts in, one
    ``bitwise_or.reduceat`` group per word. A unit spans at most two
    words, and only the last unit starting in a word can spill into the
    next, so the spilled low bits are one more OR per word, not per
    unit. The word array's big-endian byte view is the MSB-first byte
    stream.
    """
    stage = np.asarray(stage, dtype=np.uint64).ravel()
    lengths = np.asarray(lengths).ravel()
    n = stage.size
    if lengths.size != n or np.asarray(bitpos).size != n:
        raise CodecError("stage/lengths/bitpos size mismatch")
    if n == 0:
        return np.zeros(max(0, int(total_bytes)), dtype=np.uint8)
    pos = np.asarray(bitpos).ravel()
    end_bit = int(pos[-1]) + int(lengths[-1])
    if int(pos[0]) < 0 or end_bit > int(total_bytes) * 8:
        raise CodecError("unit falls outside the output stream")
    # one slack word so the tail unit's spill stays in bounds
    n_words = (int(total_bytes) + 7) // 8 + 1
    words = np.zeros(n_words, dtype=np.uint64)
    if pos.dtype != np.uint32:
        # the values are non-negative, so the uint64 view is free and
        # keeps the shifts below in unsigned arithmetic
        pos = pos.astype(np.int64, copy=False).view(np.uint64)
    word = pos >> pos.dtype.type(6)
    # the units grouped by start word: each group's first and last unit
    last = np.flatnonzero(word[1:] != word[:-1])
    first = np.concatenate(([0], last + 1))
    last = np.append(last, n - 1)
    off = pos & pos.dtype.type(63)
    # a straddling unit must be captured before the in-place shift below
    # consumes the staged units
    spill = last[(off[last] + lengths[last]) > 64]
    sp_stage = stage[spill]
    sp_off = off[spill]
    np.right_shift(stage, off, out=stage, casting="unsafe")
    words[word[first]] = np.bitwise_or.reduceat(stage, first)
    if spill.size:
        # two shifts keep every shift count <= 63: a unit starting at
        # off == 0 never spills, but the blanket expression must not hit
        # the undefined uint64 << 64 either way
        lo = (sp_stage << (sp_off.dtype.type(63) - sp_off)) << np.uint64(1)
        words[word[spill] + pos.dtype.type(1)] |= lo
    return words.astype(">u8").view(np.uint8)[:int(total_bytes)].copy()


def pack_uint(values: np.ndarray, width: int) -> np.ndarray:
    """Pack unsigned integers into a uint8 stream at ``width`` bits each.

    ``width == 0`` is allowed and produces an empty stream (all values must
    then be zero — asserted, since decoding would silently lose data
    otherwise).
    """
    if width < 0 or width > _MAX_WIDTH:
        raise CodecError(f"bit width {width} out of range 0..{_MAX_WIDTH}")
    values = np.asarray(values)
    if values.size == 0:
        return np.empty(0, dtype=np.uint8)
    if width == 0:
        if np.any(values != 0):
            raise CodecError("width 0 requires all-zero values")
        return np.empty(0, dtype=np.uint8)
    if width <= 8 and values.dtype.kind in "biu":
        return _pack_narrow(values.ravel(), width)
    v = values.astype(np.uint64, copy=False).ravel()
    if width < _MAX_WIDTH and np.any(v >> np.uint64(width)):
        raise CodecError(f"value does not fit in {width} bits")
    if width % 8 == 0:
        nb = width // 8
        be = v.astype(">u8").view(np.uint8).reshape(v.size, 8)
        return np.ascontiguousarray(be[:, 8 - nb:]).reshape(-1)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((v[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel())


def _pack_narrow(values: np.ndarray, width: int) -> np.ndarray:
    """:func:`pack_uint` of integers at a width of 1-8 bits, in uint8
    throughout: the range is read by reductions, never by a widened
    copy of the input."""
    if (values.dtype.kind == "i" and int(values.min()) < 0) \
            or int(values.max()) >> width:
        raise CodecError(f"value does not fit in {width} bits")
    g = values.astype(np.uint8)
    if width == 8:
        return g
    if width in (1, 2, 4):
        per_byte = 8 // width
        n = g.size
        m = -(-n // per_byte)
        if m * per_byte != n:
            g = np.concatenate([g, np.zeros(m * per_byte - n, np.uint8)])
        g = g.reshape(m, per_byte)
        out = g[:, 0] << (8 - width)
        for j in range(1, per_byte):
            out |= g[:, j] << (8 - (j + 1) * width)
        return out
    # the low ``width`` bits of each byte, MSB first
    bits = np.unpackbits(g[:, None], axis=1)[:, 8 - width:]
    return np.packbits(bits.ravel())


def unpack_uint(packed: np.ndarray, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_uint`: recover ``count`` values as uint64."""
    if width < 0 or width > _MAX_WIDTH:
        raise CodecError(f"bit width {width} out of range 0..{_MAX_WIDTH}")
    if count < 0:
        raise CodecError("count must be non-negative")
    if width == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)
    packed = np.asarray(packed, dtype=np.uint8)
    need = -(-count * width // 8)
    if packed.size < need:
        raise CodecError(
            f"packed stream too short: {packed.size} bytes < {need}")
    if width == 8:
        return packed[:need].astype(np.uint64)
    if width in (1, 2, 4):
        per_byte = 8 // width
        mask = np.uint8((1 << width) - 1)
        b = packed[:need]
        vals = np.empty((b.size, per_byte), dtype=np.uint8)
        for j in range(per_byte):
            vals[:, j] = (b >> (8 - (j + 1) * width)) & mask
        return vals.reshape(-1)[:count].astype(np.uint64)
    if width % 8 == 0:
        nb = width // 8
        be = np.zeros((count, 8), dtype=np.uint8)
        be[:, 8 - nb:] = packed[:need].reshape(count, nb)
        return be.reshape(-1).view(">u8").astype(np.uint64)
    bits = np.unpackbits(packed[:need], count=count * width)
    bits = bits.reshape(count, width).astype(np.uint64)
    weights = (np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64))
    return bits @ weights


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed integers to unsigned: 0,-1,1,-2,2.. -> 0,1,2,3,4..

    Small-magnitude signed values (quantization deltas) become small
    unsigned values, which is what fixed-width packing wants.
    """
    v = np.asarray(values, dtype=np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    v = np.asarray(values, dtype=np.uint64)
    return ((v >> np.uint64(1)).astype(np.int64)
            ^ -(v & np.uint64(1)).astype(np.int64))


def bit_length(values: np.ndarray) -> np.ndarray:
    """Exact vectorized per-element bit length of uint64 values.

    Binary-search on shifts — six vector passes, no float round-off (unlike
    log2-based widths, which misclassify values near powers of two).
    """
    v = np.asarray(values, dtype=np.uint64).copy()
    w = np.zeros(v.shape, dtype=np.uint8)
    for shift in (32, 16, 8, 4, 2, 1):
        mask = (v >> np.uint64(shift)) > 0
        w[mask] += shift
        v[mask] >>= np.uint64(shift)
    w += (v > 0).astype(np.uint8)
    return w


def min_bit_width(values: np.ndarray) -> int:
    """Smallest width (bits) that losslessly holds every unsigned value."""
    values = np.asarray(values)
    if values.size == 0:
        return 0
    m = int(values.max())
    return m.bit_length()
