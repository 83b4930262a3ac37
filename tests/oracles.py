"""Reference implementations the equivalence suites compare ``src/`` against.

The library runs one optimized path per hot layer. The plain forms of
those layers live here, as test oracles, and every stream the library
emits must match them byte for byte:

* :func:`reference_compress` / :func:`reference_decompress` — the
  uncompiled interpolation traversal: per-pass index gathers
  (:func:`_pass_predict`) feeding
  :meth:`~repro.common.quantizer.LinearQuantizer.quantize` /
  :meth:`~repro.common.quantizer.LinearQuantizer.dequantize`. Oracle for
  the compiled, fused traversal of :mod:`repro.core.ginterp.engine`.
* :func:`decode_loop` — one codeword per lookup in the flat
  ``2**MAX_CODE_LEN`` table (:func:`build_decode_table`). Oracle for the
  multi-symbol LUT decoder of :mod:`repro.huffman.codec`, whose probe
  LUTs are built at their own width and never from this table.
* :func:`expand_lut_flat` — the probe LUT built by chaining lookups in
  that flat table. Oracle for the width-``K`` construction of
  :func:`repro.huffman.canonical.build_lut_tables`.
* :func:`canonical_codebook_loop` — canonical code assignment one
  symbol at a time. Oracle for the vectorized
  :func:`repro.huffman.canonical.canonical_order`.
* :func:`encode_loop` — the byte-plane emitter (:func:`pack_varbits`)
  over the same codebook, with the gap-array chunk table derived its own
  way (a ``bincount`` of each codeword's chunk). Oracle for the
  pair-table encoder, its four-codeword units and its symbol-granular
  chunk layout.

Both traversals accept (and ignore) ``plan=`` so they can stand in for
``repro.core.pipeline.interp_compress`` / ``interp_decompress``.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.common.errors import CodecError, CorruptStreamError
from repro.common.quantizer import LinearQuantizer
from repro.core.ginterp.anchors import apply_anchors, extract_anchors
from repro.core.ginterp.engine import (InterpResult, InterpSpec,
                                       _check_input, level_error_bounds)
from repro.core.ginterp.plans import (PassDesc, _axis_indices, _class_1d,
                                      pass_plan)
from repro.core.ginterp.splines import NEIGHBOR_OFFSETS, SPLINE_WEIGHTS
from repro.common.scan import concat_ranges
from repro.huffman import (MAX_CODE_LEN, DEFAULT_CHUNK_BITS, HuffmanStream,
                           canonical_codebook, fingerprint_code_lengths,
                           histogram)
from repro.huffman.codec import MAX_CHUNK_BITS, _decode_prepare


# -- interpolation traversal -----------------------------------------------

def _flat_block(axes_idx: list[np.ndarray], shape: tuple[int, ...]
                ) -> np.ndarray:
    """Broadcast-sum per-axis offsets into a block of flat C indices."""
    ndim = len(shape)
    strides = [1] * ndim
    for ax in range(ndim - 2, -1, -1):
        strides[ax] = strides[ax + 1] * shape[ax + 1]
    total = np.zeros((1,) * ndim, dtype=np.int64)
    for ax, idx in enumerate(axes_idx):
        view = [1] * ndim
        view[ax] = idx.size
        total = total + (idx * strides[ax]).reshape(view)
    return total


def _pass_predict(work_flat: np.ndarray, shape: tuple[int, ...],
                  spec: InterpSpec, p: PassDesc
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Compute (flat target indices, predictions) for one pass."""
    axes_idx = _axis_indices(shape, p)
    t = axes_idx[p.axis]
    if t.size == 0 or any(a.size == 0 for a in axes_idx):
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=np.float64)
    flat = _flat_block(axes_idx, shape)
    block_shape = flat.shape
    flat = flat.ravel()

    window = spec.window_shape[p.axis] if spec.window_shape else None
    cls1d = _class_1d(t, shape[p.axis], p.stride, window,
                      spec.cubic_variant[p.axis])
    view = [1] * len(shape)
    view[p.axis] = t.size
    cls = np.broadcast_to(cls1d.reshape(view), block_shape).ravel()

    ndim = len(shape)
    ax_stride = 1
    for ax in range(p.axis + 1, ndim):
        ax_stride *= shape[ax]
    size = work_flat.size
    pred = np.zeros(flat.size, dtype=np.float64)
    weights = SPLINE_WEIGHTS
    for j, k in enumerate(NEIGHBOR_OFFSETS):
        w = weights[cls, j]
        idx = flat + (k * p.stride * ax_stride)
        np.clip(idx, 0, size - 1, out=idx)
        pred += w * work_flat[idx]
    return flat, pred


def reference_compress(data: np.ndarray, spec: InterpSpec, eb: float,
                       quantizer: LinearQuantizer | None = None, *,
                       plan=None) -> InterpResult:
    """The uncompiled compression traversal (``plan`` is ignored)."""
    spec = spec.resolved(data.ndim)
    quantizer = quantizer or LinearQuantizer()
    _check_input(data, eb, quantizer.radius, data.ndim * spec.n_levels)
    work = data.astype(np.float64, copy=True)
    anchors = extract_anchors(work, spec.anchor_stride,
                              quantizer.value_dtype)
    apply_anchors(work, anchors, spec.anchor_stride)
    work_flat = work.ravel()

    ebs = level_error_bounds(eb, spec)
    codes_parts: list[np.ndarray] = []
    outlier_parts: list[np.ndarray] = []
    sizes: list[int] = []
    orig_flat = data.ravel()
    for p in pass_plan(data.ndim, spec):
        flat, pred = _pass_predict(work_flat, data.shape, spec, p)
        n = flat.size
        sizes.append(int(n))
        if n == 0:
            continue
        res = quantizer.quantize(orig_flat[flat], pred, ebs[p.level])
        work_flat[flat] = res.reconstructed
        codes_parts.append(res.codes)
        outlier_parts.append(res.outlier_values)

    codes = (np.concatenate(codes_parts) if codes_parts
             else np.empty(0, np.uint32))
    outliers = (np.concatenate(outlier_parts) if outlier_parts
                else np.empty(0, np.float32))
    return InterpResult(codes=codes, outliers=outliers, anchors=anchors,
                        reconstructed=work, pass_sizes=sizes)


def reference_decompress(shape: tuple[int, ...], spec: InterpSpec,
                         eb: float, codes: np.ndarray, outliers: np.ndarray,
                         anchors: np.ndarray,
                         quantizer: LinearQuantizer | None = None, *,
                         plan=None) -> np.ndarray:
    """The uncompiled decompression traversal (``plan`` is ignored)."""
    spec = spec.resolved(len(shape))
    quantizer = quantizer or LinearQuantizer()
    work = np.zeros(shape, dtype=np.float64)
    apply_anchors(work, anchors.reshape(
        tuple(-(-n // spec.anchor_stride) for n in shape)),
        spec.anchor_stride)
    work_flat = work.ravel()

    ebs = level_error_bounds(eb, spec)
    codes = np.asarray(codes)
    cursor = 0
    out_cursor = 0
    for p in pass_plan(len(shape), spec):
        flat, pred = _pass_predict(work_flat, shape, spec, p)
        n = flat.size
        if n == 0:
            continue
        if cursor + n > codes.size:
            raise CorruptStreamError(
                f"quant-code stream exhausted at level {p.level} "
                f"axis {p.axis}: pass needs {n} codes, "
                f"{codes.size - cursor} remain")
        pass_codes = codes[cursor:cursor + n]
        cursor += n
        recon, out_cursor = quantizer.dequantize(
            pass_codes, pred, ebs[p.level], outliers, out_cursor)
        work_flat[flat] = recon
    if cursor != codes.size:
        raise CorruptStreamError(
            f"quant-code stream has {codes.size - cursor} trailing "
            f"code(s) after the final pass")
    if out_cursor != outliers.size:
        raise CorruptStreamError(
            f"outlier stream has {outliers.size - out_cursor} trailing "
            f"value(s) after the final pass")
    return work


# -- Huffman coder ----------------------------------------------------------

def canonical_codebook_loop(lengths: np.ndarray) -> np.ndarray:
    """Canonical codewords, assigned one symbol at a time: shortest
    first, ties by symbol index, each code the previous plus one shifted
    up to the new length. Raises :class:`CodecError` when the lengths
    violate the Kraft inequality."""
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    codes = np.zeros(lengths.size, dtype=np.uint32)
    used = np.flatnonzero(lengths)
    if used.size == 0:
        return codes
    order = used[np.lexsort((used, lengths[used]))]
    code = 0
    prev_len = int(lengths[order[0]])
    for s in order:
        ln = int(lengths[s])
        code <<= (ln - prev_len)
        codes[s] = code
        code += 1
        prev_len = ln
    if code > (1 << prev_len):
        raise CodecError("length array violates the Kraft inequality")
    return codes


def build_decode_table(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat decode table: ``(symbols, lens)``, two ``2**MAX_CODE_LEN``
    arrays such that for any bit window ``w`` starting at a codeword
    boundary, ``symbols[w]`` is the decoded symbol and ``lens[w]`` how
    many bits to consume. Windows no codeword reaches keep length 0, so
    a corrupted stream is detected instead of looping forever."""
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    codes = canonical_codebook_loop(lengths)
    size = 1 << MAX_CODE_LEN
    symbols = np.zeros(size, dtype=np.uint32)
    lens = np.zeros(size, dtype=np.uint8)
    used = np.flatnonzero(lengths)
    if used.size:
        shifts = MAX_CODE_LEN - lengths[used]
        starts = (codes[used].astype(np.int64) << shifts)
        counts = (np.int64(1) << shifts)
        # scatter each codeword across its table span
        idx = np.repeat(starts, counts) + concat_ranges(counts)
        symbols[idx] = np.repeat(used.astype(np.uint32), counts)
        lens[idx] = np.repeat(lengths[used].astype(np.uint8), counts)
    return symbols, lens


def expand_lut_flat(lengths: np.ndarray, probe_bits: int) -> tuple:
    """The probe LUT as ``(count, cum_bits, syms)``, built by chaining
    flat-table lookups (:func:`build_decode_table`) across every row at
    once; a row stops at the first codeword that does not fit the
    probe."""
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    table_syms, table_lens = build_decode_table(lengths)
    size = 1 << probe_bits
    up = MAX_CODE_LEN - probe_bits
    count = np.zeros(size, dtype=np.uint8)
    cum = np.zeros((size, probe_bits + 1), dtype=np.uint8)
    sym_dtype = np.uint16 if lengths.size <= (1 << 16) else np.uint32
    syms = np.zeros((size, probe_bits), dtype=sym_dtype)
    rows = np.arange(size, dtype=np.int64)
    consumed = np.zeros(size, dtype=np.int64)
    live = np.ones(size, dtype=bool)
    for j in range(probe_bits):
        idx = (((rows << consumed) & (size - 1)) << up)
        ln = table_lens[idx].astype(np.int64)
        live &= (ln > 0) & (consumed + ln <= probe_bits)
        if not live.any():
            break
        consumed = np.where(live, consumed + ln, consumed)
        syms[live, j] = table_syms[idx[live]]
        cum[live, j + 1] = consumed[live]
        count[live] += 1
    smax = max(int(count.max()), 1)
    return count, cum[:, :smax + 1], syms[:, :smax]

#: widest variable-length codeword :func:`pack_varbits` accepts; the staged
#: word must hold ``width + 7`` alignment bits inside a uint32 byte triple
_MAX_VARWIDTH = 24


def pack_varbits(codes: np.ndarray, lengths: np.ndarray,
                 bitpos: np.ndarray, total_bytes: int) -> np.ndarray:
    """Scatter variable-length codewords into a dense MSB-first bitstream.

    ``codes[i]`` (low ``lengths[i]`` bits significant) lands at absolute
    bit offset ``bitpos[i]``; offsets must be non-decreasing and the
    codewords non-overlapping (each output bit written at most once —
    this is a *scatter*, not a merge). Returns ``total_bytes`` of uint8.

    The trick that keeps this fully vectorized for ragged widths: every
    codeword is staged MSB-aligned into a 3-byte window anchored at its
    start byte — ``code << (24 - length - (bitpos & 7))`` — so a codeword
    of up to :data:`_MAX_VARWIDTH` - 7 bits plus its intra-byte shift
    always fits the window. The three byte planes are then OR-combined
    per distinct output byte with :func:`numpy.bitwise_or.reduceat`
    (offsets are sorted, so each plane's byte indices are non-decreasing)
    and OR-scattered into the dense output. Because no bit is claimed
    twice, OR-combining is exact, not approximate.
    """
    codes = np.asarray(codes, dtype=np.uint32).ravel()
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    bitpos = np.asarray(bitpos, dtype=np.int64).ravel()
    if not (codes.size == lengths.size == bitpos.size):
        raise CodecError("codes/lengths/bitpos size mismatch")
    if codes.size == 0:
        return np.zeros(max(0, int(total_bytes)), dtype=np.uint8)
    if int(lengths.min()) < 1 or int(lengths.max()) > _MAX_VARWIDTH - 7:
        raise CodecError(
            f"codeword length outside [1, {_MAX_VARWIDTH - 7}]")
    if np.any(codes.astype(np.uint64) >> lengths.astype(np.uint64)):
        raise CodecError("codeword wider than its declared length")
    if np.any(np.diff(bitpos) < 0):
        raise CodecError("bit offsets must be non-decreasing")
    end_bit = int(bitpos[-1] + lengths[-1])
    if int(bitpos[0]) < 0 or end_bit > int(total_bytes) * 8:
        raise CodecError("codeword falls outside the output stream")
    byte0 = bitpos >> 3
    stage = (codes.astype(np.uint32)
             << (_MAX_VARWIDTH - lengths - (bitpos & 7)).astype(np.uint32))
    # 3 byte planes of the staged window, scattered with 3-byte slack so
    # the tail codeword's low planes stay in bounds (trimmed at return)
    out = np.zeros(int(total_bytes) + 3, dtype=np.uint8)
    for plane in range(3):
        vals = ((stage >> (8 * (2 - plane))) & 0xFF).astype(np.uint8)
        idx = byte0 + plane
        firsts = np.flatnonzero(np.diff(idx, prepend=idx[0] - 1))
        out[idx[firsts]] |= np.bitwise_or.reduceat(vals, firsts)
    return out[:int(total_bytes)]


def encode_loop(codes: np.ndarray, alphabet_size: int,
                chunk_bits: int = DEFAULT_CHUNK_BITS,
                lengths: np.ndarray | None = None) -> HuffmanStream:
    """The byte-plane Huffman encoder: the same codebook and stream as
    :func:`repro.huffman.huffman_encode`, bits emitted through
    :func:`pack_varbits` and the chunk table counted per chunk."""
    if not MAX_CODE_LEN <= chunk_bits <= MAX_CHUNK_BITS:
        raise CodecError("chunk bit budget out of range")
    codes = np.asarray(codes, dtype=np.uint32).ravel()
    n = codes.size
    if lengths is None:
        lengths = fingerprint_code_lengths(
            histogram(codes, alphabet_size), MAX_CODE_LEN)
    else:
        lengths = np.asarray(lengths, dtype=np.int64)
    codebook = canonical_codebook(lengths)
    if n == 0:
        return HuffmanStream(0, alphabet_size, chunk_bits,
                             lengths.astype(np.uint8),
                             np.empty(0, np.uint16), np.empty(0, np.uint8),
                             0, np.empty(0, np.uint8), crc32=0)
    sym_len = lengths[codes]               # int64 per-symbol lengths
    pos = np.cumsum(sym_len) - sym_len     # every codeword's start bit
    total_bits = int(pos[-1] + sym_len[-1])
    n_chunks = -(-total_bits // chunk_bits)
    # chunk k holds the codewords starting in [k*B, (k+1)*B); its gap is
    # its first codeword's offset from k*B (an empty last chunk's first
    # "codeword" is the end of the stream)
    counts = np.bincount(pos // chunk_bits, minlength=n_chunks)
    first = np.cumsum(counts) - counts
    starts = np.append(pos, total_bits)[first]
    gaps = starts - np.arange(n_chunks) * chunk_bits
    payload = pack_varbits(codebook[codes], sym_len, pos,
                           -(-total_bits // 8))
    counts, gaps = counts.astype(np.uint16), gaps.astype(np.uint8)
    crc = zlib.crc32(counts.astype("<u2").tobytes() + gaps.tobytes()
                     + payload.tobytes())
    return HuffmanStream(n_symbols=n, alphabet_size=alphabet_size,
                         chunk_bits=chunk_bits,
                         lengths=lengths.astype(np.uint8), counts=counts,
                         gaps=gaps, total_bits=total_bits, payload=payload,
                         crc32=crc)


def decode_loop(stream) -> np.ndarray:
    """One codeword per flat-table lookup, up to three lookups per
    64-bit window gather. Takes a stream of either version."""
    n = stream.n_symbols
    if n == 0:
        return np.empty(0, dtype=np.uint32)
    pay, counts, bitpos, bit_end = _decode_prepare(stream)
    windows8 = np.lib.stride_tricks.sliding_window_view(pay, 8)
    n_chunks = counts.size
    table_sym, table_len = build_decode_table(stream.lengths)

    # chunk c's symbols land at (symbols of chunks before c) + step
    out = np.empty(n, dtype=np.uint32)
    base = np.cumsum(counts) - counts
    decoded = np.zeros(n_chunks, dtype=np.int64)
    mask = np.uint64((1 << MAX_CODE_LEN) - 1)
    # one 64-bit gather decodes up to K symbols per chunk per step: after
    # the <= 7 alignment bits, 57 bits remain — three <=16-bit codewords
    k_per_step = (64 - 7) // MAX_CODE_LEN
    active = np.flatnonzero(counts)     # a last chunk may be empty
    while active.size:
        bp = bitpos[active]
        byte = np.minimum(bp >> 3, pay.size - 8)  # drift-safe gather
        word = windows8[byte].view(">u8").ravel().astype(np.uint64)
        bitoff = bp & 7
        consumed = np.zeros(active.size, dtype=np.int64)
        live = np.arange(active.size)  # positions into `active`
        for _ in range(k_per_step):
            sh = (64 - MAX_CODE_LEN
                  - bitoff[live] - consumed[live]).astype(np.uint64)
            window = (word[live] >> sh) & mask
            ln = table_len[window].astype(np.int64)
            if np.any(ln == 0):
                raise CorruptStreamError(
                    "corrupt Huffman payload (invalid codeword)")
            chunks = active[live]
            out[base[chunks] + decoded[chunks]] = table_sym[window]
            consumed[live] += ln
            decoded[chunks] += 1
            live = live[decoded[active[live]] < counts[active[live]]]
            if live.size == 0:
                break
        bitpos[active] += consumed
        active = active[decoded[active] < counts[active]]
    if np.any(bitpos != bit_end):
        raise CorruptStreamError("chunk bit counts do not match decoded "
                                 "stream")
    return out
