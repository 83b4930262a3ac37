"""Coarse-grained (chunked) canonical Huffman codec (paper §VI-A).

cuSZ / cuSZ-i encode quant-codes with a GPU Huffman pipeline: a histogram
kernel (with thread-private top-k caching in cuSZ-i), a CPU-side codebook
build (worthwhile because G-Interp concentrates the histogram into few
entries), and coarse-grained encoding where each thread block owns a fixed
chunk of symbols and writes an independently decodable bitstream.

The NumPy transcription keeps that structure, with chunks cut at a fixed
bit budget (gap arrays) so every chunk carries the same decode work. The
encoder leans on the same concentration the GPU histogram does: one
scan finds the codes outside the zero bin, only those are counted, and
only the codewords of symbols other than the background (the canonical
first symbol, whose codeword is all zero bits, so the zeroed payload
already holds it) are written, through one vectorized word scatter
(:func:`repro.common.bitpack.pack_varbits64`). The decoder steps all
chunks *simultaneously* — each batched advance probes a multi-symbol
lookup table (:func:`repro.huffman.canonical.build_lut_tables`) that
emits every complete codeword in the next ``K`` bits, or the one wider
codeword the probe opens, from one row, ``K`` chosen per stream
(:func:`repro.huffman.codec.choose_probe_bits`) — which is the
vectorized analogue of one-thread-block-per-chunk decoding. The codec
keeps one encoder and one decoder; the plain loop coders they are
checked against byte for byte are test oracles in ``tests/oracles.py``.
"""

from repro.huffman.histogram import histogram, topk_coverage
from repro.huffman.tree import (code_lengths, fingerprint_code_lengths,
                                histogram_fingerprint,
                                clear_fingerprint_cache,
                                fingerprint_cache_stats)
from repro.huffman.canonical import (
    canonical_codebook,
    canonical_order,
    build_lut_tables,
    warm_lengths,
    warm_tables,
    prewarm_lut_async,
    drain_lut_prewarm,
    lut_cached,
    MAX_CODE_LEN,
)
from repro.huffman.codec import (
    huffman_encode,
    huffman_decode,
    HuffmanStream,
    HuffmanStreamV1,
    HuffmanStreamV2,
    read_stream,
    DEFAULT_CHUNK_BITS,
    FORMAT_KEY,
    FORMAT_VERSION,
    PROBE_WIDTHS,
    choose_probe_bits,
)
from repro.huffman.static import (
    static_lengths,
    best_static_profile,
    prewarm_static,
    STATIC_SPREADS,
)

__all__ = [
    "histogram",
    "topk_coverage",
    "code_lengths",
    "fingerprint_code_lengths",
    "histogram_fingerprint",
    "clear_fingerprint_cache",
    "fingerprint_cache_stats",
    "prewarm_lut_async",
    "drain_lut_prewarm",
    "canonical_codebook",
    "canonical_order",
    "build_lut_tables",
    "warm_lengths",
    "warm_tables",
    "lut_cached",
    "MAX_CODE_LEN",
    "huffman_encode",
    "huffman_decode",
    "HuffmanStream",
    "HuffmanStreamV1",
    "HuffmanStreamV2",
    "read_stream",
    "DEFAULT_CHUNK_BITS",
    "FORMAT_KEY",
    "FORMAT_VERSION",
    "PROBE_WIDTHS",
    "choose_probe_bits",
    "static_lengths",
    "best_static_profile",
    "prewarm_static",
    "STATIC_SPREADS",
]
