"""Prebuilt (static) Huffman codebooks (paper §VI-A, ref [37]).

cuSZ-i moves the codebook build to the CPU; the paper notes the remaining
cost could be removed entirely by *prebuilding* Huffman trees. Quant-code
histograms of error-bounded predictors are overwhelmingly two-sided
geometric around the zero bin, so a family of prebuilt codebooks — one per
assumed spread — covers real streams well: encoding skips both the
histogram and the tree build, trading a few percent of ratio.

``static_lengths`` builds such a codebook; ``best_static_profile`` picks
the family member whose implied rate fits a (cheaply sampled) stream.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import CodecError
from repro.huffman.canonical import (MAX_CODE_LEN, build_lut_tables,
                                     canonical_codebook)
from repro.huffman.tree import code_lengths

__all__ = ["static_lengths", "best_static_profile", "prewarm_static",
           "STATIC_SPREADS"]

#: prebuilt family: assumed std-dev (in bins) of the quant-code spread
STATIC_SPREADS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0)

#: memoized static length vectors, keyed (alphabet, center, spread) —
#: the family is tiny and fully deterministic, and ``best_static_profile``
#: otherwise rebuilds every member's tree per encoded stream
_static_memo: dict[tuple[int, int, float], np.ndarray] = {}
_STATIC_MEMO_LIMIT = 64


def static_lengths(alphabet_size: int, center: int,
                   spread: float) -> np.ndarray:
    """Code lengths for a two-sided-geometric model around ``center``.

    Every symbol (including the outlier code 0) gets a nonzero length, so
    any stream over the alphabet is encodable. The model frequencies decay
    exponentially with distance from the center at scale ``spread``;
    probabilities are floored so tail codes stay within MAX_CODE_LEN.
    The result is memoized (read-only array) — the family is a pure
    function of its three scalars.
    """
    if not 0 <= center < alphabet_size:
        raise CodecError("center outside alphabet")
    if spread <= 0:
        raise CodecError("spread must be positive")
    key = (int(alphabet_size), int(center), float(spread))
    hit = _static_memo.get(key)
    if hit is not None:
        return hit
    sym = np.arange(alphabet_size)
    dist = np.abs(sym - center).astype(np.float64)
    weights = np.exp(-dist / spread)
    # floor keeps every code <= MAX_CODE_LEN for the alphabets we use
    floor = weights.max() / (1 << (MAX_CODE_LEN - 2))
    weights = np.maximum(weights, floor)
    freqs = np.maximum((weights * 1e9).astype(np.int64), 1)
    lengths = code_lengths(freqs, MAX_CODE_LEN)
    assert (lengths > 0).all()
    lengths.setflags(write=False)
    if len(_static_memo) < _STATIC_MEMO_LIMIT:
        _static_memo[key] = lengths
    return lengths


def prewarm_static(alphabet_size: int, center: int,
                   spreads=STATIC_SPREADS) -> int:
    """Build codebook and probe LUT for every member of the
    static family — one call fills the caches a fresh process (or a
    freshly spawned pool worker) would otherwise fill one miss at a time
    on its first streams. Returns the number of codebooks warmed."""
    warmed = 0
    for spread in spreads:
        lengths = static_lengths(alphabet_size, center, spread)
        canonical_codebook(lengths)
        build_lut_tables(lengths)
        warmed += 1
    return warmed


def best_static_profile(codes: np.ndarray, alphabet_size: int, center: int,
                        sample: int = 4096) -> float:
    """Pick the family spread minimizing the coded size of a sample."""
    codes = np.asarray(codes).ravel()
    if codes.size == 0:
        return STATIC_SPREADS[0]
    step = max(1, codes.size // sample)
    sampled = codes[::step]
    best = None
    for spread in STATIC_SPREADS:
        lengths = static_lengths(alphabet_size, center, spread)
        bits = int(lengths[sampled].sum())
        if best is None or bits < best[0]:
            best = (bits, spread)
    return best[1]
