"""Anchored multi-level interpolation traversal (paper §V-A, §V-D).

One engine drives both sides of the codec and all three interpolation-based
compressors in this repository:

* **G-Interp** (cuSZ-i): anchor stride 8 (3D), window-confined neighbor
  availability matching the 33x9x9 shared thread-block layout of Fig. 2;
* **SZ3 / QoZ CPU references**: global (unconfined) neighbor availability,
  larger/whole-array anchor strides.

The traversal is a flat list of *passes* — (level stride, axis) pairs — in
which every target is predicted only from already-reconstructed samples, so
each pass is a single set of vectorized gathers (the NumPy analogue of one
fully parallel GPU kernel launch). Compression and decompression run the
identical pass plan and identical float64 arithmetic; the only difference is
whether quant-codes are produced or consumed, which guarantees bit-exact
replay.

Both traversals execute through a **compiled pass plan**
(:mod:`repro.core.ginterp.plans`): the per-pass geometry — target indices,
spline classification, neighbor addressing — is precomputed once per
``(shape, geometry)`` and LRU-cached, and every pass is predicted by
slice multiply-adds over one zero-padded staged copy of its neighbor
lattice instead of index gathers. Each pass fuses quantization (compress,
:meth:`~repro.common.quantizer.LinearQuantizer.quantize_into`) or
dequantization (decompress,
:meth:`~repro.common.quantizer.LinearQuantizer.dequantize_into`) with its
prediction, as one GPU thread block predicts and quantizes its window in
place (§V-D) and decompression replays that kernel backwards: the
reconstruction lands straight in the work array through the pass's
strided target view. All per-pass scratch comes from one per-thread arena
(:func:`~repro.core.ginterp.plans.scratch`). The equivalence suites
compare both traversals byte for byte against the uncompiled gather
traversal in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.common.errors import ConfigError, CorruptStreamError, DataError
from repro.common.quantizer import LinearQuantizer
from repro.core.ginterp.anchors import apply_anchors, extract_anchors
from repro.core.ginterp.plans import _plan_key, get_plan, scratch
from repro.core.ginterp.splines import CUBIC_NAK, SPLINE_WEIGHTS

__all__ = ["InterpSpec", "level_error_bounds", "interp_compress",
           "interp_decompress", "InterpResult", "check_stream_header",
           "check_stream_geometry", "check_stream_values", "HEADER_KEYS"]


@dataclass(frozen=True)
class InterpSpec:
    """Full configuration of one interpolation predictor.

    Attributes
    ----------
    anchor_stride:
        Power-of-two spacing of losslessly stored anchors; also fixes the
        number of interpolation levels (``log2(anchor_stride)``).
    window_shape:
        Per-axis shared-window extents (G-Interp: ``(9, 9, 33)`` — window
        length in samples, anchor-inclusive). ``None`` disables confinement
        (the CPU-style global interpolation).
    cubic_variant:
        Per-axis cubic spline choice (CUBIC_NAK / CUBIC_NAT class ids),
        normally from auto-tuning.
    axis_order:
        Order in which axes are interpolated inside each level; the paper
        tunes this least-smooth-first.
    alpha, beta:
        Level-wise error-bound reduction: level ``l`` (stride ``2**(l-1)``)
        uses ``eb / min(alpha**(l-1), beta)`` (§V-B.2; beta is the QoZ-style
        cap, ``inf`` = uncapped).
    """

    anchor_stride: int = 8
    window_shape: tuple[int, ...] | None = None
    cubic_variant: tuple[int, ...] = ()
    axis_order: tuple[int, ...] = ()
    alpha: float = 1.0
    beta: float = math.inf

    def __post_init__(self):
        s = self.anchor_stride
        if s < 2 or (s & (s - 1)) != 0:
            raise ConfigError(
                f"anchor_stride must be a power of two >= 2, got {s}")
        if not 1.0 <= self.alpha < math.inf:
            raise ConfigError(
                f"alpha must be finite and >= 1, got {self.alpha}")
        if not self.beta >= 1.0:
            raise ConfigError(f"beta must be >= 1, got {self.beta}")

    @property
    def n_levels(self) -> int:
        return self.anchor_stride.bit_length() - 1

    def resolved(self, ndim: int) -> "InterpSpec":
        """Fill per-axis defaults for an ``ndim``-dimensional input."""
        cubic = self.cubic_variant or tuple([CUBIC_NAK] * ndim)
        order = self.axis_order or tuple(range(ndim))
        if len(cubic) != ndim or len(order) != ndim:
            raise ConfigError("per-axis spec lengths do not match ndim")
        if sorted(order) != list(range(ndim)):
            raise ConfigError(f"axis_order {order} is not a permutation")
        if self.window_shape is not None:
            if len(self.window_shape) != ndim:
                raise ConfigError("window_shape rank mismatch")
            for w in self.window_shape:
                if w < 2:
                    raise ConfigError("window extents must be >= 2")
        return InterpSpec(anchor_stride=self.anchor_stride,
                          window_shape=self.window_shape,
                          cubic_variant=tuple(cubic),
                          axis_order=tuple(order),
                          alpha=self.alpha, beta=self.beta)

    def to_meta(self) -> dict:
        """JSON-serializable form for the container header."""
        return {
            "anchor_stride": self.anchor_stride,
            "window_shape": list(self.window_shape)
            if self.window_shape else None,
            "cubic_variant": list(self.cubic_variant),
            "axis_order": list(self.axis_order),
            "alpha": self.alpha,
            "beta": self.beta if math.isfinite(self.beta) else None,
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "InterpSpec":
        return cls(anchor_stride=int(meta["anchor_stride"]),
                   window_shape=tuple(meta["window_shape"])
                   if meta.get("window_shape") else None,
                   cubic_variant=tuple(meta["cubic_variant"]),
                   axis_order=tuple(meta["axis_order"]),
                   alpha=float(meta["alpha"]),
                   beta=float(meta["beta"])
                   if meta.get("beta") is not None else math.inf)


def level_error_bounds(eb: float, spec: InterpSpec) -> dict[int, float]:
    """Per-level absolute error bounds ``e_l = e / min(alpha^(l-1), beta)``."""
    return {lv: eb / min(spec.alpha ** (lv - 1), spec.beta)
            for lv in range(1, spec.n_levels + 1)}


@dataclass
class InterpResult:
    """Everything the pipeline needs after a compression traversal."""

    codes: np.ndarray            # uint32 quant-codes in pass order
    outliers: np.ndarray         # float32 compacted outlier values
    anchors: np.ndarray          # float32 anchor grid
    reconstructed: np.ndarray    # float64, what the decompressor will see
    pass_sizes: list[int] = field(default_factory=list)


#: header keys every interpolation decoder reads
HEADER_KEYS = ("shape", "dtype", "abs_eb", "radius", "spec")
#: value dtypes an interpolation stream can carry
_VALUE_DTYPES = ("float32", "float64")


def check_stream_header(meta: dict, alphabet_size: int,
                        extra_keys: tuple[str, ...] = ()
                        ) -> tuple[np.dtype, float, int, InterpSpec]:
    """Validate a decoder's scalar header fields and parse them.

    ``meta`` comes from an untrusted header and ``alphabet_size`` from
    the Huffman stream's own header, so both are checked before anything
    is decoded, compiled or allocated from them: every key in
    :data:`HEADER_KEYS` and ``extra_keys`` is present, the grid keys are
    lists (:func:`check_stream_geometry` checks their extents), the value
    dtype is float32 or float64, the error bound is a finite positive
    number, the radius is an int ``>= 2`` whose code alphabet
    (``2*radius``) is the stream's, and the spec parses and fits the
    shape's rank. Returns ``(dtype, abs_eb, radius, spec)``; raises
    :class:`~repro.common.errors.CorruptStreamError` on any violation.
    """
    if not isinstance(meta, dict):
        raise CorruptStreamError("header metadata is not a JSON object")
    missing = [k for k in (*HEADER_KEYS, *extra_keys) if k not in meta]
    if missing:
        raise CorruptStreamError(f"header is missing key(s) {missing}")
    for key in ("shape", "padded_shape"):
        if key in meta and not isinstance(meta[key], list):
            raise CorruptStreamError(f"header {key} is not a list")
    if meta["dtype"] not in _VALUE_DTYPES:
        raise CorruptStreamError(
            f"header dtype {meta['dtype']!r} is not one of {_VALUE_DTYPES}")
    abs_eb = meta["abs_eb"]
    if type(abs_eb) not in (int, float) or not (math.isfinite(abs_eb)
                                                and abs_eb > 0):
        raise CorruptStreamError(
            f"header error bound {abs_eb!r} is not a finite positive "
            f"number")
    radius = meta["radius"]
    if type(radius) is not int or radius < 2:
        raise CorruptStreamError(
            f"header radius {radius!r} is not an int >= 2")
    if alphabet_size != 2 * radius:
        raise CorruptStreamError(
            f"quant-code stream alphabet {alphabet_size} does not match "
            f"header radius {radius} (needs {2 * radius})")
    try:
        spec = InterpSpec.from_meta(meta["spec"])
        spec.resolved(len(meta["shape"]))
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise CorruptStreamError(f"header spec is invalid: {exc}") from exc
    return np.dtype(meta["dtype"]), float(abs_eb), radius, spec


def check_stream_geometry(shape, padded_shape, anchor_stride: int,
                          anchor_nbytes: int, itemsize: int,
                          n_codes: int) -> tuple[int, ...]:
    """Validate a decoder's header geometry against its segment sizes.

    ``shape``/``padded_shape`` come from an untrusted header, so they are
    checked before anything is compiled or allocated from them: every
    extent is a positive int and the padded extent covers the original
    one, the anchor segment holds exactly one value per anchor grid
    point, and the quant-code stream holds exactly one code per
    non-anchor point of the padded field. Returns the anchor grid shape;
    raises :class:`~repro.common.errors.CorruptStreamError` on any
    mismatch. All arithmetic is on Python ints, so absurd extents cannot
    overflow.
    """
    shape, padded_shape = list(shape), list(padded_shape)
    if not padded_shape or len(shape) != len(padded_shape):
        raise CorruptStreamError(
            f"header shape {shape} and padded shape {padded_shape} "
            f"disagree in rank")
    for n, m in zip(shape, padded_shape):
        if not all(type(v) is int and v >= 1 for v in (n, m)) or m < n:
            raise CorruptStreamError(
                f"header padded shape {padded_shape} is not a grid of "
                f"positive extents covering shape {shape}")
    anchor_shape = tuple(-(-m // anchor_stride) for m in padded_shape)
    n_anchors = math.prod(anchor_shape)
    if anchor_nbytes != n_anchors * itemsize:
        raise CorruptStreamError(
            f"anchor segment has {anchor_nbytes} bytes, geometry needs "
            f"{n_anchors} values of {itemsize} bytes")
    if n_codes != math.prod(padded_shape) - n_anchors:
        raise CorruptStreamError(
            f"quant-code stream has {n_codes} codes, padded shape "
            f"{padded_shape} needs {math.prod(padded_shape) - n_anchors}")
    return anchor_shape


#: the most one prediction can scale a magnitude: no spline class's
#: absolute weights sum to more than this (cubic natural: 52/40)
_GROWTH = float(np.abs(SPLINE_WEIGHTS).sum(axis=1).max())
#: the reconstruction bound :func:`_fits_float64` must stay under; half
#: the float64 range leaves room for rounding
_LOG_LIMIT = math.log(float(np.finfo(np.float64).max) / 2)


def _fits_float64(amax: float, eb: float, radius: int,
                  n_passes: int) -> bool:
    """Whether a traversal stays finite when it starts from values of
    magnitude at most ``amax`` (the anchors), stores outliers no larger,
    and runs ``n_passes`` passes at error bound ``eb`` and ``radius``.

    A pass predicts at most ``_GROWTH`` times the largest value so far
    and adds at most ``e = 2*radius*eb`` (every level's bound is at most
    ``eb``, as ``alpha, beta >= 1``), or stores an outlier. So after
    ``n`` passes no value exceeds ``G**n * amax + e*(G**n - 1)/(G - 1)``,
    which is below ``G**n * (amax + e/(G - 1))``. The test runs in log
    space, so absurd pass counts cannot overflow it.
    """
    g = _GROWTH
    return (n_passes * math.log(g)
            + math.log(amax + 2.0 * radius * eb / (g - 1.0)) < _LOG_LIMIT)


def check_stream_values(anchors: np.ndarray, outliers: np.ndarray,
                        abs_eb: float, radius: int,
                        spec: InterpSpec) -> None:
    """Reject a stream whose reconstruction could hold a non-finite value.

    Both segments are copied verbatim into the reconstruction, so a NaN
    or ±inf there would spread through every later prediction that reads
    it — also with a zero weight, as ``0.0 * inf`` is NaN — and how far
    it spreads depends on which neighbors a kernel multiplies. The same
    holds for a finite stream whose values or error bound are so large
    that the reconstruction overflows (:func:`_fits_float64`). The
    encoder never emits either (it rejects such input), so one is forged
    or corrupt. ``anchors`` has the anchor grid's shape. Raises
    :class:`~repro.common.errors.CorruptStreamError`.
    """
    amax = 0.0
    for name, values in (("anchor", anchors), ("outlier", outliers)):
        if not np.isfinite(values).all():
            raise CorruptStreamError(
                f"{name} segment holds "
                f"{int(values.size - np.isfinite(values).sum())} "
                f"non-finite value(s)")
        if values.size:
            amax = max(amax, float(np.abs(values).max()))
    if not _fits_float64(amax, abs_eb, radius,
                         anchors.ndim * spec.n_levels):
        raise CorruptStreamError(
            f"values up to {amax:.3g} with error bound {abs_eb:.3g} and "
            f"radius {radius} could overflow the reconstruction")


def _resolve_plan(shape: tuple[int, ...], spec: InterpSpec, plan):
    """The explicit ``plan`` validated against this call's geometry, or
    the LRU-cached plan for it."""
    if plan is None:
        return get_plan(shape, spec)
    key = _plan_key(shape, spec)
    if plan.key != key:
        raise ConfigError(
            f"pass plan was compiled for {plan.key}, not {key}")
    return plan


def _check_input(data: np.ndarray, eb: float, radius: int,
                 n_passes: int) -> None:
    """Reject NaN/Inf up front: a single non-finite sample poisons every
    prediction that (even with zero weight) gathers it — ``0.0 * inf``
    is NaN — and would silently destroy the whole field. Reject, too, a
    field so large against its error bound that the reconstruction could
    overflow (:func:`_fits_float64`): the decoders refuse such a stream.
    """
    if not data.size:
        return
    lo, hi = float(data.min()), float(data.max())   # NaN propagates
    if not (math.isfinite(lo) and math.isfinite(hi)):
        bad = int(data.size - np.isfinite(data).sum())
        raise DataError(
            f"interpolation input contains {bad} non-finite value(s) "
            f"(NaN/Inf); mask or filter them before compression")
    if not _fits_float64(max(-lo, hi), eb, radius, n_passes):
        raise DataError(
            f"interpolation input reaches {max(-lo, hi):.3g}; with error "
            f"bound {eb:.3g} the reconstruction could overflow float64")


def interp_compress(data: np.ndarray, spec: InterpSpec, eb: float,
                    quantizer: LinearQuantizer | None = None, *,
                    plan=None) -> InterpResult:
    """Run the full interpolation-compression traversal.

    ``data`` is the (possibly padded) float field; returns quant-codes in
    pass order, compacted outliers, the float32 anchor grid, and the exact
    reconstruction the decompressor will reproduce. ``plan`` is an
    explicit compiled plan for this geometry (default: the cached one).

    Each pass predicts, quantizes and reconstructs in one fused step:
    codes land straight in the preallocated stream, with no float
    residual intermediates.
    """
    spec = spec.resolved(data.ndim)
    quantizer = quantizer or LinearQuantizer()
    _check_input(data, eb, quantizer.radius, data.ndim * spec.n_levels)
    plan = _resolve_plan(data.shape, spec, plan)
    work = data.astype(np.float64, copy=True)
    anchors = extract_anchors(work, spec.anchor_stride,
                              quantizer.value_dtype)
    apply_anchors(work, anchors, spec.anchor_stride)

    ebs = level_error_bounds(eb, spec)
    outlier_parts: list[np.ndarray] = []
    sizes: list[int] = []
    cursor = 0
    codes = np.empty(plan.n_targets, dtype=np.uint32)
    # the multiply temporary is dead once a pass's prediction is made, so
    # it shares the quantizer's buffer (every group fits in max_targets)
    scr_pred, scr_ev, q_buf, r_buf = scratch(
        plan.max_targets, plan.max_staged, plan.max_targets,
        plan.max_targets)
    for step in plan.passes:
        p = step.desc
        n = step.n_targets
        sizes.append(int(n))
        # one span per level/axis pass, mirroring one GPU kernel launch
        with telemetry.span("ginterp.pass", level=p.level, axis=p.axis,
                            stride=p.stride, targets=int(n)):
            if n == 0:
                continue
            pred = step.predict(work, scr_pred, q_buf, scr_ev)
            recon, pass_outliers = quantizer.quantize_into(
                data[step.target_view], pred, ebs[p.level],
                codes[cursor:cursor + n], q_buf=q_buf, r_buf=r_buf)
            work[step.target_view] = recon
            outlier_parts.append(pass_outliers)
            cursor += n
            telemetry.observe("ginterp.pass_targets", n)

    outliers = (np.concatenate(outlier_parts) if outlier_parts
                else np.empty(0, np.float32))
    return InterpResult(codes=codes, outliers=outliers, anchors=anchors,
                        reconstructed=work, pass_sizes=sizes)


def interp_decompress(shape: tuple[int, ...], spec: InterpSpec, eb: float,
                      codes: np.ndarray, outliers: np.ndarray,
                      anchors: np.ndarray,
                      quantizer: LinearQuantizer | None = None, *,
                      plan=None) -> np.ndarray:
    """Replay :func:`interp_compress` from its outputs.

    Returns the float64 reconstruction, bit-identical to
    ``InterpResult.reconstructed``. Each pass predicts into scratch and
    dequantizes straight into its strided view of the returned array.
    Raises :class:`~repro.common.errors.CorruptStreamError` when the
    quant-code or outlier stream is shorter (or longer) than the traversal
    demands — truncated or padded input must fail loudly, not decode
    garbage.
    """
    spec = spec.resolved(len(shape))
    quantizer = quantizer or LinearQuantizer()
    plan = _resolve_plan(tuple(shape), spec, plan)
    work = np.zeros(shape, dtype=np.float64)
    apply_anchors(work, anchors.reshape(
        tuple(-(-n // spec.anchor_stride) for n in shape)),
        spec.anchor_stride)

    ebs = level_error_bounds(eb, spec)
    codes = np.asarray(codes)
    cursor = 0
    out_cursor = 0
    scr_pred, scr_ev, q_buf = scratch(
        plan.max_targets, plan.max_staged, plan.max_targets)
    for step in plan.passes:
        p = step.desc
        n = step.n_targets
        with telemetry.span("ginterp.pass", level=p.level, axis=p.axis,
                            stride=p.stride, targets=int(n)):
            if n == 0:
                continue
            if cursor + n > codes.size:
                raise CorruptStreamError(
                    f"quant-code stream exhausted at level {p.level} "
                    f"axis {p.axis}: pass needs {n} codes, "
                    f"{codes.size - cursor} remain")
            pred = step.predict(work, scr_pred, q_buf, scr_ev)
            out_cursor = quantizer.dequantize_into(
                codes[cursor:cursor + n], pred, ebs[p.level],
                work[step.target_view], outliers, out_cursor, q_buf=q_buf)
            cursor += n
    if cursor != codes.size:
        raise CorruptStreamError(
            f"quant-code stream has {codes.size - cursor} trailing "
            f"code(s) after the final pass")
    if out_cursor != outliers.size:
        raise CorruptStreamError(
            f"outlier stream has {outliers.size - out_cursor} trailing "
            f"value(s) after the final pass")
    return work
