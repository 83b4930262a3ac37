"""Compiled pass plans: precomputed geometry + whole-pass slice kernels.

The GPU kernels this engine mirrors (paper §V-A/§V-D) owe their speed to a
*fixed launch geometry*: the per-level/per-axis pass structure and the
33x9x9 shared-window neighbor layout are compile-time constants, so each
launch only moves data, and each thread applies its own target's spline
weights. :func:`compile_plan` hoists that geometry out of the hot path.
For one ``(shape, resolved InterpSpec)`` it precomputes, per pass:

* the target lattice as strided-view selectors, in the exact raveled
  block order of the uncompiled traversal (the test oracle in
  ``tests/oracles.py``), so quant-code streams stay byte-identical;
* the spline class of every target position along the pass axis;
* the **padded lattice**: every neighbor of every target lies on the
  complementary even lattice (``t = s*(2i+1)`` and odd offsets ``k``
  give ``t + k*s = 2s*(i + (k+1)/2)``). Each pass copies that lattice
  once into scratch, with one zero column before it and two after it
  along the pass axis. Neighbor ``k`` of target ``i`` is then column
  ``i + (k+3)/2``, so each neighbor of the whole pass is the plain slice
  ``[j, j+m)`` with ``j = (k+3)/2`` (``m`` targets): every read is in
  bounds, with no clipping and no gather;
* one **weight-row kernel** over that buffer: one multiply-add per
  neighbor over the whole block, with that neighbor's per-position
  weight row (one weight per target position, the spline weight of its
  class) broadcast across the other axes. The block is cut into
  cache-sized slabs along axis 0 (:data:`ROW_GROUP_ELEMENTS`), so each
  multiply temporary is still in cache when it is added. Where those
  slabs cut the pass axis itself, the periodic stretch of the classes is
  folded so that the slabs share one period of weight rows
  (:func:`_row_groups`). A neighbor whose weight is zero on every target
  of a slab is skipped.

Bit-exactness is non-negotiable and holds by construction. Every target
is computed by the same float64 accumulation the oracle runs — zero-init
then ``pred += w_k * neighbor_k`` over
:data:`~repro.core.ginterp.splines.NEIGHBOR_OFFSETS` in order, with the
same weight values and, wherever the weight is nonzero, the same operand.
The oracle multiplies its zero weights with clipped in-domain samples;
the kernel multiplies them with other samples or the zero padding, or
skips them (a whole all-zero row). Each is an identity for finite data
(the engine rejects NaN/Inf input, and the decoders reject streams whose
reconstruction could hold a non-finite value): an accumulator
seeded at ``+0.0`` can never become ``-0.0`` (a nonzero float64 sum has
magnitude at least the smallest subnormal, and ``+0.0 + ±0.0 == +0.0``),
so adding a zero-weight product ``±0.0`` never changes a bit. Nonzero
weight only ever sits on an in-domain neighbor (an available one, or
``t - s`` for the class a target with no available neighbor gets), so
no nonzero weight reads the padding.

Compiled passes are LRU-cached per process and assembled into plans on
demand (:func:`get_plan`). A pass is keyed on what compiling it reads
(:func:`_pass_key`): the shape, its stride, axis and entering steps, and
the window extent and cubic variant of its own axis. ``alpha``/``beta``
only scale error bounds and are never part of a key, so re-tuning the
same field at a new error bound, the decompress replay and every slab of
a stream rebuild nothing; and two tuned plans of one shape that differ
only in axis order, or in another axis's spline, share the passes they
have in common. A 3D shape has at most 72 distinct passes across its 48
(axis order x variant) plans. Passes are not all small: a 2D or 3D
plan's weight rows hold 10-20 KB, but a 1D plan's about 2 MB (a 1D
pass that fits one slab keeps one weight per target and neighbor), so
the cache is bounded in passes (:func:`set_plan_cache_limit`).
Hit/miss counters are exported via the cache registry
(:mod:`repro.telemetry.caches`) and :func:`plan_cache_stats`.
"""

from __future__ import annotations

import functools
import math
import mmap
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.telemetry import caches
from repro.common.errors import ConfigError
from repro.core.ginterp.splines import (NEIGHBOR_OFFSETS, SPLINE_WEIGHTS,
                                        classify)

__all__ = ["PassDesc", "pass_plan", "FusedGroup", "CompiledPass", "PassPlan",
           "compile_plan", "get_plan", "plan_cache_stats", "scratch",
           "clear_plan_cache", "set_plan_cache_limit"]

#: the kernel works through its block in slabs along axis 0 of about this
#: many elements (256 KiB), so each slab's multiply temporary and
#: prediction stay in cache between its multiply-adds
ROW_GROUP_ELEMENTS = 32768
#: a folded slab repeats a weight unit of at least this many
#: targets, so its broadcast inner loop stays long
_FOLD_MIN = 256


@dataclass(frozen=True)
class PassDesc:
    """One interpolation pass: all targets at ``stride`` along ``axis``."""

    level: int                 # 1-based; stride == 2**(level-1)
    stride: int
    axis: int
    steps: tuple[int, ...]     # per-axis sampling step *entering* this pass


def pass_plan(ndim: int, spec) -> list[PassDesc]:
    """The deterministic pass sequence for an ``ndim``-D input.

    Levels run coarse to fine (stride ``anchor_stride/2`` down to 1); inside
    each level axes run in ``spec.axis_order``. The per-axis step tuple
    captures which samples are already known when the pass starts.
    """
    return list(_pass_descs(ndim, spec.anchor_stride,
                            tuple(spec.axis_order)))


@functools.lru_cache(maxsize=256)
def _pass_descs(ndim: int, anchor_stride: int,
                axis_order: tuple[int, ...]) -> tuple[PassDesc, ...]:
    """:func:`pass_plan`, memoized: building the frozen descriptors
    costs more than assembling a plan from cached passes."""
    passes: list[PassDesc] = []
    s = anchor_stride // 2
    while s >= 1:
        steps = [2 * s] * ndim
        for ax in axis_order:
            passes.append(PassDesc(level=s.bit_length(), stride=s, axis=ax,
                                   steps=tuple(steps)))
            steps[ax] = s
        s //= 2
    return tuple(passes)


def _axis_indices(shape: tuple[int, ...], p: PassDesc) -> list[np.ndarray]:
    """Per-axis sample positions making up this pass's target grid."""
    out = []
    for ax, n in enumerate(shape):
        if ax == p.axis:
            out.append(np.arange(p.stride, n, 2 * p.stride, dtype=np.int64))
        else:
            out.append(np.arange(0, n, p.steps[ax], dtype=np.int64))
    return out


def _class_1d(t: np.ndarray, n: int, s: int, window: int | None,
              cubic_variant: int) -> np.ndarray:
    """Spline class per target position along the interpolation axis."""
    avail = {}
    if window is not None:
        wstep = window - 1
        lo = (t // wstep) * wstep
        hi = np.minimum(lo + wstep, n - 1)
    for k in NEIGHBOR_OFFSETS:
        pos = t + k * s
        ok = (pos >= 0) & (pos <= n - 1)
        if window is not None:
            ok &= (pos >= lo) & (pos <= hi)
        avail[k] = ok
    return classify(avail[-3], avail[-1], avail[1], avail[3], cubic_variant)


@dataclass(frozen=True)
class FusedGroup:
    """One slab of a pass, predicted by one multiply-add per neighbor.

    ``target_sel`` selects the slab inside the block-shaped prediction
    buffer; ``sources[j]`` selects its targets' ``j``-th live neighbor in
    the pass's padded lattice; ``weights[j]`` is that neighbor's
    per-position weight row, which broadcasts across the slab;
    ``shape``/``size`` describe the slab. A ``folded`` slab is contiguous,
    and the kernel views it as ``shape`` (``(k, unit, ...)``), so that one
    unit of weight rows broadcasts over its ``k`` repeats.
    """

    target_sel: tuple[slice, ...]
    sources: tuple[tuple[slice, ...], ...]
    weights: tuple[np.ndarray, ...]
    shape: tuple[int, ...]
    size: int
    folded: bool = False


class CompiledPass:
    """Precompiled geometry + kernel for one interpolation pass.

    ``target_view`` addresses the pass's target lattice as plain slices of
    the work array — targets along the interpolation axis are
    ``stride::2*stride`` and ``0::step`` on every other axis — so the
    quantize gather and the reconstruction scatter are strided view ops,
    not int64 fancy indexing. ``ev_sel`` addresses the complementary even
    lattice in the work array and ``ev_dst`` its place inside the padded
    buffer of shape ``pad_shape``; ``pad_sels`` are the zero columns.
    """

    __slots__ = ("desc", "block_shape", "target_view", "n_targets",
                 "groups", "ev_sel", "ev_dst", "pad_sels",
                 "pad_shape", "pad_size", "nbytes", "compile_s")

    def __init__(self, desc, block_shape, target_view, groups,
                 ev_sel, ev_dst, pad_sels, pad_shape, nbytes, compile_s):
        self.desc = desc
        self.block_shape = block_shape
        self.target_view = target_view
        self.n_targets = math.prod(block_shape)
        self.groups = groups          # tuple[FusedGroup, ...]
        self.ev_sel = ev_sel
        self.ev_dst = ev_dst
        self.pad_sels = pad_sels
        self.pad_shape = pad_shape
        self.pad_size = math.prod(pad_shape)
        self.nbytes = nbytes          # weight rows held by the plan
        self.compile_s = compile_s

    def predict(self, work: np.ndarray, pred_buf: np.ndarray,
                mul_buf: np.ndarray, ev_buf: np.ndarray) -> np.ndarray:
        """Predictions for every pass target, in flat (block) order.

        Bit-identical to the oracle's gather traversal (see the module
        docstring). ``pred_buf``/``mul_buf``/``ev_buf`` are scratch views
        of at least ``n_targets``/``n_targets``/``pad_size`` elements;
        ``mul_buf`` is dead once this returns. The returned prediction is
        a view of ``pred_buf``. Staging only *copies* values, so it cannot
        change any bit of the accumulation.
        """
        pred = pred_buf[:self.n_targets]
        pred.fill(0.0)
        ev = ev_buf[:self.pad_size].reshape(self.pad_shape)
        for sel in self.pad_sels:
            ev[sel] = 0.0
        np.copyto(ev[self.ev_dst], work[self.ev_sel])
        pred_nd = pred.reshape(self.block_shape)
        for g in self.groups:
            sub = pred_nd[g.target_sel]
            if g.folded:    # a view: folded slabs are contiguous
                sub = sub.reshape(g.shape)
            buf = mul_buf[:g.size].reshape(g.shape)
            for w, src in zip(g.weights, g.sources):
                n = ev[src]
                np.multiply(n.reshape(g.shape) if g.folded else n, w,
                            out=buf)
                sub += buf
        return pred


@dataclass(frozen=True)
class PassPlan:
    """A fully compiled traversal for one ``(shape, geometry)`` pair."""

    shape: tuple[int, ...]
    key: tuple
    passes: tuple[CompiledPass, ...]
    compile_s: float

    @property
    def n_targets(self) -> int:
        return sum(cp.n_targets for cp in self.passes)

    @property
    def nbytes(self) -> int:
        return sum(cp.nbytes for cp in self.passes)

    @property
    def max_targets(self) -> int:
        return max((cp.n_targets for cp in self.passes), default=0)

    @property
    def max_staged(self) -> int:
        """Elements of the widest pass's padded lattice."""
        return max((cp.pad_size for cp in self.passes), default=0)


# -- per-thread scratch arena ----------------------------------------------

_arena = threading.local()


def scratch(*sizes: int) -> tuple[np.ndarray, ...]:
    """Disjoint float64 views of this thread's scratch arena, one per size.

    Both traversals carve their per-pass buffers (prediction, padded
    lattice, rounding, reconstruction) from one buffer per thread that
    grows to the largest total seen so far and is then reused by every
    call, whatever its plan: a warm traversal allocates no scratch and
    touches no fresh pages. Per thread, not per plan, so the memory held
    is one widest traversal per thread rather than one per cached plan.
    The views stay valid until the thread's next ``scratch`` call.

    The arena is its own anonymous memory mapping rather than a malloc
    block: a long-lived block carved from the malloc heap splits its free
    space, and the allocator then trims and regrows the heap around it on
    every call — thousands of fresh-page faults per 96³ compress. The
    mapping is private, so a forked worker never writes its parent's
    scratch.
    """
    total = sum(sizes)
    buf = getattr(_arena, "buf", None)
    if buf is None or buf.size < total:
        mapping = mmap.mmap(-1, max(total, 1) * 8,
                            flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        buf = _arena.buf = np.frombuffer(mapping, dtype=np.float64)
    views, at = [], 0
    for n in sizes:
        views.append(buf[at:at + n])
        at += n
    return tuple(views)


def _lattice_slice(idx: np.ndarray) -> slice:
    """The equally-spaced index array ``idx`` as an equivalent slice."""
    if idx.size == 1:
        return slice(int(idx[0]), int(idx[0]) + 1, 1)
    step = int(idx[1] - idx[0])
    if not np.all(np.diff(idx) == step):  # pragma: no cover - by construction
        raise ConfigError("pass targets do not form a regular lattice")
    return slice(int(idx[0]), int(idx[-1]) + 1, step)


def _weight_rows(cls: np.ndarray, n_after: int
                 ) -> list[tuple[int, np.ndarray]]:
    """``(padded-lattice column, weight row)`` of every neighbor with a
    nonzero weight on some target of classes ``cls``; each row has one
    weight per target and ``n_after`` broadcast axes."""
    rows = []
    for j, k in enumerate(NEIGHBOR_OFFSETS):
        row = SPLINE_WEIGHTS[cls, j]
        if row.any():           # an all-zero row is an identity; skip
            row = row.reshape((cls.size,) + (1,) * n_after)
            row.setflags(write=False)
            rows.append(((k + 3) // 2, row))
    return rows


def _periodic_core(cls1d: np.ndarray, period: int) -> tuple[int, int]:
    """The longest ``[a, b)`` of whole periods over which ``cls1d``
    repeats with ``period``; ``(0, 0)`` if shorter than two periods."""
    same = np.concatenate(([False], cls1d[period:] == cls1d[:-period],
                           [False]))
    edges = np.flatnonzero(same[1:] != same[:-1])
    if not edges.size:
        return 0, 0
    starts, stops = edges[::2], edges[1::2]
    i = int(np.argmax(stops - starts))
    a = int(starts[i])
    n = (int(stops[i]) + period - a) // period * period
    return (a, a + n) if n >= 2 * period else (0, 0)


def _row_groups(block_shape: tuple[int, ...], ax: int, cls1d: np.ndarray,
                period: int) -> tuple[list[FusedGroup], int]:
    """The kernel's groups: cache-sized slabs of the block along
    axis 0, and the bytes of weight rows they hold.

    On a later pass axis every slab shares the pass's weight rows. On
    axis 0 the slabs cut the pass axis itself, so one row per target
    would grow with the extent. A pass that needs more than one slab
    there folds the stretch over which its classes repeat (every
    ``period`` targets, the window's) to ``(k, unit, ...)`` slabs that
    share one ``unit`` of weight rows; only its irregular ends (domain
    boundary, truncated last window) get rows of their own.
    """
    ndim, m = len(block_shape), block_shape[ax]
    n_after = ndim - ax - 1
    step = max(1, ROW_GROUP_ELEMENTS // math.prod(block_shape[1:]))
    groups, nbytes = [], 0

    def add(r0, r1, rows, cols, shape, folded=False):
        groups.append(FusedGroup((slice(r0, r1),), tuple(cols),
                                 tuple(row for _, row in rows), shape,
                                 math.prod(shape), folded))

    if ax > 0:
        rows = _weight_rows(cls1d, n_after)
        nbytes = sum(row.nbytes for _, row in rows)
        inner = (slice(None),) * (ax - 1)
        for r0 in range(0, block_shape[0], step):
            r1 = min(r0 + step, block_shape[0])
            add(r0, r1, rows, [(slice(r0, r1),) + inner
                               + (slice(col, col + m),) for col, _ in rows],
                (r1 - r0,) + block_shape[1:])
        return groups, nbytes
    a = b = unit = 0
    if m > step:
        unit = period * -(-_FOLD_MIN // period)
        a, b = _periodic_core(cls1d, unit)
    for lo, hi, fold in ((0, a, 0), (a, b, unit), (b, m, 0)):
        if fold:
            rows = _weight_rows(cls1d[lo:lo + fold], n_after)
            nbytes += sum(row.nbytes for _, row in rows)
        chunk = max(1, step // fold) * fold if fold else step
        for r0 in range(lo, hi, chunk):
            r1 = min(r0 + chunk, hi)
            if not fold:
                rows = _weight_rows(cls1d[r0:r1], n_after)
                nbytes += sum(row.nbytes for _, row in rows)
            shape = ((r1 - r0) // fold, fold) if fold else (r1 - r0,)
            add(r0, r1, rows, [(slice(r0 + col, r1 + col),)
                               for col, _ in rows], shape + block_shape[1:],
                bool(fold))
    return groups, nbytes


def _compile_pass(shape: tuple[int, ...], spec, p) -> CompiledPass:
    """Precompute one pass's targets, padded lattice and kernel."""
    t0 = time.perf_counter()
    ndim, ax = len(shape), p.axis
    axes_idx = _axis_indices(shape, p)
    if any(a.size == 0 for a in axes_idx):
        empty = tuple(slice(0, 0, 1) for _ in range(ndim))
        return CompiledPass(p, (0,) * ndim, empty, (), empty,
                            empty, (), (0,) * ndim, 0,
                            time.perf_counter() - t0)
    block_shape = tuple(a.size for a in axes_idx)
    # every pass's target set is itself a regular lattice, so the quantize
    # gather / reconstruction scatter compile to strided views
    target_view = tuple(_lattice_slice(idx) for idx in axes_idx)
    window = spec.window_shape[ax] if spec.window_shape else None
    cls1d = _class_1d(axes_idx[ax], shape[ax], p.stride, window,
                      spec.cubic_variant[ax])

    def along(sl: slice) -> tuple[slice, ...]:
        """``sl`` on the pass axis, everything on the others."""
        return (slice(None),) * ax + (sl,) + (slice(None),) * (ndim - ax - 1)

    ev_sel = tuple(slice(0, shape[ax], 2 * p.stride) if a == ax
                   else slice(0, n, p.steps[a]) for a, n in enumerate(shape))
    n_even = len(range(0, shape[ax], 2 * p.stride))     # m or m + 1
    pad_shape = block_shape[:ax] + (n_even + 3,) + block_shape[ax + 1:]
    pad_sels = (along(slice(0, 1)), along(slice(n_even + 1, n_even + 3)))
    period = 1 if window is None else \
        (window - 1) // math.gcd(window - 1, 2 * p.stride)
    groups, nbytes = _row_groups(block_shape, ax, cls1d, period)
    return CompiledPass(p, block_shape, target_view, tuple(groups),
                        ev_sel, along(slice(1, n_even + 1)), pad_sels,
                        pad_shape, nbytes, time.perf_counter() - t0)


def _plan_key(shape: tuple[int, ...], spec) -> tuple:
    """Geometry-only plan identity (``PassPlan.key``): ``alpha``/``beta``
    scale error bounds but never change addressing, so a plan serves
    every error bound of its geometry."""
    return (tuple(shape), spec.anchor_stride, spec.window_shape,
            spec.cubic_variant, spec.axis_order)


def _pass_key(shape: tuple[int, ...], spec, p: PassDesc) -> tuple:
    """What :func:`_compile_pass` reads: the pass's lattice and the
    window and spline of its own axis, nothing of the other axes."""
    window = spec.window_shape[p.axis] if spec.window_shape else None
    return (shape, p.stride, p.axis, p.steps, window,
            spec.cubic_variant[p.axis])


def compile_plan(shape: tuple[int, ...], spec) -> PassPlan:
    """Compile the full pass plan for ``(shape, spec)`` (uncached)."""
    shape = tuple(int(n) for n in shape)
    spec = spec.resolved(len(shape))
    t0 = time.perf_counter()
    with telemetry.span("ginterp.plan_compile", shape=list(shape)) as sp:
        passes = tuple(_compile_pass(shape, spec, p)
                       for p in pass_plan(len(shape), spec))
        plan = PassPlan(shape=shape, key=_plan_key(shape, spec),
                        passes=passes,
                        compile_s=time.perf_counter() - t0)
        sp.set(n_passes=len(passes), plan_nbytes=plan.nbytes)
    return plan


# -- per-process pass cache -------------------------------------------------

#: compiled passes kept per process. Mixed-shape batches tune many axis
#: orders and splines per shape, and those plans share most passes: the
#: ``archive-mixed`` bench workload (8 shapes, 3 error bounds) needs 52
#: plans but only 168 distinct passes at seed 1
_DEFAULT_CACHE_LIMIT = 168

_cache_lock = threading.Lock()
_pass_cache: OrderedDict[tuple, CompiledPass] = OrderedDict()
_cache_stats = {"hits": 0, "misses": 0, "evictions": 0}
_cache_limit = _DEFAULT_CACHE_LIMIT
#: running ``CompiledPass.nbytes`` total of the cached passes, so a
#: registry snapshot never walks the entries
_cache_bytes = 0


def _evict_over_limit() -> None:
    """Drop least-recently-used passes past the limit (lock held)."""
    global _cache_bytes
    while len(_pass_cache) > _cache_limit:
        _, evicted = _pass_cache.popitem(last=False)
        _cache_bytes -= evicted.nbytes
        _cache_stats["evictions"] += 1


def get_plan(shape: tuple[int, ...], spec) -> PassPlan:
    """The plan for ``(shape, spec)``, assembled from cached passes.

    Each pass is compiled once per process and shared by every plan
    that runs it (:func:`_pass_key`). A call that compiles no pass counts
    as a cache hit, one that compiles any as a miss.
    """
    global _cache_bytes
    shape = tuple(int(n) for n in shape)
    spec = spec.resolved(len(shape))
    descs = _pass_descs(len(shape), spec.anchor_stride, spec.axis_order)
    keys = [_pass_key(shape, spec, p) for p in descs]
    with _cache_lock:
        passes = [_pass_cache.get(k) for k in keys]
        for k, cp in zip(keys, passes):
            if cp is not None:
                _pass_cache.move_to_end(k)
        if None not in passes:
            _cache_stats["hits"] += 1
    t0 = time.perf_counter()
    if None in passes:
        with telemetry.span("ginterp.plan_compile",
                            shape=list(shape)) as sp:
            fresh = {}
            for n, p in enumerate(descs):
                if passes[n] is None:
                    passes[n] = fresh[keys[n]] = _compile_pass(shape, spec,
                                                               p)
            sp.set(n_passes=len(fresh),
                   plan_nbytes=sum(cp.nbytes for cp in fresh.values()))
        with _cache_lock:
            _cache_stats["misses"] += 1
            for k, cp in fresh.items():
                # a racing miss on the same key replaces the pass it
                # inserted
                old = _pass_cache.pop(k, None)
                if old is not None:
                    _cache_bytes -= old.nbytes
                _pass_cache[k] = cp
                _cache_bytes += cp.nbytes
            _evict_over_limit()
    return PassPlan(shape=shape, key=_plan_key(shape, spec),
                    passes=tuple(passes),
                    compile_s=time.perf_counter() - t0)


def plan_cache_stats() -> dict[str, int]:
    """Snapshot of the pass cache: ``hits``/``misses`` count
    :func:`get_plan` calls, ``size``/``limit``/``evictions`` passes."""
    with _cache_lock:
        return {**_cache_stats, "size": len(_pass_cache),
                "limit": _cache_limit,
                "size_bytes": _cache_bytes}


def clear_plan_cache() -> None:
    """Drop every cached pass and reset the counters (mainly for tests)."""
    global _cache_bytes
    with _cache_lock:
        _pass_cache.clear()
        _cache_bytes = 0
        _cache_stats["hits"] = 0
        _cache_stats["misses"] = 0
        _cache_stats["evictions"] = 0


def set_plan_cache_limit(limit: int) -> int:
    """Resize the pass cache, in passes (returns the previous limit)."""
    global _cache_limit
    if limit < 1:
        raise ConfigError(f"plan cache limit must be >= 1, got {limit}")
    with _cache_lock:
        old = _cache_limit
        _cache_limit = int(limit)
        _evict_over_limit()
    return old


caches.register("ginterp.plan", plan_cache_stats)
