"""Compiled pass plans: precomputed geometry + fused slice kernels.

The GPU kernels this engine mirrors (paper §V-A/§V-D) owe their speed to a
*fixed launch geometry*: the per-level/per-axis pass structure and the
33x9x9 shared-window neighbor layout are compile-time constants, so each
launch only moves data. The NumPy engine used to rebuild all of that
geometry — per-axis index grids, flat target blocks, spline classification,
class broadcasts, and four full-size clipped neighbor index arrays — on
*every* traversal, even though it depends only on ``(shape, spec)``.

:func:`compile_plan` hoists that work out of the hot path. For one
``(shape, resolved InterpSpec)`` it precomputes, per pass:

* the target lattice as strided-view selectors, in the exact raveled
  block order of the reference path (the test oracle in
  ``tests/oracles.py``), so quant-code streams stay byte-identical — but
  gathered and scattered through plain slices instead of int64 fancy
  indexing;
* the spline-class partition along the interpolation axis;
* **fused slice groups** — maximal runs of targets sharing one spline
  class. Each run's neighbors sit on strided lattices
  (``work[..., t0+k*s : ... : 2*s, ...]``), so prediction is a few
  scalar-weight multiply-adds over array *views*: no flat index arrays,
  no ``np.clip``, no per-neighbor gather;
* a precompiled **gather tail** for whatever the slices do not cover
  (class-change singletons on blocks too small to amortize a slice op):
  clipped neighbor indices and per-target weight rows are baked into the
  plan, so execution is four gathers and four multiply-adds.

Bit-exactness is non-negotiable and holds by construction. Every target is
computed by the same float64 accumulation the reference path runs —
zero-init then ``pred += w_k * neighbor_k`` over
:data:`~repro.core.ginterp.splines.NEIGHBOR_OFFSETS` in order, with the
same weight values and operands. The fused kernels *skip* zero-weight
neighbors, which cannot change any bit of the result for finite inputs
(the engine rejects NaN/Inf up front): an accumulator seeded at ``+0.0``
can never become ``-0.0`` (a nonzero float64 sum has magnitude at least
the smallest subnormal, and ``+0.0 + ±0.0 == +0.0``), so adding a
zero-weight product ``±0.0`` is always an identity. Skipping them also
means a fused run only ever touches *available* neighbors — the spline
table puts nonzero weight only on in-domain samples — so the reference
path's ``np.clip`` has nothing to do on the fused majority; the clipped
(weight-zero) gathers survive verbatim in the gather tail.

Plans are LRU-cached per process (:func:`get_plan`), keyed on the geometry
``(shape, anchor_stride, window_shape, cubic_variant, axis_order)`` —
``alpha``/``beta`` only scale error bounds and are deliberately excluded,
so re-tuning the same field at a new error bound, the decompress replay,
every slab of a stream, and every same-shape field of a batch all hit the
same compiled plan. Hit/miss counters are exported via the cache
registry (:mod:`repro.telemetry.caches`) and :func:`plan_cache_stats`.
"""

from __future__ import annotations

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

#: a run is fused only when it covers at least this many block elements;
#: below that the per-slice call overhead costs more than one batched
#: gather over the (precompiled) tail
_MIN_FUSED_ELEMENTS = 64


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
    passes: list[PassDesc] = []
    s = spec.anchor_stride // 2
    while s >= 1:
        steps = [2 * s] * ndim
        for ax in spec.axis_order:
            passes.append(PassDesc(level=s.bit_length(), stride=s, axis=ax,
                                   steps=tuple(steps)))
            steps[ax] = s
        s //= 2
    return passes


def _axis_indices(shape: tuple[int, ...], p: PassDesc) -> list[np.ndarray]:
    """Per-axis sample positions making up this pass's target grid."""
    out = []
    for ax, n in enumerate(shape):
        if ax == p.axis:
            out.append(np.arange(p.stride, n, 2 * p.stride, dtype=np.int64))
        else:
            out.append(np.arange(0, n, p.steps[ax], dtype=np.int64))
    return out


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
    """One maximal run of same-class targets, predicted through views.

    ``target_sel`` selects the run inside the block-shaped prediction
    buffer; ``sources[j]`` selects the run targets' ``j``-th
    *nonzero-weight* neighbor as a strided view of the work array;
    ``weights[j]`` is that neighbor's spline weight as a scalar;
    ``shape``/``size`` describe the run's sub-block.
    """

    target_sel: tuple[slice, ...]
    sources: tuple[tuple[slice, ...], ...]
    weights: tuple[float, ...]
    shape: tuple[int, ...]
    size: int
    #: the same sources re-based onto the pass's staged even-lattice buffer
    #: (unit stride along the pass axis); ``None`` when not alignable
    staged: tuple[tuple[slice, ...], ...] | None = None


class CompiledPass:
    """Precompiled geometry + kernel for one interpolation pass.

    ``target_view`` addresses the pass's target lattice as plain slices of
    the work array — targets along the interpolation axis are
    ``stride::2*stride`` and ``0::step`` on every other axis — so the
    quantize gather and the reconstruction scatter are strided view ops,
    not int64 fancy indexing.
    """

    __slots__ = ("desc", "block_shape", "target_view", "n_targets",
                 "groups", "ev_sel", "ev_shape", "ev_size",
                 "b_sel", "b_gather", "b_w", "compile_s")

    def __init__(self, desc, block_shape, target_view, n_targets, groups,
                 ev_sel, ev_shape, ev_size, b_sel, b_gather, b_w,
                 compile_s):
        self.desc = desc
        self.block_shape = block_shape
        self.target_view = target_view
        self.n_targets = n_targets
        self.groups = groups          # tuple[FusedGroup, ...]
        self.ev_sel = ev_sel          # even-lattice staging selector
        self.ev_shape = ev_shape
        self.ev_size = ev_size
        self.b_sel = b_sel            # int64 positions within the block
        self.b_gather = b_gather      # (4, nb) clipped work_flat indices
        self.b_w = b_w                # (4, nb) per-target weights
        self.compile_s = compile_s

    @property
    def n_boundary(self) -> int:
        return int(self.b_sel.size)

    @property
    def max_group(self) -> int:
        return max((g.size for g in self.groups), default=0)

    @property
    def nbytes(self) -> int:
        return (self.b_sel.nbytes + self.b_gather.nbytes
                + self.b_w.nbytes)

    def predict(self, work: np.ndarray, work_flat: np.ndarray,
                pred_buf: np.ndarray, mul_buf: np.ndarray,
                ev_buf: np.ndarray) -> np.ndarray:
        """Predictions for every pass target, in flat (block) order.

        Bit-identical to the reference gather path: each element runs the
        same zero-init + float64 multiply-add accumulation over
        :data:`NEIGHBOR_OFFSETS`, with identical operands (zero-weight
        terms skipped — an identity on the accumulation for finite data).
        ``pred_buf``/``mul_buf``/``ev_buf`` are scratch views sized for
        the widest pass (see :func:`scratch`); the returned prediction is
        a view of ``pred_buf``. Staging only *copies* values, so it cannot
        change any bit of the accumulation.
        """
        pred = pred_buf[:self.n_targets]
        pred.fill(0.0)
        if self.groups:
            staged = None
            if self.ev_size and any(g.staged is not None
                                    for g in self.groups):
                # neighbors all live on the complementary even lattice;
                # staging it once makes every neighbor read unit-stride
                staged = ev_buf[:self.ev_size].reshape(self.ev_shape)
                np.copyto(staged, work[self.ev_sel])
            pred_nd = pred.reshape(self.block_shape)
            for g in self.groups:
                sub = pred_nd[g.target_sel]
                buf = mul_buf[:g.size].reshape(g.shape)
                if staged is not None and g.staged is not None:
                    for w, src in zip(g.weights, g.staged):
                        np.multiply(staged[src], w, out=buf)
                        sub += buf
                else:
                    for w, src in zip(g.weights, g.sources):
                        np.multiply(work[src], w, out=buf)
                        sub += buf
        if self.b_sel.size:
            pb = np.zeros(self.b_sel.size, dtype=np.float64)
            for j in range(len(NEIGHBOR_OFFSETS)):
                pb += self.b_w[j] * work_flat[self.b_gather[j]]
            pred[self.b_sel] = pb
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
    def n_fused(self) -> int:
        return sum(cp.n_targets - cp.n_boundary for cp in self.passes)

    @property
    def n_gather(self) -> int:
        return sum(cp.n_boundary for cp in self.passes)

    @property
    def nbytes(self) -> int:
        return sum(cp.nbytes for cp in self.passes)

    @property
    def max_targets(self) -> int:
        return max((cp.n_targets for cp in self.passes), default=0)

    @property
    def max_group(self) -> int:
        return max((cp.max_group for cp in self.passes), default=0)

    @property
    def max_staged(self) -> int:
        return max((cp.ev_size for cp in self.passes), default=0)


# -- per-thread scratch arena ----------------------------------------------

_arena = threading.local()


def scratch(*sizes: int) -> tuple[np.ndarray, ...]:
    """Disjoint float64 views of this thread's scratch arena, one per size.

    Both traversals carve their per-pass buffers (prediction, multiply,
    staging, rounding, reconstruction) from one buffer per thread that
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


_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_GATHER = np.empty((len(NEIGHBOR_OFFSETS), 0), dtype=np.int64)
_EMPTY_W = np.empty((len(NEIGHBOR_OFFSETS), 0), dtype=np.float64)
for _a in (_EMPTY_I64, _EMPTY_GATHER, _EMPTY_W):
    _a.setflags(write=False)


def _lattice_slice(idx: np.ndarray) -> slice:
    """The equally-spaced index array ``idx`` as an equivalent slice."""
    if idx.size == 1:
        return slice(int(idx[0]), int(idx[0]) + 1, 1)
    step = int(idx[1] - idx[0])
    if not np.all(np.diff(idx) == step):  # pragma: no cover - by construction
        raise ConfigError("pass targets do not form a regular lattice")
    return slice(int(idx[0]), int(idx[-1]) + 1, step)


def _class_runs(cls1d: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of constant class as ``[start, stop)`` pairs."""
    change = np.flatnonzero(np.diff(cls1d)) + 1
    bounds = [0, *change.tolist(), cls1d.size]
    return list(zip(bounds[:-1], bounds[1:]))


def _compile_pass(shape: tuple[int, ...], spec, p) -> CompiledPass:
    """Precompute one pass's targets, class partition, and kernels."""
    t0 = time.perf_counter()
    ndim = len(shape)
    axes_idx = _axis_indices(shape, p)
    t = axes_idx[p.axis]
    if t.size == 0 or any(a.size == 0 for a in axes_idx):
        empty_view = tuple(slice(0, 0, 1) for _ in range(ndim))
        return CompiledPass(p, (0,) * ndim, empty_view, 0, (), empty_view,
                            (0,) * ndim, 0, _EMPTY_I64, _EMPTY_GATHER,
                            _EMPTY_W, time.perf_counter() - t0)
    flat_nd = _flat_block(axes_idx, shape)
    block_shape = flat_nd.shape
    flat = np.ascontiguousarray(flat_nd.ravel())
    # every pass's target set is itself a regular lattice, so the quantize
    # gather / reconstruction scatter compile to strided views
    target_view = tuple(_lattice_slice(idx) for idx in axes_idx)

    window = spec.window_shape[p.axis] if spec.window_shape else None
    cubic = spec.cubic_variant[p.axis]
    cls1d = _class_1d(t, shape[p.axis], p.stride, window, cubic)

    m = t.size
    n = shape[p.axis]
    block_other = flat.size // m
    covered = np.zeros(m, dtype=bool)
    s = p.stride
    # every neighbor of every target lies on the complementary even
    # lattice (t = s*(2i+1), offsets odd => t + k*s = 2s*j), so one staged
    # copy of that lattice turns all neighbor reads unit-stride
    ev_sel = []
    for ax in range(ndim):
        if ax == p.axis:
            ev_sel.append(slice(0, n, 2 * s))
        else:
            ev_sel.append(slice(0, shape[ax], p.steps[ax]))
    ev_sel = tuple(ev_sel)
    ev_shape = list(block_shape)
    ev_shape[p.axis] = len(range(0, n, 2 * s))
    ev_shape = tuple(ev_shape)
    groups = []
    n_fused = 0
    for a, b in _class_runs(cls1d):
        if (b - a) * block_other < _MIN_FUSED_ELEMENTS:
            continue            # too small to amortize a slice op
        cls = int(cls1d[a])
        weights = []
        sources = []
        staged_srcs = []
        in_domain = True
        for j, k in enumerate(NEIGHBOR_OFFSETS):
            w = float(SPLINE_WEIGHTS[cls, j])
            if w == 0.0:
                continue        # identity on the accumulation; skip
            start = int(t[a]) + k * s
            stop = int(t[b - 1]) + k * s + 1
            if start < 0 or stop > n:
                # nonzero weight always sits on an available (in-domain)
                # neighbor; this guard only ever fires on configurations
                # the classifier promises not to produce
                in_domain = False
                break
            src = []
            for ax in range(ndim):
                if ax == p.axis:
                    src.append(slice(start, stop, 2 * s))
                else:
                    src.append(slice(0, shape[ax], p.steps[ax]))
            weights.append(w)
            sources.append(tuple(src))
            if staged_srcs is not None and start % (2 * s) == 0:
                st = list(src)
                st[p.axis] = slice(start // (2 * s),
                                   start // (2 * s) + (b - a), 1)
                st[p.axis + 1:] = [slice(None)] * (ndim - p.axis - 1)
                for ax in range(p.axis):
                    st[ax] = slice(None)
                staged_srcs.append(tuple(st))
            else:
                staged_srcs = None
        if not in_domain:
            continue
        covered[a:b] = True
        n_fused += b - a
        tsel = [slice(None)] * ndim
        tsel[p.axis] = slice(a, b)
        run_shape = list(block_shape)
        run_shape[p.axis] = b - a
        groups.append(FusedGroup(tuple(tsel), tuple(sources),
                                 tuple(weights), tuple(run_shape),
                                 math.prod(run_shape),
                                 tuple(staged_srcs)
                                 if staged_srcs is not None else None))

    b_axis = np.flatnonzero(~covered)
    if b_axis.size:
        sel_nd = np.take(np.arange(flat.size, dtype=np.int64)
                         .reshape(block_shape), b_axis, axis=p.axis)
        b_sel = np.ascontiguousarray(sel_nd.ravel())
        view = [1] * ndim
        view[p.axis] = b_axis.size
        cls_b = np.broadcast_to(cls1d[b_axis].reshape(view),
                                sel_nd.shape).ravel()
        b_w = np.ascontiguousarray(SPLINE_WEIGHTS[cls_b].T)
        ax_stride = 1
        for ax in range(p.axis + 1, ndim):
            ax_stride *= shape[ax]
        size = math.prod(shape)
        base = flat[b_sel]
        b_gather = np.empty((len(NEIGHBOR_OFFSETS), b_sel.size),
                            dtype=np.int64)
        for j, k in enumerate(NEIGHBOR_OFFSETS):
            idx = base + (k * s * ax_stride)
            # identical clip semantics to the reference path: zero-weight
            # out-of-domain neighbors gather the same (ignored) operand
            np.clip(idx, 0, size - 1, out=idx)
            b_gather[j] = idx
        for arr in (b_sel, b_gather, b_w):
            arr.setflags(write=False)
    else:
        b_sel, b_gather, b_w = _EMPTY_I64, _EMPTY_GATHER, _EMPTY_W
    has_staged = any(g.staged is not None for g in groups)
    return CompiledPass(p, block_shape, target_view, int(flat.size),
                        tuple(groups), ev_sel, ev_shape,
                        math.prod(ev_shape) if has_staged else 0,
                        b_sel, b_gather, b_w, time.perf_counter() - t0)


def _plan_key(shape: tuple[int, ...], spec) -> tuple:
    """Geometry-only cache key: ``alpha``/``beta`` scale error bounds but
    never change addressing, so eb re-tunes share the compiled plan."""
    return (tuple(shape), spec.anchor_stride, spec.window_shape,
            spec.cubic_variant, spec.axis_order)


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
        sp.set(n_passes=len(passes), n_fused=plan.n_fused,
               n_gather=plan.n_gather, plan_nbytes=plan.nbytes)
    return plan


# -- per-process LRU cache --------------------------------------------------

_DEFAULT_CACHE_LIMIT = 16

_cache_lock = threading.Lock()
_plan_cache: OrderedDict[tuple, PassPlan] = OrderedDict()
_cache_stats = {"hits": 0, "misses": 0, "evictions": 0}
_cache_limit = _DEFAULT_CACHE_LIMIT


def get_plan(shape: tuple[int, ...], spec) -> PassPlan:
    """The compiled plan for ``(shape, spec)``, LRU-cached per process."""
    shape = tuple(int(n) for n in shape)
    spec = spec.resolved(len(shape))
    key = _plan_key(shape, spec)
    with _cache_lock:
        plan = _plan_cache.get(key)
        if plan is not None:
            _plan_cache.move_to_end(key)
            _cache_stats["hits"] += 1
    if plan is not None:
        return plan
    plan = compile_plan(shape, spec)
    with _cache_lock:
        _cache_stats["misses"] += 1
        _plan_cache[key] = plan
        _plan_cache.move_to_end(key)
        while len(_plan_cache) > _cache_limit:
            _plan_cache.popitem(last=False)
            _cache_stats["evictions"] += 1
    return plan


def plan_cache_stats() -> dict[str, int]:
    """Snapshot of the plan cache hit/miss counters and occupancy."""
    with _cache_lock:
        return {**_cache_stats, "size": len(_plan_cache),
                "limit": _cache_limit,
                "size_bytes": sum(p.nbytes
                                  for p in _plan_cache.values())}


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the counters (mainly for tests)."""
    with _cache_lock:
        _plan_cache.clear()
        _cache_stats["hits"] = 0
        _cache_stats["misses"] = 0
        _cache_stats["evictions"] = 0


def set_plan_cache_limit(limit: int) -> int:
    """Resize the LRU (returns the previous limit; mainly for tests)."""
    global _cache_limit
    if limit < 1:
        raise ConfigError(f"plan cache limit must be >= 1, got {limit}")
    with _cache_lock:
        old = _cache_limit
        _cache_limit = int(limit)
        while len(_plan_cache) > _cache_limit:
            _plan_cache.popitem(last=False)
            _cache_stats["evictions"] += 1
    return old


caches.register("ginterp.plan", plan_cache_stats)
