"""Fused predict–dequantize decode and the per-thread scratch arena.

The decode traversal dequantizes each pass straight into its strided view
of the work array, with every per-pass buffer carved from one reused
per-thread arena. The contract: its output is byte-identical to the
uncompiled reference decode in ``oracles.py`` (outlier lanes included),
concurrent traversals on different threads never share scratch, and a
warm decode (or compress) allocates little beyond the arrays it returns.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import smooth_field
from oracles import reference_decompress
from repro.common.quantizer import LinearQuantizer
from repro.core.ginterp import (InterpSpec, get_plan, interp_compress,
                                interp_decompress)
from repro.core.ginterp import plans
from repro.core.ginterp.plans import scratch

#: radius 8 at an absolute bound of 1e-6 on a field of range ~1e-3 turns
#: roughly a third to two thirds of every pass into outliers
RADIUS = 8
EB = 1e-6


def _heavy(shape, dtype):
    return (smooth_field(shape) * 1e-3).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,spec", [
    ((4099,), InterpSpec(anchor_stride=8)),
    ((67, 45), InterpSpec(anchor_stride=8)),
    ((29, 33, 23), InterpSpec(anchor_stride=8)),
    ((19, 27, 41), InterpSpec(anchor_stride=8, window_shape=(9, 9, 33))),
])
def test_heavy_outlier_decode_matches_oracle(shape, spec, dtype):
    data = _heavy(shape, dtype)
    q = LinearQuantizer(RADIUS, value_dtype=dtype)
    res = interp_compress(data, spec, EB, q)
    assert 0 < res.outliers.size < res.codes.size
    out = interp_decompress(shape, spec, EB, res.codes, res.outliers,
                            res.anchors, q)
    ref = reference_decompress(shape, spec, EB, res.codes, res.outliers,
                               res.anchors, q)
    assert out.tobytes() == ref.tobytes()
    assert out.tobytes() == res.reconstructed.tobytes()


def _roundtrip(shape):
    data = _heavy(shape, np.float32)
    spec = InterpSpec(anchor_stride=8, window_shape=(9, 9, 33)[-len(shape):])
    q = LinearQuantizer(RADIUS)
    res = interp_compress(data, spec, EB, q)
    out = interp_decompress(shape, spec, EB, res.codes, res.outliers,
                            res.anchors, q)
    return res.codes.tobytes(), res.outliers.tobytes(), out.tobytes()


def test_arena_is_per_thread():
    """Threads traversing different shapes at once (so different arena
    sizes and views), more threads than cores and switching often, get
    exactly the serial results."""
    shapes = [(40, 36, 44), (96, 130), (23, 50, 31)]
    serial = {s: _roundtrip(s) for s in shapes}
    start = threading.Barrier(len(shapes))
    results: dict = {}
    errors: list = []

    def run(shape):
        try:
            start.wait(timeout=30)
            results[shape] = [_roundtrip(shape) for _ in range(4)]
        except Exception as exc:          # pragma: no cover - on failure
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(s,)) for s in shapes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for s in shapes:
        assert all(r == serial[s] for r in results[s])


def _scribble(n):
    scratch(n)[0][:] = 2.0


def test_forked_worker_gets_a_private_arena():
    """A forked pool worker inherits the arena; its writes must stay its
    own, or worker and parent would corrupt each other's passes."""
    (view,) = scratch(1024)
    view[:] = 1.0
    proc = multiprocessing.get_context("fork").Process(target=_scribble,
                                                       args=(1024,))
    proc.start()
    proc.join(timeout=60)
    assert proc.exitcode == 0
    assert (view == 1.0).all()


def test_warm_traversal_reuses_the_arena_unchanged():
    """The first traversal of a fresh thread sizes the arena to the
    plan's widest pass; a second same-shape traversal reuses that very
    buffer and does not grow it."""
    shape = (48, 40, 56)
    data = smooth_field(shape)
    spec = InterpSpec(anchor_stride=8, window_shape=(9, 9, 33))
    plan = get_plan(shape, spec.resolved(3))
    seen = []

    def run():
        plans._arena.buf = None           # a fresh thread's empty arena
        for _ in range(2):
            res = interp_compress(data, spec, 1e-3, plan=plan)
            interp_decompress(shape, spec, 1e-3, res.codes, res.outliers,
                              res.anchors, plan=plan)
            seen.append(plans._arena.buf)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    first, second = seen[0], seen[1]
    assert second is first
    # prediction, padded lattice, rounding and reconstruction buffers
    assert first.size == 3 * plan.max_targets + plan.max_staged


def test_warm_decode_allocates_about_one_work_array():
    shape = (64, 64, 64)
    data = smooth_field(shape)
    spec = InterpSpec(anchor_stride=8, window_shape=(9, 9, 33))
    eb = 1e-3 * float(data.max() - data.min())
    res = interp_compress(data, spec, eb)
    plan = get_plan(shape, spec.resolved(3))

    def decode():
        return interp_decompress(shape, spec, eb, res.codes, res.outliers,
                                 res.anchors, plan=plan)

    decode()                               # sizes this thread's arena
    tracemalloc.start()
    try:
        work = decode()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert work.tobytes() == res.reconstructed.tobytes()
    assert peak <= 1.25 * work.nbytes


def test_warm_compress_allocates_about_its_outputs():
    """After a call that sizes the arena, a compress allocates its work
    array and code stream and little else: every pass's temporaries are
    views of the arena."""
    shape = (64, 64, 64)
    data = smooth_field(shape)
    spec = InterpSpec(anchor_stride=8, window_shape=(9, 9, 33))
    eb = 1e-3 * float(data.max() - data.min())
    plan = get_plan(shape, spec.resolved(3))
    interp_compress(data, spec, eb, plan=plan)    # sizes this thread's arena
    tracemalloc.start()
    try:
        res = interp_compress(data, spec, eb, plan=plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (res.reconstructed.nbytes + res.codes.nbytes)
