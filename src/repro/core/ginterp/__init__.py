"""G-Interp: the GPU-optimized interpolation-based data predictor (paper §V).

The package splits along the paper's own structure:

* :mod:`repro.core.ginterp.splines` — the 1D spline family of §V-B.1;
* :mod:`repro.core.ginterp.engine` — anchored multi-level traversal with
  window-confined neighbor availability (§V-A, §V-D), shared by the
  compressor and decompressor, and reused (with different parameters) by
  the CPU SZ3/QoZ reference implementations;
* :mod:`repro.core.ginterp.autotune` — profiling-based auto-tuning (§V-C);
* :mod:`repro.core.ginterp.anchors` — lossless anchor-point storage;
* :mod:`repro.core.ginterp.plans` — compiled pass plans: precomputed
  per-``(shape, geometry)`` traversal geometry with whole-pass slice
  kernels over a zero-padded staged lattice, LRU-cached per process.
"""

from repro.core.ginterp.splines import (
    SPLINE_WEIGHTS,
    CUBIC_NAK,
    CUBIC_NAT,
    classify,
)
from repro.core.ginterp.engine import (
    InterpSpec,
    interp_compress,
    interp_decompress,
    level_error_bounds,
)
from repro.core.ginterp.autotune import autotune, alpha_from_eb
from repro.core.ginterp.anchors import extract_anchors, apply_anchors
from repro.core.ginterp.plans import (
    PassPlan,
    pass_plan,
    compile_plan,
    get_plan,
    plan_cache_stats,
    clear_plan_cache,
    set_plan_cache_limit,
)

__all__ = [
    "SPLINE_WEIGHTS",
    "CUBIC_NAK",
    "CUBIC_NAT",
    "classify",
    "InterpSpec",
    "interp_compress",
    "interp_decompress",
    "level_error_bounds",
    "pass_plan",
    "autotune",
    "alpha_from_eb",
    "extract_anchors",
    "apply_anchors",
    "PassPlan",
    "compile_plan",
    "get_plan",
    "plan_cache_stats",
    "clear_plan_cache",
    "set_plan_cache_limit",
]
