"""The benchmark's per-layer hooks must still name live program objects.

``bench/tracing.py`` wraps one ``(module, attribute)`` per layer and
reads per-cache hit ratios from the cache registry by name. A target
that a change renames is reported as "unmeasured" at bench time, not as
an error, so this tier-1 check catches the rename when it happens.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.telemetry import caches

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("layer", sorted(tracing.TARGETS))
def test_target_resolves(layer):
    modname, attr, side = tracing.TARGETS[layer]
    module = importlib.import_module(modname)
    assert callable(getattr(module, attr, None)), \
        f"{layer}: {modname}.{attr} is gone"
    assert side in (*tracing.SIDES, "both")


@pytest.mark.parametrize("metric", sorted(tracing.CACHE_METRICS))
def test_cache_metric_names_a_registered_cache(metric):
    assert tracing.CACHE_METRICS[metric] in caches.registered()


def test_lut_build_target_is_what_the_decoder_calls(monkeypatch):
    """Wrapping the LUT-build target must see the decoder's LUT fetch."""
    from repro.huffman import codec, drain_lut_prewarm, huffman_encode
    modname, attr, _ = tracing.TARGETS["huffman.lut_build"]
    module = importlib.import_module(modname)
    calls = []
    real = getattr(module, attr)
    monkeypatch.setattr(module, attr,
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    stream = huffman_encode(np.arange(300, dtype=np.uint32) % 17, 32)
    codec.huffman_decode(stream)
    drain_lut_prewarm()
    assert calls
