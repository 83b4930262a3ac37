"""Unified cache registry: one introspection surface for every cache.

Several memoization layers grew side by side — the Huffman codebook and
probe-LUT LRUs, the content-keyed autotune cache, the compiled pass-plan
LRU, the orchestrator's header-fingerprint plan cache — and each exposed
its own ad-hoc counters. This module is the single registry they all plug into:

* every cache module calls :func:`register` at import time with a
  zero-argument **provider** returning its current statistics;
* :func:`snapshot` returns one normalized mapping
  ``{cache_name: {hits, misses, evictions, size, limit, size_bytes,
  hit_ratio, lookups}}`` across all of them;
* :func:`repro.telemetry.exporters.to_prometheus` renders the snapshot
  as uniform ``repro_cache_*`` gauges, and the flight recorder
  (:mod:`repro.telemetry.recorder`) diffs snapshots around each run to
  stamp per-run cache behaviour into the run ledger.

Providers may return any subset of the normalized keys; missing values
default to 0 (``limit`` defaults to -1 = unbounded/unknown). Providers
must be cheap (a lock + a small dict copy; ``size_bytes`` a running
total, never a walk over the entries) — snapshots run on the always-on
recorder path.
"""

from __future__ import annotations

import threading
from typing import Callable

__all__ = ["register", "unregister", "registered", "snapshot",
           "snapshot_totals", "diff"]

#: normalized statistic keys every snapshot entry carries
FIELDS = ("hits", "misses", "evictions", "size", "limit", "size_bytes",
          "byte_limit")

#: the monotonically-increasing counters among :data:`FIELDS` — the ones
#: :func:`diff` subtracts; gauges (size, limit, size_bytes, byte_limit)
#: pass through
COUNTER_FIELDS = ("hits", "misses", "evictions")

_lock = threading.Lock()
_providers: dict[str, Callable[[], dict]] = {}

#: modules owning the built-in caches; imported lazily on first snapshot
#: so a bare ``import repro.telemetry`` never drags in the codec stack,
#: while a snapshot always sees every known cache (importing a module
#: that is already loaded is a dict lookup)
_BUILTIN_MODULES = (
    "repro.core.ginterp.plans",
    "repro.core.ginterp.autotune",
    "repro.huffman.canonical",
    "repro.lossless.orchestrator",
)


def register(name: str, provider: Callable[[], dict]) -> None:
    """Register (or replace) a named cache's statistics provider."""
    with _lock:
        _providers[name] = provider


def unregister(name: str) -> None:
    """Remove a provider (tests; caches never unregister in real runs)."""
    with _lock:
        _providers.pop(name, None)


def registered() -> list[str]:
    """Names of every registered cache, sorted."""
    _ensure_builtin()
    with _lock:
        return sorted(_providers)


def _ensure_builtin() -> None:
    import importlib
    for mod in _BUILTIN_MODULES:
        try:
            importlib.import_module(mod)
        except Exception:  # pragma: no cover - a broken codec module
            pass           # must not take introspection down with it


def _normalize(raw: dict) -> dict:
    entry = {k: int(raw.get(k, 0)) for k in FIELDS}
    if "limit" not in raw:
        entry["limit"] = -1
    if "byte_limit" not in raw:
        entry["byte_limit"] = -1  # -1 = no byte budget (entry-count only)
    lookups = entry["hits"] + entry["misses"]
    entry["lookups"] = lookups
    entry["hit_ratio"] = entry["hits"] / lookups if lookups else 0.0
    return entry


def snapshot() -> dict[str, dict]:
    """Normalized statistics for every registered cache."""
    _ensure_builtin()
    with _lock:
        providers = dict(_providers)
    out = {}
    for name in sorted(providers):
        try:
            out[name] = _normalize(providers[name]())
        except Exception:  # pragma: no cover - defensive: one broken
            continue       # provider must not hide the others
    return out


def snapshot_totals() -> dict[str, int]:
    """Cross-cache totals (used by worker processes to ship one small
    dict back to the parent instead of the full per-cache table)."""
    totals = {k: 0 for k in COUNTER_FIELDS}
    totals["size_bytes"] = 0
    for entry in snapshot().values():
        for k in COUNTER_FIELDS:
            totals[k] += entry[k]
        totals["size_bytes"] += entry["size_bytes"]
    return totals


def diff(before: dict[str, dict], after: dict[str, dict]) -> dict[str, dict]:
    """Per-cache counter deltas between two snapshots (gauges pass
    through from ``after``). Caches absent from ``before`` count from 0."""
    out = {}
    for name, now in after.items():
        prev = before.get(name, {})
        entry = {k: now[k] - prev.get(k, 0) for k in COUNTER_FIELDS}
        entry["size"] = now["size"]
        entry["size_growth"] = now["size"] - prev.get("size", 0)
        entry["size_bytes"] = now["size_bytes"]
        entry["byte_limit"] = now.get("byte_limit", -1)
        lookups = entry["hits"] + entry["misses"]
        entry["lookups"] = lookups
        entry["hit_ratio"] = entry["hits"] / lookups if lookups else 0.0
        out[name] = entry
    return out
