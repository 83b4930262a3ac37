"""Opt-in machine-readable perf trajectory: ``BENCH_pipeline.json``.

Set ``REPRO_BENCH_EMIT=1`` (or ``REPRO_BENCH_EMIT=/path/to/file.json``)
to time compress/decompress on one fixed seeded Nyx field per codec and
write the results as JSON. The file is a stable, diffable record —
future PRs rerun this and compare against the committed/archived numbers
to catch wall-time or ratio regressions without parsing pytest logs.

Beyond the per-codec serial times, a ``runtime`` section times the same
field through the slab runtime serially and with a ``workers >= 2``
process pool (:mod:`repro.runtime`), recording the parallel speedup the
trajectory should preserve, and a ``ginterp`` section (schema 3) times a
repeated-compress loop through the compiled pass-plan cache
(:mod:`repro.core.ginterp.plans`) against the uncompiled reference
traversal (the ``tests/oracles.py`` oracle) — per-pass compile vs
execute wall time, the warm-cache speedup, and the plan-cache hit
counters (including the decompress replay and an eb-retune, which must
reuse the plan). A ``lossless``
section (schema 4) times the segment-aware orchestrator on the cuSZ-i
container against the whole-container GLE pass it replaces — cold
(sampling) and warm (plan-cache) encode, decode, the per-segment
backend plan, and the bytes saved.

Schema 7 adds a ``huffman`` section: the batch-parallel table-driven
Huffman codec (:mod:`repro.huffman.codec`) timed on this field's real
quant-code stream — encode/decode wall time and MB/s for the ``lut``
decoder, the ``loop`` oracle (``tests/oracles.py``) for the speedup
ratio, the cold multi-symbol LUT build, chunk count and probe width, and
the share of a full pipeline decompress spent in the Huffman stage (CI
asserts it stays under half). The ``ginterp`` section gains a ``tune`` record —
the autotune stage's wall time, its share of a warm compress, and the
content-fingerprint cache counters — so retune reuse is part of the
trajectory.

Schema 8 mirrors the decode work on the encode side. The ``huffman``
section gains ``loop_encode_s`` / ``encode_engine_speedup`` (the
chunk-vectorized ``vector`` emitter against the byte-plane ``loop``
oracle, byte-identical streams) and a ``codebook_cache`` record
(the quantized-fingerprint codebook cache of
:mod:`repro.huffman.tree`); ``lut_build_s`` is timed cold behind a
prewarm drain so neither encode nor decode MB/s bills the LUT build.
The ``ginterp`` section gains a ``fused_quantize`` record — the share
of a warm compress spent in the fused predict–quantize emission
(the compress ``ginterp.pass`` spans). A new ``walls`` section records best-of-N
end-to-end compress/decompress walls on the 64^3 and 128^3 fields and
their ratios — CI gates compress staying within 1.5x of decompress.
Sections that cannot run on the current host (the serial-vs-parallel
``runtime`` and ``transport`` comparisons need >= 2 usable CPUs) are
emitted as ``{"skipped_reason": ...}`` instead of noise numbers; the
sentinel skips sections whose gate metrics are absent.

Schema 9 adds an ``analytics`` section: the run ledger this bench emits
is replayed through a fresh :class:`repro.telemetry.analytics
.AnalyticsEngine` — the per-run append-time scoring cost
(``score_mean_us``, asserted under 1% of the warm 64^3 compress wall
and gated by the sentinel), one full report build (``analyze_us``),
and the cohort/baseline/anomaly counts the engine derived from the
bench's own runs.

Schema 6 adds a ``transport`` section: serial vs pooled wall times for
both directions on a 128^3 field (big enough to clear the shm floors),
the shm-vs-pickled byte accounting from
:func:`repro.runtime.pool.transport_stats`, and the pool's size
floors — the sentinel gates on pooled decompress staying
competitive with serial. ``runtime.cpu_count`` now reports *usable*
cores (``sched_getaffinity``), with the installed count kept as
``cpu_count_logical``.

Schema 5 adds the observability layer: a ``thresholds`` object declaring
each section's regression tolerance (read by
:mod:`repro.telemetry.sentinel` — the *committed baseline* owns its own
noise budget), a ``caches`` section snapshotting the unified cache
registry (:mod:`repro.telemetry.caches`) after the workload, and a
sibling ``BENCH_ledger.jsonl`` run ledger dumped from the always-on
flight recorder (:mod:`repro.telemetry.recorder`) — CI uploads it as an
artifact and gates on ``repro doctor --check`` over it. One compress is
run with the sampled quality auditor enabled so the ledger always
carries an error-bound histogram. See ``docs/OBSERVABILITY.md``,
``docs/PERFORMANCE.md`` and ``benchmarks/compare_trajectory.py``.
"""

import json
import os
import time

import numpy as np
import pytest

EMIT = os.environ.get("REPRO_BENCH_EMIT", "")

#: codecs timed for the trajectory; the cuSZ-i pipeline plus the fast
#: Lorenzo baselines most likely to regress from shared-substrate edits
CODECS = ("cuszi", "cusz", "cuszp", "fzgpu")
FIELD = ("nyx", "baryon_density", (64, 64, 64))
EB = 1e-3
#: planes per slab for the runtime section: 64 planes -> 8 slabs
SLAB_PLANES = 8


def _bench_parallel_sections(data, shape, usable_cpus):
    """The serial-vs-parallel ``runtime`` and ``transport`` sections.

    Only run on hosts with >= 2 usable CPUs — on a single schedulable
    core the "parallel" walls measure contention, not the runtime.
    """
    from repro.datasets import load_field
    from repro.runtime import (parallel_compress_slabs,
                               parallel_decompress_slabs, resolve_workers)
    from repro.streaming import compress_slabs, decompress_slabs

    dataset, field, _ = FIELD
    slab_kwargs = dict(codec="cuszi", eb=EB, mode="rel", lossless="none")
    workers = min(4, max(2, resolve_workers("auto")))
    # warm the pool so fork/startup cost is not billed to the timed run
    parallel_compress_slabs(data[:2 * SLAB_PLANES], SLAB_PLANES,
                            workers=workers, **slab_kwargs)
    t0 = time.perf_counter()
    serial_stream = compress_slabs(data, SLAB_PLANES, **slab_kwargs)
    t1 = time.perf_counter()
    parallel_stream = parallel_compress_slabs(data, SLAB_PLANES,
                                              workers=workers,
                                              **slab_kwargs)
    t2 = time.perf_counter()
    assert parallel_stream == serial_stream, \
        "parallel slab runtime must be byte-identical to serial"
    recon = parallel_decompress_slabs(parallel_stream, workers=workers)
    t3 = time.perf_counter()
    assert recon.shape == data.shape
    t4 = time.perf_counter()
    decompress_slabs(serial_stream)
    t5 = time.perf_counter()
    serial_s = t1 - t0
    parallel_s = t2 - t1
    runtime = {
        "n_slabs": -(-shape[0] // SLAB_PLANES),
        "workers": workers,
        "serial_s": round(serial_s, 6),
        "parallel_s": round(parallel_s, 6),
        "parallel_decompress_s": round(t3 - t2, 6),
        "serial_decompress_s": round(t5 - t4, 6),
        "speedup": round(serial_s / parallel_s, 4) if parallel_s else 0.0,
        "cpu_count": usable_cpus,
        "cpu_count_logical": os.cpu_count(),
    }

    # schema 6: the zero-copy shm transport on a field big enough to
    # clear the shm floors (128^3 f32 = 8 MiB). Serial vs pooled wall
    # times for both directions plus the byte accounting that proves
    # payloads moved through arenas rather than the pickle queue.
    from repro.runtime import pool as runtime_pool
    tdata = load_field(dataset, field, shape=(128, 128, 128))
    runtime_pool.reset_transport_stats()
    # warm the daemon pool (fork + codec import cost is one-time)
    parallel_compress_slabs(tdata[:2 * SLAB_PLANES], SLAB_PLANES,
                            workers=workers, **slab_kwargs)
    t0 = time.perf_counter()
    t_serial_stream = compress_slabs(tdata, SLAB_PLANES, **slab_kwargs)
    t1 = time.perf_counter()
    t_par_stream = parallel_compress_slabs(tdata, SLAB_PLANES,
                                           workers=workers, **slab_kwargs)
    t2 = time.perf_counter()
    assert t_par_stream == t_serial_stream, \
        "shm transport must be byte-identical to serial"
    decompress_slabs(t_serial_stream)
    t3 = time.perf_counter()
    parallel_decompress_slabs(t_par_stream, workers=workers)
    t4 = time.perf_counter()
    tstats = runtime_pool.transport_stats()
    ser_c, par_c = t1 - t0, t2 - t1
    ser_d, par_d = t3 - t2, t4 - t3
    transport = {
        "kind": "shm",
        "field_shape": [128, 128, 128],
        "field_bytes": tdata.nbytes,
        "workers": workers,
        "serial_compress_s": round(ser_c, 6),
        "parallel_compress_s": round(par_c, 6),
        "compress_speedup": round(ser_c / par_c, 4) if par_c else 0.0,
        "serial_decompress_s": round(ser_d, 6),
        "parallel_decompress_s": round(par_d, 6),
        "decompress_speedup": round(ser_d / par_d, 4) if par_d else 0.0,
        "shm_bytes_moved": tstats["shm_bytes"],
        "pickled_bytes": tstats["pickled_bytes"],
        "copies_avoided": tstats["copies_avoided"],
        "min_encode_bytes": runtime_pool.PARALLEL_MIN_ENCODE_BYTES,
        "min_decode_bytes": runtime_pool.PARALLEL_MIN_DECODE_BYTES,
    }
    return runtime, transport


@pytest.mark.skipif(not EMIT, reason="set REPRO_BENCH_EMIT=1 (or a path) "
                                     "to emit BENCH_pipeline.json")
def test_emit_pipeline_trajectory():
    from repro.datasets import load_field
    from repro.registry import get_compressor

    dataset, field, shape = FIELD
    data = load_field(dataset, field, shape=shape)
    results = {}
    for codec in CODECS:
        comp = get_compressor(codec, eb=EB, mode="rel", lossless="none")
        t0 = time.perf_counter()
        blob = comp.compress(data)
        t1 = time.perf_counter()
        recon = comp.decompress(blob)
        t2 = time.perf_counter()
        assert recon.shape == data.shape
        results[codec] = {
            "compress_s": round(t1 - t0, 6),
            "decompress_s": round(t2 - t1, 6),
            "ratio": round(data.nbytes / len(blob), 4),
            "compressed_bytes": len(blob),
        }
    # usable cores, not installed cores: cgroup/affinity-limited runners
    # (CI containers) otherwise report e.g. cpu_count=64 while only one
    # core is schedulable, which misrepresents every speedup number
    try:
        usable_cpus = len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        usable_cpus = os.cpu_count() or 1

    if usable_cpus < 2:
        # a serial-vs-parallel comparison on one schedulable core times
        # scheduler contention, not the runtime — emit the reason instead
        # of numbers (the sentinel skips sections without gate metrics)
        skip = {"skipped_reason":
                f"needs >= 2 usable CPUs, have {usable_cpus}",
                "cpu_count": usable_cpus,
                "cpu_count_logical": os.cpu_count()}
        runtime = dict(skip)
        transport = dict(skip)
    else:
        runtime, transport = _bench_parallel_sections(data, shape,
                                                      usable_cpus)

    # compiled pass-plan engine: repeated-compress loop, warm plan cache,
    # against the uncompiled reference traversal on the same field
    from oracles import decode_loop, encode_loop, reference_compress
    from repro import telemetry
    from repro.core.ginterp import (InterpSpec, clear_plan_cache,
                                    interp_compress, interp_decompress,
                                    get_plan, plan_cache_stats)
    spec = InterpSpec(anchor_stride=8, window_shape=(9, 9, 33)).resolved(3)
    abs_eb = EB * float(data.max() - data.min())
    clear_plan_cache()
    plan = get_plan(shape, spec)            # the one cold compile
    reps, rounds = 5, 3

    def _best(fn):
        # best-of-rounds mean: robust to scheduler noise on shared runners
        fn()                                                # warm
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            best = min(best, (time.perf_counter() - t0) / reps)
        return best

    ref_s = _best(lambda: reference_compress(data, spec, abs_eb))
    cmp_s = _best(lambda: interp_compress(data, spec, abs_eb))
    # per-pass execute time from one traced compiled run
    with telemetry.recording() as rec:
        res = interp_compress(data, spec, abs_eb)
    exec_by_pass = {}
    for sp in rec.spans:
        if sp.name == "ginterp.pass":
            k = (sp.attrs.get("level"), sp.attrs.get("axis"))
            exec_by_pass[k] = exec_by_pass.get(k, 0.0) + sp.duration_s
    per_pass = [{
        "level": cp.desc.level,
        "axis": cp.desc.axis,
        "targets": cp.n_targets,
        "compile_s": round(cp.compile_s, 6),
        "execute_s": round(
            exec_by_pass.get((cp.desc.level, cp.desc.axis), 0.0), 6),
    } for cp in plan.passes]
    # the decompress replay and an eb-retune (different alpha, same
    # geometry) must both hit the cached plan
    interp_decompress(shape, spec, abs_eb, res.codes, res.outliers,
                      res.anchors)
    retune = InterpSpec(anchor_stride=8, window_shape=(9, 9, 33),
                        alpha=1.75).resolved(3)
    interp_compress(data, retune, abs_eb / 10)
    cache = plan_cache_stats()
    assert cache["misses"] == 1, "repeated traversals must share one plan"
    ginterp = {
        "plan_compile_s": round(plan.compile_s, 6),
        "plan_nbytes": plan.nbytes,
        "reps": reps,
        "rounds": rounds,
        "reference_compress_s": round(ref_s, 6),
        "compiled_compress_s": round(cmp_s, 6),
        "speedup": round(ref_s / cmp_s, 4) if cmp_s else 0.0,
        "per_pass": per_pass,
        "plan_cache": cache,
    }

    # segment-aware lossless orchestration vs the whole-container GLE
    # pass it replaces, on the cuSZ-i container for this same field
    from repro.lossless import (OrchestratorCodec, gle_compress,
                                gle_decompress)
    from repro.lossless.orchestrator import (choose_backend,
                                             orchestrate_compress,
                                             orchestrate_decompress,
                                             split_streams, stream_stats)
    blob = get_compressor("cuszi", eb=EB, mode="rel",
                          lossless="none").compress(data)
    container = bytes(blob[5 + blob[4]:])    # strip the RPW1 wrap frame
    orch = OrchestratorCodec()
    gle_blob = gle_compress(container)
    orch_blob = orch.compress_bytes(container)
    assert orch.decompress_bytes(orch_blob) == container, \
        "orchestrated blob must round-trip byte-identically"
    assert gle_decompress(gle_blob) == container

    def _best_us(fn, inner=50):
        return _best_inner(fn, inner) * 1e6

    def _best_inner(fn, inner):
        fn()                                                # warm
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            for _ in range(inner):
                fn()
            best = min(best, (time.perf_counter() - t0) / inner)
        return best

    gle_s = _best_us(lambda: gle_compress(container))
    cold_s = _best_us(lambda: orchestrate_compress(container))
    warm_s = _best_us(lambda: orch.compress_bytes(container))
    gle_dec_s = _best_us(lambda: gle_decompress(gle_blob))
    orch_dec_s = _best_us(lambda: orchestrate_decompress(orch_blob))
    segments = [{"name": name, "bytes": len(sv),
                 "backend": choose_backend(stream_stats(sv))}
                for name, sv in split_streams(container)]
    lossless = {
        "container_bytes": len(container),
        "gle_bytes": len(gle_blob),
        "orchestrated_bytes": len(orch_blob),
        "bytes_saved_vs_gle": len(gle_blob) - len(orch_blob),
        "gle_encode_us": round(gle_s, 1),
        "cold_encode_us": round(cold_s, 1),
        "warm_encode_us": round(warm_s, 1),
        "warm_speedup_vs_gle": round(gle_s / warm_s, 4) if warm_s else 0.0,
        "gle_decode_us": round(gle_dec_s, 1),
        "orch_decode_us": round(orch_dec_s, 1),
        "decode_speedup_vs_gle": round(gle_dec_s / orch_dec_s, 4)
        if orch_dec_s else 0.0,
        "segments": segments,
    }

    # schema 7/8: the batch-parallel table-driven Huffman codec on this
    # field's real quant-code stream (the traced ginterp compress above),
    # both encode engines, plus the stage share Huffman holds in a full
    # pipeline decompress
    from repro.core.ginterp.autotune import autotune_cache_stats
    from repro.huffman import (clear_fingerprint_cache,
                               drain_lut_prewarm, fingerprint_cache_stats,
                               fingerprint_code_lengths, huffman_decode,
                               huffman_encode)
    from repro.huffman.canonical import (MAX_CODE_LEN, build_lut_tables,
                                         clear_codebook_caches)
    from repro.huffman.codec import DEFAULT_CHUNK_BITS
    from repro.huffman.histogram import histogram

    hcodes = np.ascontiguousarray(res.codes).ravel()
    alph = max(1024, int(hcodes.max()) + 1)
    hlengths = fingerprint_code_lengths(histogram(hcodes, alph),
                                        MAX_CODE_LEN)
    # cold LUT build, timed on its own: drain any encode-side prewarm
    # first so the build below is genuinely cold, and keep it out of the
    # encode/decode MB/s math entirely
    drain_lut_prewarm()
    clear_codebook_caches()
    t0 = time.perf_counter()
    build_lut_tables(hlengths)
    lut_build_s = time.perf_counter() - t0

    hstream = huffman_encode(hcodes, alph, DEFAULT_CHUNK_BITS)
    ref_syms = hcodes.astype(np.uint32)
    with telemetry.recording() as wrec:
        assert np.array_equal(huffman_decode(hstream), ref_syms)
    # the width the timed decodes below use (the LUT built above is the
    # full-width one, so they run warm at MAX_CODE_LEN)
    probe_bits = next(sp.attrs["probe_bits"] for sp in wrec.spans
                      if sp.name == "huffman.unpack")
    assert np.array_equal(decode_loop(hstream), ref_syms)
    assert encode_loop(hcodes, alph, DEFAULT_CHUNK_BITS).to_bytes() \
        == hstream.to_bytes(), "encode engines must emit identical streams"
    clear_fingerprint_cache()
    enc_s = _best_inner(lambda: huffman_encode(hcodes, alph,
                                               DEFAULT_CHUNK_BITS), 5)
    loop_enc_s = _best_inner(
        lambda: encode_loop(hcodes, alph, DEFAULT_CHUNK_BITS), 3)
    codebook_cache = fingerprint_cache_stats()
    lut_s = _best_inner(lambda: huffman_decode(hstream), 5)
    loop_s = _best_inner(lambda: decode_loop(hstream), 3)

    # stage shares inside the full pipeline, from one traced round trip:
    # the Huffman share of decompress (CI gates it under 0.5) and the
    # tune share of a warm compress (the content-fingerprint cache
    # should answer the retune, satellite of the autotune work)
    comp = get_compressor("cuszi", eb=EB, mode="rel")
    pblob = comp.compress(data)            # warm plan/tune caches
    comp.decompress(pblob)                 # warm table/LUT caches
    dec_total = dec_huff = float("inf")
    for _ in range(3):                     # best-of-3: scheduler noise
        with telemetry.recording() as hrec:
            comp.decompress(pblob)
        tot = sum(sp.duration_s for sp in hrec.spans
                  if sp.name == "decompress")
        if tot < dec_total:
            dec_total = tot
            dec_huff = sum(sp.duration_s for sp in hrec.spans
                           if sp.name == "huffman")
    with telemetry.recording() as crec:
        comp.compress(data)
    comp_total = sum(sp.duration_s for sp in crec.spans
                     if sp.name == "compress")
    tune_s = sum(sp.duration_s for sp in crec.spans if sp.name == "tune")

    sym_mb = hcodes.size * 4 / 1e6         # decoded uint32 symbol bytes
    huffman = {
        "n_symbols": int(hcodes.size),
        "alphabet": int(alph),
        "chunk_bits": DEFAULT_CHUNK_BITS,
        "n_chunks": hstream.n_chunks,
        "probe_bits": probe_bits,
        "stream_bytes": int(hstream.nbytes),
        "lut_build_s": round(lut_build_s, 6),
        "encode_s": round(enc_s, 6),
        "loop_encode_s": round(loop_enc_s, 6),
        "encode_engine": "vector",
        "encode_engine_speedup": round(loop_enc_s / enc_s, 4)
        if enc_s else 0.0,
        "codebook_cache": codebook_cache,
        "decode_s": round(lut_s, 6),
        "loop_decode_s": round(loop_s, 6),
        "decode_speedup_vs_loop": round(loop_s / lut_s, 4)
        if lut_s else 0.0,
        "encode_mb_s": round(sym_mb / enc_s, 2) if enc_s else 0.0,
        "decode_mb_s": round(sym_mb / lut_s, 2) if lut_s else 0.0,
        "decompress_stage_share": round(dec_huff / dec_total, 4)
        if dec_total else 0.0,
    }
    ginterp["tune"] = {
        "tune_s": round(tune_s, 6),
        "compress_stage_share": round(tune_s / comp_total, 4)
        if comp_total else 0.0,
        "autotune_cache": autotune_cache_stats(),
    }
    # schema 8: share of a warm compress spent in the fused
    # predict-quantize emission (the ginterp.pass spans of the traced
    # compress: each pass is one fused predict-quantize call)
    pq_s = sum(sp.duration_s for sp in crec.spans
               if sp.name == "ginterp.pass")
    ginterp["fused_quantize"] = {
        "pq_s": round(pq_s, 6),
        "compress_stage_share": round(pq_s / comp_total, 4)
        if comp_total else 0.0,
    }

    # schema 8: end-to-end wall symmetry — the compress-side overhaul
    # targets compress staying within 1.5x of decompress on both the
    # bench field and the 128^3 transport-scale field (best-of-3)
    def _walls(wdata):
        wcomp = get_compressor("cuszi", eb=EB, mode="rel")
        wblob = wcomp.compress(wdata)          # warm plan/tune caches
        wcomp.decompress(wblob)                # warm table/LUT caches
        c_s = d_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            wcomp.compress(wdata)
            c_s = min(c_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            wcomp.decompress(wblob)
            d_s = min(d_s, time.perf_counter() - t0)
        return c_s, d_s

    c64, d64 = _walls(data)
    c128, d128 = _walls(load_field(dataset, field, shape=(128, 128, 128)))
    walls = {
        "rounds": 3,
        "compress64_s": round(c64, 6),
        "decompress64_s": round(d64, 6),
        "ratio64": round(c64 / d64, 4) if d64 else 0.0,
        "compress128_s": round(c128, 6),
        "decompress128_s": round(d128, 6),
        "ratio128": round(c128 / d128, 4) if d128 else 0.0,
    }

    # one quality-audited run so the bench ledger always carries a
    # sampled error-bound histogram for ``repro doctor`` to inspect
    from repro.telemetry import caches, quality, recorder
    quality.enable(every=1, fraction=0.25, block=16, seed=0)
    try:
        get_compressor("cuszi", eb=EB, mode="rel").compress(data)
    finally:
        quality.disable()

    # schema 9: ledger analytics — replay every run this bench recorded
    # through a fresh engine, timing the per-run scoring path and one
    # full report build. Nothing scores runs as they happen: the engine
    # runs only in ``repro analyze`` and ``repro doctor``, over a
    # finished ledger. The per-run scoring cost is still asserted under
    # 1% of a warm 64^3 compress wall.
    from repro.telemetry import analytics as analytics_mod
    engine = analytics_mod.AnalyticsEngine()
    for rec in recorder.records():
        engine.observe(rec)
    t0 = time.perf_counter()
    report = engine.report()
    analyze_s = time.perf_counter() - t0
    over = engine.overhead()
    score_share = (over["score_mean_us"] * 1e-6) / c64 if c64 else 0.0
    assert score_share < 0.01, (
        f"analytics scoring costs {over['score_mean_us']:.1f}us/run, "
        f"{score_share:.2%} of a {c64 * 1e3:.1f}ms compress64 wall")
    analytics = {
        "n_records": report["n_records"],
        "n_cohorts": report["n_cohorts"],
        "baseline_metrics": sum(len(c["baselines"])
                                for c in report["cohorts"].values()),
        "anomalous_runs": report["verdict"]["anomalous_runs"],
        "change_points": len(report["change_points"]),
        "score_mean_us": round(over["score_mean_us"], 3),
        "analyze_us": round(analyze_s * 1e6, 1),
        "score_share_of_compress64": round(score_share, 6),
    }

    doc = {
        "schema": 9,
        "field": {"dataset": dataset, "name": field,
                  "shape": list(shape)},
        "eb": EB,
        "mode": "rel",
        # per-section regression tolerance, read by the sentinel from
        # the *committed* copy of this file (the baseline owns its gate)
        # analytics gates on microsecond-scale scoring cost; 1.0 (100%)
        # absorbs timer noise at that magnitude while still catching a
        # scoring path that grows by integer factors
        "thresholds": {"ginterp": 0.25, "lossless": 0.25,
                       "runtime": 0.25, "transport": 0.25,
                       "huffman": 0.25, "walls": 0.25,
                       "analytics": 1.0},
        "results": results,
        "runtime": runtime,
        "transport": transport,
        "ginterp": ginterp,
        "lossless": lossless,
        "huffman": huffman,
        "walls": walls,
        "analytics": analytics,
        "caches": caches.snapshot(),
    }
    path = EMIT if EMIT.endswith(".json") else "BENCH_pipeline.json"
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    ledger_path = os.path.join(os.path.dirname(path) or ".",
                               "BENCH_ledger.jsonl")
    recorder.write_ledger(ledger_path)
    print(f"\nwrote perf trajectory for {len(results)} codecs -> {path}")
    print(f"wrote {len(recorder.records())} run record(s) -> {ledger_path}")
