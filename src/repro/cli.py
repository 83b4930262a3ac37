"""Command-line interface.

``repro compress``/``decompress`` operate on raw binary float dumps (the
SDRBench convention: little-endian float32, C order, dims given on the
command line), ``repro info`` inspects an archive, ``repro gen`` writes a
synthetic dataset field, ``repro trace`` pretty-prints a telemetry trace
(``--trace`` on compress/decompress records one), and ``repro bench``
forwards to the experiment runner.

``repro analyze`` reports on a flight-recorder run ledger: per-``kind[codec]``
latency percentiles, compression-ratio and throughput distributions,
stage shares against the modelled GPU (``--device``), and the ledger
analytics engine (:mod:`repro.telemetry.analytics`): fingerprint-keyed
cohort baselines, robust per-run anomaly scores, and change points with
stage attribution (``--json`` for one document). It always exits 0 on a
readable ledger. ``repro doctor`` diagnoses ledger + environment + cache
health; ``--check`` makes an anomaly exit nonzero, the one regression
verdict and the CI gate. See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import compress as api_compress
from repro import decompress as api_decompress
from repro import telemetry
from repro.common.container import parse_container
from repro.common.lossless_wrap import unwrap_lossless
from repro.common.metrics import compression_ratio
from repro.datasets import get_dataset, dataset_names
from repro.registry import available
from repro.telemetry import exporters


def _parse_dims(text: str) -> tuple[int, ...]:
    dims = tuple(int(x) for x in text.split(","))
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"bad dims {text!r}")
    return dims


def _parse_workers(text: str):
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be an int or 'auto', got {text!r}")


def _write_trace(registry, path: str) -> None:
    with open(path, "w") as f:
        f.write(exporters.to_jsonl(registry))
    print(f"trace: {len(registry.spans)} spans -> {path}")


def _cmd_compress(args) -> int:
    if args.tiled or args.tile_planes or args.memory_budget_mb:
        return _cmd_compress_tiled(args)
    data = np.fromfile(args.input, dtype=np.float32)
    n = int(np.prod(args.dims))
    if data.size != n:
        print(f"error: file has {data.size} float32 values, dims give {n}",
              file=sys.stderr)
        return 1
    data = data.reshape(args.dims)
    kwargs = {}
    if args.codec == "cuzfp":
        kwargs["rate"] = args.rate
    else:
        kwargs.update(eb=args.eb, mode=args.mode)
    kwargs["lossless"] = args.lossless
    if args.trace:
        with telemetry.recording() as reg:
            blob = api_compress(data, codec=args.codec, **kwargs)
    else:
        reg = None
        blob = api_compress(data, codec=args.codec, **kwargs)
    with open(args.output, "wb") as f:
        f.write(blob)
    if reg is not None:
        # archive first, trace second: a bad --trace path must not lose
        # the compressed output
        _write_trace(reg, args.trace)
    print(f"{args.input}: {data.nbytes} -> {len(blob)} bytes "
          f"(CR {compression_ratio(data.nbytes, len(blob)):.2f})")
    return 0


def _cmd_compress_tiled(args) -> int:
    """Out-of-core compress: memory-mapped input, bounded peak RSS,
    slab-stream (``RPST``) output ``repro decompress`` auto-detects."""
    from repro.common.errors import ConfigError
    from repro.runtime.tiled import tiled_compress_file
    kwargs = {}
    if args.codec == "cuzfp":
        kwargs["rate"] = args.rate
    else:
        kwargs.update(eb=args.eb, mode=args.mode)
    budget = (int(args.memory_budget_mb * (1 << 20))
              if args.memory_budget_mb else None)
    try:
        info = tiled_compress_file(
            args.input, args.dims, out_path=args.output,
            codec=args.codec, tile_planes=args.tile_planes,
            memory_budget_bytes=budget, **kwargs)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.input}: {info['bytes_in']} -> {info['bytes_out']} "
          f"bytes in {info['n_tiles']} tiles of "
          f"{info['tile_planes']} plane(s) "
          f"(CR {compression_ratio(info['bytes_in'], info['bytes_out']):.2f})")
    return 0


def _cmd_decompress(args) -> int:
    with open(args.input, "rb") as f:
        head = f.read(4)
    if head == b"RPST":
        # a tiled/slab stream: decode out of core, tile by tile
        from repro.runtime.tiled import tiled_decompress_file
        info = tiled_decompress_file(args.input, args.output)
        print(f"{args.input}: reconstructed {info['shape']} "
              f"{np.dtype(info['dtype'])} ({info['n_tiles']} tiles) "
              f"-> {args.output}")
        return 0
    with open(args.input, "rb") as f:
        blob = f.read()
    if args.trace:
        with telemetry.recording() as reg:
            out = api_decompress(blob)
    else:
        reg = None
        out = api_decompress(blob)
    # write the container's recorded dtype verbatim — silently casting a
    # float64 archive to float32 would break the error bound on disk
    out.tofile(args.output)
    if reg is not None:
        _write_trace(reg, args.trace)
    print(f"{args.input}: reconstructed {out.shape} {out.dtype} "
          f"-> {args.output}")
    return 0


def _cmd_trace(args) -> int:
    with open(args.input) as f:
        reg = exporters.from_jsonl(f.read())
    if args.format == "prom":
        print(exporters.to_prometheus(reg), end="")
    else:
        print(exporters.render_tree(reg.spans, max_depth=args.depth))
    return 0


def _cmd_info(args) -> int:
    with open(args.input, "rb") as f:
        blob = f.read()
    inner = unwrap_lossless(blob)
    codec, meta, segments = parse_container(inner)
    print(f"codec:    {codec}")
    for key, val in meta.items():
        print(f"{key}: {val}")
    print("segments:")
    for name, seg in segments.items():
        print(f"  {name}: {len(seg)} bytes")
    return 0


def _cmd_gen(args) -> int:
    info = get_dataset(args.dataset)
    data = info.load(args.field)
    data.tofile(args.output)
    print(f"wrote {args.dataset}/{args.field} {data.shape} float32 "
          f"to {args.output}")
    return 0


def _cmd_pack(args) -> int:
    info = get_dataset(args.dataset)
    fields = {fld: info.load(fld) for fld in info.fields}
    from repro.archive import write_archive
    write_archive(args.output, fields, codec=args.codec, eb=args.eb,
                  mode=args.mode, lossless=args.lossless,
                  workers=args.workers)
    import os
    raw = sum(d.nbytes for d in fields.values())
    comp = os.path.getsize(args.output)
    print(f"packed {len(fields)} fields of {args.dataset}: "
          f"{raw / 1e6:.1f} MB -> {comp / 1e6:.2f} MB "
          f"(CR {raw / comp:.1f})")
    return 0


def _cmd_unpack(args) -> int:
    from repro.archive import read_archive
    fields = read_archive(args.input,
                          fields=args.fields.split(",") if args.fields
                          else None, workers=args.workers)
    for name, data in fields.items():
        # each field in its recorded dtype, as decompress writes it: a
        # float32 cast would break a float64 field's error bound on disk
        path = f"{args.prefix}{name}.f{data.dtype.itemsize * 8}"
        data.tofile(path)
        print(f"{name}: {data.shape} {data.dtype} -> {path}")
    return 0


def _fmt_pct(entry: dict) -> str:
    return (f"p50 {entry['p50'] * 1e3:9.2f}ms  "
            f"p95 {entry['p95'] * 1e3:9.2f}ms  "
            f"p99 {entry['p99'] * 1e3:9.2f}ms")


def _print_groups(groups: dict, deviation: dict) -> None:
    for label, entry in groups.items():
        head = f"{label}: n={entry['n']}"
        if entry["errors"]:
            head += f" errors={entry['errors']}"
        if "workers" in entry:
            head += f" workers<={entry['workers']}"
        print(head)
        print(f"  wall      {_fmt_pct(entry['wall_s'])}")
        for stage, pct in entry["stages"].items():
            print(f"  {stage:<9} {_fmt_pct(pct)}")
        if "ratio" in entry:
            r = entry["ratio"]
            print(f"  ratio     p50 {r['p50']:.2f}  "
                  f"min {r['min']:.2f}  max {r['max']:.2f}")
        if "throughput_mb_s" in entry:
            t = entry["throughput_mb_s"]
            print(f"  thru MB/s p50 {t['p50']:.1f}  "
                  f"min {t['min']:.1f}  max {t['max']:.1f}")
        if "cache_hit_ratio" in entry:
            print(f"  cache hit ratio {entry['cache_hit_ratio']:.1%}")
    device = deviation["device"]
    for f in deviation["flagged"]:
        print(f"model deviation: {f['kind']}[{f['codec']}] seq={f['seq']} "
              f"stage {f['stage']} skew {f['skew']:.2f}x vs modelled "
              f"{device}")
    if deviation["checked"]:
        print(f"perf model ({device}): {deviation['checked']} record(s) "
              f"checked, {len(deviation['flagged'])} flagged for "
              f"stage-share skew")


def _cmd_analyze(args) -> int:
    import json as _json
    from repro.telemetry import analytics, recorder

    try:
        records = recorder.read_ledger(args.ledger)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read ledger {args.ledger!r}: {exc}",
              file=sys.stderr)
        return 1
    report = analytics.analyze(records)
    report["groups"] = recorder.aggregate(records)
    report["model_deviation"] = analytics.model_deviation(records,
                                                          args.device)
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        if not records:
            print(f"ledger {args.ledger}: no run records")
        else:
            _print_groups(report["groups"], report["model_deviation"])
            print(analytics.format_report(report))
    return 0


def _cmd_doctor(args) -> int:
    from repro.telemetry import caches, doctor, recorder

    env = doctor.environment_report()
    print("environment: " + "  ".join(f"{k}={v}"
                                      for k, v in env.items()))
    snap = caches.snapshot()
    print("caches (this process):")
    for name, entry in snap.items():
        print(f"  {name}: {entry['hits']}h/{entry['misses']}m/"
              f"{entry['evictions']}e size={entry['size']}/"
              f"{entry['limit']} {entry['size_bytes']}B")

    if args.ledger:
        try:
            records = recorder.read_ledger(args.ledger)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read ledger {args.ledger!r}: {exc}",
                  file=sys.stderr)
            return 1
    else:
        records = recorder.records()
    diag = doctor.diagnose(records)
    print(diag.format())
    if args.check and not diag.healthy:
        return 1
    return 0


def _cmd_list(args) -> int:
    print("compressors:", ", ".join(available()))
    print("datasets:")
    for name in dataset_names():
        info = get_dataset(name)
        print(f"  {name} {info.default_shape}: {', '.join(info.fields)}")
    return 0


def _cmd_bench(args) -> int:
    from repro.experiments.__main__ import main as exp_main
    return exp_main([args.name, "--scale", args.scale])


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser with every subcommand registered."""
    parser = argparse.ArgumentParser(
        prog="repro", description="cuSZ-i reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a raw float32 dump")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--dims", type=_parse_dims, required=True,
                   help="comma-separated C-order dims, e.g. 512,512,512")
    p.add_argument("--codec", default="cuszi", choices=available())
    p.add_argument("--eb", type=float, default=1e-3)
    p.add_argument("--mode", choices=("rel", "abs"), default="rel")
    p.add_argument("--rate", type=float, default=4.0,
                   help="bits/value for cuzfp")
    p.add_argument("--lossless", default="auto",
                   choices=("none", "gle", "zlib", "auto"))
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="record a JSONL telemetry trace of the run")
    p.add_argument("--tiled", action="store_true",
                   help="out-of-core: memory-map the input and compress "
                        "axis-0 tiles with bounded peak RSS (output is "
                        "a slab stream; decompress auto-detects it)")
    p.add_argument("--tile-planes", type=int, default=None, metavar="N",
                   help="planes per tile for --tiled")
    p.add_argument("--memory-budget-mb", type=float, default=None,
                   metavar="MB",
                   help="pick the tile size from a peak-RSS budget "
                        "(implies --tiled)")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="decompress an archive")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="record a JSONL telemetry trace of the run")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("trace", help="pretty-print a JSONL telemetry "
                                     "trace (see docs/OBSERVABILITY.md)")
    p.add_argument("input")
    p.add_argument("--format", choices=("tree", "prom"), default="tree")
    p.add_argument("--depth", type=int, default=None,
                   help="limit the span tree depth")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("info", help="inspect an archive header")
    p.add_argument("input")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("gen", help="generate a synthetic dataset field")
    p.add_argument("dataset", choices=dataset_names())
    p.add_argument("field")
    p.add_argument("output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("pack", help="compress a whole synthetic dataset "
                                    "into one archive")
    p.add_argument("dataset", choices=dataset_names())
    p.add_argument("output")
    p.add_argument("--codec", default="cuszi", choices=available())
    p.add_argument("--eb", type=float, default=1e-3)
    p.add_argument("--mode", choices=("rel", "abs"), default="rel")
    p.add_argument("--lossless", default="auto",
                   choices=("none", "gle", "zlib", "auto"))
    p.add_argument("--workers", type=_parse_workers, default=None,
                   metavar="N",
                   help="compress fields across N worker processes "
                        "('auto' = all cores; default serial)")
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("unpack", help="extract fields from an archive")
    p.add_argument("input")
    p.add_argument("--prefix", default="",
                   help="output filename prefix")
    p.add_argument("--fields", default="",
                   help="comma-separated subset (default: all)")
    p.add_argument("--workers", type=_parse_workers, default=None,
                   metavar="N",
                   help="decompress fields across N worker processes "
                        "('auto' = all cores; default serial)")
    p.set_defaults(func=_cmd_unpack)

    p = sub.add_parser("analyze",
                       help="report on a run ledger: per-group "
                            "percentiles, stage shares vs the GPU model, "
                            "cohort baselines, anomaly scores, drift "
                            "change points with stage attribution")
    p.add_argument("ledger", help="JSONL run ledger "
                                  "(repro.telemetry.recorder ledger)")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    p.add_argument("--device", default="a100",
                   help="modelled device for the stage-share comparison")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("doctor", help="diagnose ledger + environment + "
                                      "cache health")
    p.add_argument("ledger", nargs="?", default=None,
                   help="JSONL run ledger (default: this process's "
                        "in-memory ring)")
    p.add_argument("--check", action="store_true",
                   help="exit nonzero when a structural anomaly is "
                        "found (the CI gate)")
    p.set_defaults(func=_cmd_doctor)

    p = sub.add_parser("list", help="list codecs and datasets")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("bench", help="run a paper experiment")
    p.add_argument("name")
    p.add_argument("--scale", choices=("small", "full"), default="small")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
