"""Run paper experiments: ``python -m repro.experiments <name> [options]``.

Names: table3, fig5..fig10, ablations, pareto, all.
``--out DIR`` also writes each rendered artifact to ``DIR/<name>.txt``
(and, for fig8, the reconstruction/error slice images under
``DIR/fig8_slices/``). ``--trace`` records telemetry while each
experiment runs and prints its per-stage breakdown; ``--trace-out DIR``
additionally dumps one ``<name>.trace.jsonl`` per experiment for
``repro trace``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro import telemetry
from repro.experiments import (ablations, fig5, fig6, fig7, fig8, fig9,
                               fig10, pareto, table3)
from repro.telemetry import exporters

MODULES = {
    "table3": table3,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "ablations": ablations,
    "pareto": pareto,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("name", choices=sorted(MODULES) + ["all"])
    parser.add_argument("--scale", choices=("small", "full"),
                        default="small",
                        help="small = quick representative subset; "
                             "full = every field at paper settings")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="also write rendered artifacts (and fig8 "
                             "slice images) under DIR")
    parser.add_argument("--trace", action="store_true",
                        help="record telemetry per experiment and print "
                             "its stage breakdown")
    parser.add_argument("--trace-out", default=None, metavar="DIR",
                        help="with --trace: also dump one "
                             "<name>.trace.jsonl per experiment")
    parser.add_argument("--workers", default=None, metavar="N",
                        help="process-pool size for experiments that "
                             "support batch fan-out ('auto' = all cores; "
                             "default serial)")
    args = parser.parse_args(argv)
    workers = args.workers
    if workers is not None and workers != "auto":
        workers = int(workers)
    names = sorted(MODULES) if args.name == "all" else [args.name]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    if args.trace and args.trace_out:
        os.makedirs(args.trace_out, exist_ok=True)
    for name in names:
        t0 = time.time()
        reg = telemetry.Registry() if args.trace else None
        if args.trace:
            telemetry.enable(reg)
        try:
            import inspect
            kwargs = {"scale": args.scale}
            if name == "fig8" and args.out:
                kwargs["save_slices"] = True
            if workers is not None and "workers" in \
                    inspect.signature(MODULES[name].run).parameters:
                kwargs["workers"] = workers
            result = MODULES[name].run(**kwargs)
        finally:
            if args.trace:
                telemetry.disable()
        text = result.format()
        print(text)
        print(f"\n[{name} completed in {time.time() - t0:.1f}s "
              f"at scale={args.scale}]\n")
        if reg is not None:
            print(f"[{name} stage breakdown "
                  f"({len(reg.spans)} spans recorded)]")
            print(exporters.stage_breakdown(reg.spans))
            print()
            if args.trace_out:
                path = os.path.join(args.trace_out,
                                    f"{name}.trace.jsonl")
                with open(path, "w") as f:
                    f.write(exporters.to_jsonl(reg))
                print(f"[{name}: trace -> {path}]")
        if args.out:
            with open(os.path.join(args.out, f"{name}.txt"), "w") as f:
                f.write(text + "\n")
            if name == "fig8":
                from repro.experiments.visualize import save_fig8_slices
                paths = save_fig8_slices(
                    result, os.path.join(args.out, "fig8_slices"))
                print(f"[fig8: wrote {len(paths)} slice images]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
