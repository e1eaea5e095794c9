#!/usr/bin/env python3
"""The repository benchmark: one seeded command for every workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the workload untraced and prints its end-to-end
metrics.  ``--trace 1`` runs the traced probes of every layer (spans and
counters recorded by the benchmark around the program's public
functions, HTTP endpoints and ``/metrics``) and the selected workload
once more untraced, for the tracing overhead.  The report comes first,
one metric per line under the names of ``perfbench/README.md``; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans are written to ``.bench_work/traces/``.

The benchmark imports the program from ``src/`` of the directory it runs
in and refuses to run (exit 1, no result) where there is none.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("sweep", "serve", "jobs", "ingest")


def locate_program(root: Path) -> None:
    """Put ``root/src`` first on the path and make sure ``repro`` is the
    package found there, not one installed elsewhere."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}/repro; run from "
                 "the root of a checkout")
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def traced_run(ctx, workload: str):
    from benchlib import ingest, jobs, serve, sweep
    from benchlib.common import Outcome
    from benchlib.tracing import Tracer

    out = Outcome()
    layers = out.metrics
    tracers = {name: Tracer() for name in WORKLOADS}
    index, store = sweep.traced(ctx, tracers["sweep"], layers, workload == "sweep")
    serve.traced(ctx, tracers["serve"], layers, workload == "serve", index, store, out)
    jobs.traced(ctx, tracers["jobs"], layers, workload == "jobs", out)
    ingest.traced(ctx, tracers["ingest"], layers, workload == "ingest", out)
    trace_dir = ctx.root / ".bench_work" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for name, tracer in tracers.items():
        tracer.dump(str(trace_dir / f"{workload}-seed{ctx.seed}-{name}.json"))
    for name, (value, unit) in sorted(layers.items()):
        out.line(name, value, unit)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    locate_program(root)
    from benchlib.common import Context

    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(seed=args.seed, seconds=args.seconds, root=root, work=work)
    try:
        if args.trace:
            outcome = traced_run(ctx, args.workload)
        else:
            outcome = importlib.import_module(f"benchlib.{args.workload}").run(ctx)
        outcome.error_ratio()
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in outcome.report:
        print(f"  {line}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(outcome.metrics.items())
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
