#!/usr/bin/env python3
"""Write ``perfbench/expected_spheres.json``: the ``sweep`` workload's
first-pass sphere-store digest for each of a range of seeds.

The ``sweep`` workload checks its first pass against the digest committed
here for its seed, so a change that alters the spheres deterministically
(the same wrong answer on every pass) fails the benchmark.  Regenerate
only when the spheres are meant to change.  Run from the root of a
checkout::

    python3 perfbench/expected_spheres.py --first 0 --last 63
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import locate_program  # noqa: E402


def first_pass_digest(seed: int, graph, work: Path) -> str:
    """What ``sweep.run`` computes as its first pass, as a digest."""
    from benchlib import sweep
    from benchlib.common import Context
    from repro.core.typical_cascade import TypicalCascadeComputer

    ctx = Context(seed=seed, seconds=0.0, root=Path.cwd(), work=work)
    _, index, store, _ = sweep.build_store(ctx, graph, f"expected-{seed}")
    computer = TypicalCascadeComputer(index)
    nodes = sweep.node_set(index, seed)
    digest = sweep.sphere_digest(index, {v: computer.compute(v) for v in nodes})
    shutil.rmtree(store, ignore_errors=True)
    return digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=63)
    args = parser.parse_args(argv)
    locate_program(Path.cwd())
    from benchlib import sweep

    graph = sweep.load_graph()
    digests = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as work:
        for seed in range(args.first, args.last + 1):
            digests[str(seed)] = first_pass_digest(seed, graph, Path(work))
            print(f"seed {seed}: {digests[str(seed)]}", flush=True)
    document = {
        "about": "First-pass SphereStore.digest() of the sweep workload by "
                 "seed; written by perfbench/expected_spheres.py.",
        "setting": sweep.SETTING, "scale": sweep.SCALE, "worlds": sweep.WORLDS,
        "digests": digests,
    }
    sweep.EXPECTED.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
