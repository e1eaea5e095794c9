"""Workload ``ingest``: the ETL write path on a generated edge list.

The input is a seeded SNAP-style edge list of about 1.2M arcs with
comments, duplicates and self-loops.  The timed phase runs
``repro.data.ingest(file=...)`` into a fresh data root again and again:
streaming parse into spill files, CSR assembly into memory-mapped
arrays, journal and manifest.  No other workload touches ``data``.
"""

from __future__ import annotations

import importlib
import os
import shutil
import subprocess
import time

from benchlib import inputs, speed, stats
from benchlib.common import Context, Outcome, io_write_bytes, stopwatch
from benchlib.procs import RssSampler
from benchlib.tracing import Tracer

ARCS = 1_200_000
NODES = 100_000
#: Interpreter start is short and noisy, so more set-ups than elsewhere.
SETUPS = 7
#: At least this many ingests per run, so the manifest digest is compared.
MIN_INGESTS = 2


def make_input(ctx: Context):
    path = ctx.work / "edges.txt"
    size = inputs.write_edge_file(str(path), ctx.seed, ARCS, NODES)
    return path, size


def import_seconds(ctx: Context, meter: speed.Meter) -> float:
    """Interpreter start plus ``import repro.data``, what ``repro data
    ingest`` pays before it reads a byte, at the reference CPU speed.  The
    child inherits the meter's CPU; it is single-threaded."""
    mark = meter.mark()
    with stopwatch() as took:
        subprocess.run([ctx.python, "-c", "import repro.data"], env=ctx.env,
                       check=True, timeout=120)
    return meter.scaled_since(mark, took[0])


def ingest_once(ctx: Context, path, i: int):
    from repro.data import ingest

    root = ctx.fresh_dir(f"data-{i}")
    return ingest("bench", file=str(path), root=str(root))


def run(ctx: Context) -> Outcome:
    from repro.data import verify_dataset

    out = Outcome()
    path, size = make_input(ctx)
    with speed.Meter() as meter:
        times = [import_seconds(ctx, meter) for _ in range(SETUPS)]
    out.metrics["setup_s"] = (stats.median(times), "s")
    out.line("setup_s", stats.median(times), "s",
             "median of " + ", ".join(f"{t:.3f}" for t in times))
    durations, scaled, arcs, digests = [], [], 0, set()
    begin = time.perf_counter()
    with RssSampler([os.getpid()]) as rss, speed.Meter() as meter:
        while len(durations) < MIN_INGESTS or time.perf_counter() - begin < ctx.seconds:
            start, mark = time.perf_counter(), meter.mark()
            report = ingest_once(ctx, path, len(durations))
            durations.append(time.perf_counter() - start)
            scaled.append(meter.scaled_since(mark, durations[-1]))
            arcs += report.manifest["parse"]["raw_edges"]
            digests.add(report.manifest["manifest_digest"])
            try:
                verify_dataset(report.directory, full=True)
                verified = True
            except ValueError:
                verified = False
            out.check(verified, f"verify_dataset failed on ingest {len(durations)}")
            shutil.rmtree(report.directory.parent.parent, ignore_errors=True)
    out.check(len(digests) == 1, f"manifest digests differ: {sorted(digests)}")
    rate = arcs / sum(durations)
    out.metrics["op_ms_p50"] = (stats.median(scaled) * 1e3, "ms")
    out.metrics["ops_per_s"] = (arcs / sum(scaled), "1/s")
    out.metrics["peak_rss_mb"] = (rss.peak_mb, "MB")
    out.line("ingest_edges_per_s", rate, "raw arcs/s",
             f"{len(durations)} ingests of {size} bytes")
    out.line("ingest_s_p50", stats.median(durations), "s", f"n={len(durations)}")
    out.line("ingest_edges_per_s_ref", arcs / sum(scaled), "raw arcs/s",
             "at the reference speed")
    out.line("ingest_s_ref_p50", stats.median(scaled), "s", "at the reference speed")
    out.line("peak_rss_mb", rss.peak_mb, "MB", "benchmark process")
    out.report.append(f"manifest digest: {sorted(digests)}")
    return out


def traced(ctx: Context, tracer: Tracer, layers: dict, overhead: bool,
           out: Outcome) -> None:
    """Parse and assembly spans inside one ingest, fsyncs counted, bytes
    written to storage per input byte."""
    from repro.data import verify_dataset

    # ``repro.data.ingest`` names both the module and the function the
    # package re-exports, so the module is looked up explicitly.
    ingest_module = importlib.import_module("repro.data.ingest")

    path, size = make_input(ctx)
    fsync = os.fsync
    fsyncs = [0]

    def counted(fd):
        fsyncs[0] += 1
        return fsync(fd)

    tracer.patch(ingest_module, "parse_edge_file", "data.parse.parse")
    tracer.patch(ingest_module, "assemble_csr", "data.parse.assemble")
    tracer.replace(os, "fsync", counted)
    written = io_write_bytes()
    try:
        with speed.Meter() as meter, tracer.span("data.ingest") as whole:
            report = ingest_once(ctx, path, 0)
        traced_s = meter.scaled_since(0, whole.end - whole.start)
    finally:
        tracer.unpatch_all()
    written = io_write_bytes() - written
    verify_dataset(report.directory, full=True)
    layers["data.parse.parse_s"] = (tracer.durations("data.parse.parse")[0], "s")
    layers["data.parse.assemble_s"] = (tracer.durations("data.parse.assemble")[0], "s")
    layers["data.ingest.rest_s"] = (tracer.self_durations("data.ingest")[0], "s")
    layers["data.bytes_written_per_input_byte"] = (written / size, "ratio")
    layers["data.fsyncs"] = (float(fsyncs[0]), "count")
    if overhead:
        with speed.Meter() as meter, stopwatch() as took:
            ingest_once(ctx, path, 1)
        plain = meter.scaled_since(0, took[0])
        layers["trace.overhead_pct"] = ((traced_s - plain) / plain * 100.0, "%")
