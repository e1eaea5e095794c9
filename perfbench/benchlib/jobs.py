"""Workload ``jobs``: durable seed-selection jobs in process mode.

Set-up builds a small index (NetHEPT-W at scale 0.5, l=64), writes the
store and starts one ``repro serve --jobs`` process.  The timed phase
submits a seeded sequence of jobs covering all five models, at most
``nproc`` outstanding, and follows each to a terminal state.  Every job
journals with fsync, and the sphere-based models rerun Algorithm 2 over
every node, so this is a second, different consumer of cascade
extraction and the median.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

from benchlib import inputs, stats
from benchlib.client import MAX_CONNECTIONS, Connection, split_url
from benchlib.common import Context, Outcome, dir_bytes, stopwatch
from benchlib.procs import RssSampler, Server
from benchlib.tracing import Tracer

SETTING = "NetHEPT-W"
SCALE = 0.5
WORLDS = 64
SETUPS = 3
BUILD_JOBS = 2
TERMINAL = ("done", "cancelled", "failed-permanent")
#: Seconds one cycle of the five models takes at two jobs in flight on
#: two cores; the timed phase runs ``seconds / CYCLE_SECONDS`` whole
#: cycles (at least one), so every run has the same model mix.
CYCLE_SECONDS = 10.0
POLL_SECONDS = 0.1
#: A job that has not settled after this long counts as failed.
JOB_TIMEOUT = 120.0
STOP_TIMEOUT = 20.0


def load_graph():
    from repro.datasets.registry import load_setting

    return load_setting(SETTING, scale=SCALE).graph


def build_store(ctx: Context, graph, tag: str):
    from repro.store import build_index

    store = ctx.work / f"{tag}.cidx"
    shutil.rmtree(store, ignore_errors=True)
    index = build_index(graph, WORLDS, seed=ctx.seed, n_jobs=BUILD_JOBS)
    index.save(store, format="store")
    return index, store


def start_server(ctx: Context, store, tag: str) -> tuple[Server, Path]:
    """``repro serve --jobs`` over ``store``; returns it and its jobs dir."""
    jobs_dir = ctx.fresh_dir(f"{tag}.jobs")
    server = Server(
        [ctx.python, "-m", "repro", "serve", str(store), "--port", "0",
         "--jobs", "--jobs-dir", str(jobs_dir)],
        ctx.env, banner="serving ",
    )
    try:
        server.wait_healthy()
    except RuntimeError:
        server.kill()
        raise
    return server, jobs_dir


def run_job(conn: Connection, payload: dict) -> dict:
    """Submit one job, poll it to a terminal state, fetch its result.
    Returns the final status (with ``result`` when done)."""
    status, body = conn.request("POST", "/jobs/infmax", json.dumps(payload).encode())
    if status not in (200, 201, 202):
        raise RuntimeError(f"submit answered {status}: {body[:200]!r}")
    job_id = json.loads(body)["id"]
    give_up = time.monotonic() + JOB_TIMEOUT
    while True:
        status, body = conn.request("GET", f"/jobs/{job_id}")
        view = json.loads(body)
        if status == 200 and view["state"] in TERMINAL:
            break
        if time.monotonic() > give_up:
            raise RuntimeError(f"job {job_id} still {view.get('state')}")
        time.sleep(POLL_SECONDS)
    if view["state"] == "done":
        status, body = conn.request("GET", f"/jobs/{job_id}/result")
        if status == 200:
            view["result"] = json.loads(body)["result"]
    return view


def drive(url: str, sequence: list[dict],
          tracer: Tracer | None = None) -> tuple[list[tuple[str, dict]], int]:
    """Run every job of ``sequence`` on ``MAX_CONNECTIONS`` threads, one
    outstanding job each.  Returns ``(model, view)`` pairs and the number
    of jobs that raised."""
    host, port = split_url(url)
    lock = threading.Lock()
    cursor = iter(range(len(sequence)))
    done: list[tuple[str, dict]] = []
    errors = [0]

    def worker() -> None:
        conn = Connection(host, port)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                model = sequence[i]["model"]
                try:
                    if tracer is None:
                        view = run_job(conn, sequence[i])
                    else:
                        with tracer.span(f"client.job.{model}", rid=f"job-{i}"):
                            view = run_job(conn, sequence[i])
                except (OSError, RuntimeError, ValueError, KeyError):
                    with lock:
                        errors[0] += 1
                    continue
                with lock:
                    done.append((model, view))
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(MAX_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOB_TIMEOUT * len(sequence))
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a job-submitting thread did not finish")
    return done, errors[0]


def _reference(store: str, payload: dict) -> dict:
    """``run_to_completion`` of one spec in a fresh process (``spawn``
    hands the parent's ``sys.path`` over, so ``repro`` resolves to the
    same sources)."""
    from repro.cascades.index import CascadeIndex
    from repro.jobs.select import run_to_completion
    from repro.jobs.spec import JobSpec

    index = CascadeIndex.load(store)
    return run_to_completion(JobSpec.from_payload(payload, index.num_nodes), index)


def references(store, specs: dict, models: set[str]) -> dict:
    """Reference results of the models that ran, two processes at a time."""
    with ProcessPoolExecutor(MAX_CONNECTIONS, mp_context=get_context("spawn")) as pool:
        futures = {
            model: pool.submit(_reference, str(store), specs[model])
            for model in sorted(models)
        }
        return {model: future.result() for model, future in futures.items()}


def stop_server(server: Server, out: Outcome) -> None:
    seconds, hung = server.stop(STOP_TIMEOUT)
    out.check(not hung, f"jobs server did not drain within {STOP_TIMEOUT:g}s")
    out.line("teardown_s", seconds, "s", "hung, killed" if hung else "drained")


def run(ctx: Context) -> Outcome:
    out = Outcome()
    graph = load_graph()
    specs = inputs.job_specs(ctx.seed)
    sequence = inputs.job_sequence(
        ctx.seed, cycles=max(1, round(ctx.seconds / CYCLE_SECONDS)))
    times = []
    server = None
    try:
        for i in range(SETUPS):
            if server is not None:
                stop_server(server, out)
            with stopwatch() as took:
                _, store = build_store(ctx, graph, f"jobs-{i}")
                server, _ = start_server(ctx, store, f"jobs-{i}")
            times.append(took[0])
        with RssSampler([server.proc.pid]) as rss:
            done, errors = drive(server.url, sequence)
    finally:
        if server is not None:
            stop_server(server, out)
    expected = references(store, specs, {model for model, _ in done})
    for model, view in done:
        ok = view["state"] == "done" and view.get("result", {}).get(
            "seeds") == expected[model]["seeds"]
        out.check(ok, f"{model} job {view['id']} ended {view['state']} with "
                      f"{view.get('result')} instead of {expected[model]['seeds']}")
    out.attempted += errors
    out.failed += errors
    durations = [v["finished_at"] - v["submitted_at"] for _, v in done
                 if v.get("finished_at") is not None]
    span = (max(v["finished_at"] for _, v in done)
            - min(v["submitted_at"] for _, v in done))
    out.metrics["setup_s"] = (stats.median(times), "s")
    out.metrics["op_ms_p50"] = (stats.median(durations) * 1e3, "ms")
    out.metrics["ops_per_s"] = (len(done) / span, "1/s")
    out.metrics["peak_rss_mb"] = (rss.peak_mb, "MB")
    out.line("setup_s", stats.median(times), "s",
             "median of " + ", ".join(f"{t:.3f}" for t in times))
    out.line("job_s_p50", stats.median(durations), "s", f"n={len(durations)}")
    out.line("jobs_per_min", len(done) / span * 60.0, "1/min",
             f"{len(done)} jobs in {span:.2f}s")
    for model in inputs.JOB_MODELS:
        values = [v["finished_at"] - v["submitted_at"] for m, v in done if m == model]
        if values:
            out.report.append(f"  {model}: {stats.describe(values)} s")
    out.line("peak_rss_mb", rss.peak_mb, "MB", "server + job workers")
    return out


# -- traced run ------------------------------------------------------------


def _in_process(index, payload: dict, tracer: Tracer) -> tuple[dict, float]:
    """``run_to_completion`` spelled out through the public engine, with a
    span per family build and per selection step."""
    import repro.jobs.select as select
    from repro.jobs.spec import JobSpec

    spec = JobSpec.from_payload(payload, index.num_nodes)
    tracer.patch(select, "sphere_family", "jobs.select.family")
    try:
        with tracer.span(f"jobs.inprocess.{spec.model}") as whole:
            selection = select.build_selection(spec, index)
            while True:
                with tracer.span("jobs.select.step"):
                    if selection.step() is None:
                        break
            result = selection.finalize()
    finally:
        tracer.unpatch_all()
    return result, whole.end - whole.start


def _thread_mode(ctx: Context, index, specs: dict, tracer: Tracer, layers: dict) -> None:
    """Journal cost per job from an in-process thread-mode manager, with
    ``os.fsync`` counted and journal appends timed."""
    from repro.jobs.journal import JobJournal
    from repro.jobs.manager import JobManager

    jobs_dir = ctx.fresh_dir("traced-thread.jobs")
    fsync = os.fsync
    fsyncs = [0]

    def counted(fd):
        fsyncs[0] += 1
        return fsync(fd)

    tracer.replace(os, "fsync", counted)
    tracer.patch(JobJournal, "append", "jobs.journal.append")
    manager = JobManager(index, jobs_dir, mode="thread")
    models = ("ris", "celfpp")
    try:
        for model in models:
            job_id = manager.submit(specs[model])["id"]
            give_up = time.monotonic() + JOB_TIMEOUT
            while manager.status(job_id)["state"] not in TERMINAL:
                if time.monotonic() > give_up:
                    raise RuntimeError(f"thread-mode job {job_id} did not settle")
                time.sleep(POLL_SECONDS)
    finally:
        manager.stop()
        tracer.unpatch_all()
    layers["jobs.fsyncs_per_job"] = (fsyncs[0] / len(models), "count")
    layers["jobs.bytes_written_per_job"] = (dir_bytes(jobs_dir) / len(models), "bytes")
    layers["jobs.journal.append_ms"] = (
        stats.median(tracer.durations("jobs.journal.append")) * 1e3, "ms")


def traced(ctx: Context, tracer: Tracer, layers: dict, overhead: bool,
           out: Outcome) -> None:
    from repro.jobs.journal import JobJournal

    graph = load_graph()
    specs = inputs.job_specs(ctx.seed)
    sequence = inputs.job_sequence(ctx.seed, cycles=1)
    index, store = build_store(ctx, graph, "traced-jobs")
    server, jobs_dir = start_server(ctx, store, "traced-jobs")
    try:
        done, errors = drive(server.url, sequence, tracer)
        plain = drive(server.url, sequence)[0] if overhead else None
    finally:
        stop_server(server, out)
    out.check(errors == 0, "traced jobs failed")
    waits, walls = [], {}
    for model, view in done:
        records = JobJournal(jobs_dir / view["id"]).replay()
        started = next(r["at"] for r in records if r.get("type") == "attempt")
        waits.append(started - view["submitted_at"])
        walls[model] = view["finished_at"] - view["submitted_at"]
    inproc = {}
    for model in sorted(walls):
        result, seconds = _in_process(index, specs[model], tracer)
        inproc[model] = seconds
        match = next(v for m, v in done if m == model)
        out.check(match.get("result", {}).get("seeds") == result["seeds"],
                  f"traced {model} job differs from the in-process engine")
    layers["jobs.select.family_s"] = (
        stats.median(tracer.durations("jobs.select.family")), "s")
    layers["jobs.select.step_ms"] = (
        stats.median(tracer.durations("jobs.select.step")) * 1e3, "ms")
    layers["jobs.manager.queue_wait_s"] = (stats.median(waits), "s")
    layers["jobs.orchestration_s"] = (
        stats.median([walls[m] - inproc[m] for m in walls]), "s")
    if overhead:
        base = stats.median([v["finished_at"] - v["submitted_at"] for _, v in plain])
        traced_p50 = stats.median(list(walls.values()))
        layers["trace.overhead_pct"] = ((traced_p50 - base) / base * 100.0, "%")
    _thread_mode(ctx, index, specs, tracer, layers)
