"""Workload ``serve``: the warm read path of a 2-shard fleet.

Set-up builds the Epinions-W index, writes the store, partitions it into
two node-range shards (one replica each) and starts ``repro serve-fleet``
until ``/healthz`` is ok; a batch then warms the workers' caches with the
hot node set.  Traffic is Zipf-popular ``/sphere`` reads of hot nodes,
uniform ``/cascades`` reads (which put cascade extraction back on the
serving path) and ``POST /spheres`` batches spanning both shards, sent
over at most two keep-alive connections: first an open loop at a fixed
rate the fleet sustains without backlog, then a closed loop at
saturation.  Transport and the router hop dominate this workload.
"""

from __future__ import annotations

import json
import shutil

import numpy as np

from benchlib import inputs, stats, sweep
from benchlib.client import Pool, split_url
from benchlib.common import Context, Outcome, prom_sum, stopwatch
from benchlib.procs import RssSampler, Server
from benchlib.tracing import Tracer

SHARDS = 2
HOT = 64
#: Open loop: sessions of SESSION requests arrive at RATE per second;
#: a session sends its requests back to back on one connection, as a
#: client making dependent calls through a connection pool does.  A
#: request that follows the previous reply on its connection within the
#: 40 ms delayed-ACK timer meets the known 44 ms reuse stall; the first
#: request of a session (its connection idle for over 200 ms) does not.
#: At 6 sessions/s two connections are busy about a third of the time.
#: HOT, RATE and SESSION are unverified choices, not a model of measured
#: traffic: no trace in the repository gives them.  SESSION = 3 was
#: chosen so the stall shows (two thirds of open-loop requests meet it),
#: so ``req_ms_p50`` follows the session length as much as the server.
RATE = 6.0
SESSION = 3
OPEN_SHARE = 0.6
#: Teardown time limit, seconds.
STOP_TIMEOUT = 20.0

_COUNTS = {
    "serve.store_hits": "repro_serve_store_hits_total",
    "serve.computes": "repro_serve_computes_total",
    "serve.coalesced": "repro_serve_coalesced_total",
    "serve.shed": "repro_serve_shed_total",
    "shard.router.failovers": "repro_router_failovers_total",
    "shard.router.hedges": "repro_router_hedges_total",
}


def hot_nodes(num_nodes: int, seed: int) -> list[int]:
    rng = np.random.default_rng([seed, 6])
    return [int(v) for v in rng.choice(num_nodes, size=HOT, replace=False)]


def start_fleet(ctx: Context, store, tag: str) -> Server:
    """Partition ``store`` and start the fleet until it reports healthy."""
    from repro.shard.partition import partition_store

    fleet_dir = ctx.work / f"{tag}.fleet"
    shutil.rmtree(fleet_dir, ignore_errors=True)
    partition_store(store, fleet_dir, SHARDS)
    server = Server(
        [ctx.python, "-m", "repro", "serve-fleet", str(fleet_dir), "--port", "0"],
        ctx.env, banner="routing ",
    )
    try:
        server.wait_healthy()
    except RuntimeError:
        server.kill()
        raise
    return server


def metrics_text(url: str) -> str:
    pool = Pool(url, size=1)
    try:
        status, body = pool.connections[0].request("GET", "/metrics")
    finally:
        pool.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return body.decode()


def warm(url: str, hot: list[int]) -> None:
    pool = Pool(url, size=1)
    try:
        body = json.dumps({"nodes": hot}).encode()
        status, _ = pool.connections[0].request("POST", "/spheres", body)
    finally:
        pool.close()
    if status != 200:
        raise RuntimeError(f"warming batch answered {status}")


def expected_bodies(store, requests) -> dict:
    """Canonical JSON of every distinct request from an in-process
    ``SphereService`` over the same store."""
    from repro.serve.app import SphereService
    from repro.serve.query import canonical_json

    service = SphereService(store)
    expected = {}
    for req in requests:
        key = (req.method, req.path, req.body)
        if key in expected:
            continue
        if req.kind == "sphere":
            payload = service.sphere(req.nodes[0])
        elif req.kind == "cascades":
            payload = service.cascades(req.nodes[0])
        else:
            payload = service.sphere_batch(list(req.nodes))
        expected[key] = canonical_json(payload)
    return expected


def make_check(expected: dict):
    def check(req, status: int, body: bytes) -> bool:
        return status == 200 and body == expected[(req.method, req.path, req.body)]

    return check


def stop_fleet(server: Server, out: Outcome) -> None:
    seconds, hung = server.stop(STOP_TIMEOUT)
    out.check(not hung, f"fleet did not drain within {STOP_TIMEOUT:g}s of SIGTERM")
    out.line("teardown_s", seconds, "s", "hung, killed" if hung else "drained")


def run(ctx: Context) -> Outcome:
    out = Outcome()
    graph = sweep.load_graph()
    servers: list[Server] = []

    def fleet_setup(index, store, i: int) -> float:
        with stopwatch() as took:
            servers.append(start_fleet(ctx, store, f"serve-{i}"))
        if i < sweep.SETUPS - 1:
            stop_fleet(servers.pop(), out)
        return took[0]

    try:
        _, index, store = sweep.repeated_setup(ctx, graph, "serve", out, fleet_setup)
        server = servers[0]
        hot = hot_nodes(index.num_nodes, ctx.seed)
        split = index.num_nodes // SHARDS
        warm(server.url, hot)
        opens = int(RATE * ctx.seconds * OPEN_SHARE) * SESSION
        requests = inputs.serve_requests(
            ctx.seed, hot, index.num_nodes, split, opens + int(ctx.seconds * 60))
        check = make_check(expected_bodies(store, requests))
        computes_before = prom_sum(metrics_text(server.url), "repro_serve_computes_total")
        pool = Pool(server.url)
        try:
            with RssSampler([server.proc.pid]) as rss:
                open_phase = pool.open_loop(requests[:opens], RATE, check,
                                            session=SESSION)
                closed = pool.closed_loop(
                    requests, ctx.seconds * (1 - OPEN_SHARE), check)
            computes_after = prom_sum(metrics_text(server.url), "repro_serve_computes_total")
            reconnects = pool.reconnects
        finally:
            # An idle keep-alive connection wedges the fleet's drain, so
            # the client hangs up before SIGTERM.
            pool.close()
        stop_fleet(servers.pop(), out)
    finally:
        for server in servers:
            server.kill()
    out.check(computes_after == computes_before,
              f"hot requests ran {computes_after - computes_before:g} computes")
    for phase in (open_phase, closed):
        out.attempted += phase.sent
        out.failed += phase.failed
        out.report.append(phase.summary())
    out.metrics["op_ms_p50"] = (stats.median(open_phase.latencies_ms), "ms")
    out.metrics["ops_per_s"] = (closed.succeeded / closed.elapsed_s, "1/s")
    out.metrics["peak_rss_mb"] = (rss.peak_mb, "MB")
    out.timing("req_ms", open_phase.latencies_ms)
    for kind, values in sorted(open_phase.kinds.items()):
        out.report.append(f"  open loop {kind}: {stats.describe(values)} ms")
    out.line("req_per_s", closed.succeeded / closed.elapsed_s, "1/s",
             f"closed loop, {len(pool.connections)} keep-alive connections")
    out.timing("closed_req_ms", closed.latencies_ms)
    out.timing("client.lateness_ms", open_phase.lateness_ms)
    out.line("reconnects", reconnects, "count")
    out.line("peak_rss_mb", rss.peak_mb, "MB", "router + workers")
    return out


# -- traced run ------------------------------------------------------------


def _timed(tracer: Tracer, name: str, conn, method: str, path: str,
           body: bytes | None = None) -> float:
    with tracer.span(name) as span:
        status, _ = conn.request(method, path, body)
    if status != 200:
        raise RuntimeError(f"{method} {path} answered {status}")
    return span.end - span.start


def traced(ctx: Context, tracer: Tracer, layers: dict, overhead: bool,
           index, store, out: Outcome) -> None:
    """Hop-by-hop numbers of the serve and shard layers: in-process
    ``SphereService`` calls, the same requests sent straight to the
    owning worker, and through the router; counters from ``/metrics``."""
    from repro.serve.app import SphereService

    hot = hot_nodes(index.num_nodes, ctx.seed)
    split = index.num_nodes // SHARDS
    server = start_fleet(ctx, store, "traced")
    pools: list[Pool] = []
    try:
        warm(server.url, hot)
        service = SphereService(store)
        for node in hot:
            service.sphere(node)
        batches = [r for r in inputs.serve_requests(
            ctx.seed, hot, index.num_nodes, split, 200) if r.kind == "batch"][:20]
        # Each stage runs back to back on its own connection, so every
        # HTTP hop is measured on a reused keep-alive connection, as the
        # workload's traffic arrives; at most two connections are open.
        for node in hot * 2:
            with tracer.span("serve.app.sphere"):
                service.sphere(node)
        for req in batches:
            with tracer.span("serve.app.batch"):
                service.sphere_batch(list(req.nodes))
        router = Pool(server.url, size=1)
        pools.append(router)
        for node in hot * 2:
            _timed(tracer, "router.sphere", router.connections[0], "GET",
                   f"/sphere/{node}")
        routed = [_timed(tracer, "router.batch", router.connections[0], "POST",
                         "/spheres", req.body) for req in batches]
        direct = []
        for shard, url in enumerate(server.worker_urls()):
            worker = Pool(url, size=1)
            pools.append(worker)
            conn = worker.connections[0]
            for node in [v for v in hot if v // split == shard] * 2:
                _timed(tracer, "worker.sphere", conn, "GET", f"/sphere/{node}")
            direct.append([
                _timed(tracer, "worker.batch", conn, "POST", "/spheres",
                       json.dumps({"nodes": [v for v in req.nodes
                                             if v // split == shard]}).encode())
                for req in batches
            ])
            worker.close()
        gather = [r - max(d) for r, *d in zip(routed, *direct)]
        med = {name: stats.median(tracer.durations(name)) * 1e3
               for name in ("serve.app.sphere", "worker.sphere", "router.sphere",
                            "serve.app.batch")}
        layers["serve.app.sphere_ms"] = (med["serve.app.sphere"], "ms")
        layers["serve.app.batch_ms"] = (med["serve.app.batch"], "ms")
        layers["serve.worker_hop_ms"] = (med["worker.sphere"] - med["serve.app.sphere"], "ms")
        layers["shard.router.hop_ms"] = (med["router.sphere"] - med["worker.sphere"], "ms")
        layers["shard.router.batch_ms"] = (stats.median(gather) * 1e3, "ms")
        for pool in pools:
            pool.close()
        pools.clear()

        seconds = ctx.seconds / 4
        count = int(RATE * seconds) * SESSION
        requests = inputs.serve_requests(ctx.seed, hot, index.num_nodes, split, count)
        check = make_check(expected_bodies(store, requests))
        traced_pool = Pool(server.url, tracer=tracer)
        pools.append(traced_pool)
        phase = traced_pool.open_loop(requests, RATE, check, "traced open-loop",
                                      SESSION)
        out.check(phase.failed == 0, "traced serve requests failed")
        layers["client.lateness_ms_p99"] = (stats.tail(phase.lateness_ms)[0], "ms")
        if overhead:
            plain_pool = Pool(server.url)
            pools.append(plain_pool)
            plain = plain_pool.open_loop(requests, RATE, check,
                                         "untraced open-loop", SESSION)
            base = stats.median(plain.latencies_ms)
            layers["trace.overhead_pct"] = (
                (stats.median(phase.latencies_ms) - base) / base * 100.0, "%")
        for pool in pools:
            pool.close()
        pools.clear()
        text = metrics_text(server.url)
        for metric, name in _COUNTS.items():
            layers[metric] = (prom_sum(text, name), "count")
        hits = prom_sum(text, "repro_serve_cache_hits_total")
        misses = prom_sum(text, "repro_serve_cache_misses_total")
        layers["serve.cache_hit_ratio"] = (hits / max(hits + misses, 1), "ratio")
        layers["serve.cache_lookups"] = (hits + misses, "count")
    finally:
        for pool in pools:
            pool.close()
        stop_fleet(server, out)
