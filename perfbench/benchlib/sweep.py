"""Workload ``sweep``: Algorithm 2 in process over Epinions-W.

Set-up builds the cascade index (Algorithm 1, l=128), writes the store
and opens it lazily; the timed phase calls
``TypicalCascadeComputer.compute`` over a seeded node set (the heaviest
nodes by mean cascade size plus a stratified uniform sample) pass after
pass.  No
HTTP is involved, so a transport change should not move this workload;
cascade extraction and the Jaccard median share its time.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path

from benchlib import inputs, speed, stats
from benchlib.common import Context, Outcome, dir_bytes, stopwatch
from benchlib.procs import RssSampler
from benchlib.tracing import Tracer

SETTING = "Epinions-W"
SCALE = 1.0
WORLDS = 128
#: Worlds used to rank nodes by mean cascade size when picking the set.
RANK_WORLDS = 16
TOP = 8
UNIFORM = 120
#: Set-up is repeated this many times and its median reported.
SETUPS = 3
#: First-pass sphere-store digests committed by seed.
EXPECTED = Path(__file__).resolve().parent.parent / "expected_spheres.json"


def load_graph():
    from repro.datasets.registry import load_setting

    return load_setting(SETTING, scale=SCALE).graph


def build_store(ctx: Context, graph, tag: str):
    """Index build (in process, the program's default), store write, lazy
    open and first touch; returns ``(built, index, store_dir, seconds)``:
    the index as built in memory and as opened lazily from the store, and
    the time taken at the reference CPU speed."""
    from repro.cascades.index import CascadeIndex
    from repro.store import build_index

    store = ctx.work / f"{tag}.cidx"
    shutil.rmtree(store, ignore_errors=True)
    with speed.Meter() as meter, stopwatch() as took:
        built = build_index(graph, WORLDS, seed=ctx.seed)
        built.save(store, format="store")
        index = CascadeIndex.load(store, verify="lazy")
        index.cascades(0)
    return built, index, store, meter.scaled_since(0, took[0])


def repeated_setup(ctx: Context, graph, tag: str, out: Outcome, extra=None):
    """Run the set-up ``SETUPS`` times; keep the last store, check that
    every build of this seed has the same content digest.  Returns the
    last ``(built, index, store)``."""
    times, digests = [], []
    store = None
    for i in range(SETUPS):
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)
        # The previous build is freed before the next one starts.
        built = index = None
        built, index, store, seconds = build_store(ctx, graph, f"{tag}-{i}")
        if extra is not None:
            seconds += extra(index, store, i)
        times.append(seconds)
        digests.append(index.store_header.content_digest)
    out.check(len(set(digests)) == 1, "index content digest differs between builds")
    out.metrics["setup_s"] = (stats.median(times), "s")
    out.line("setup_s", stats.median(times), "s",
             "median of " + ", ".join(f"{t:.3f}" for t in times))
    return built, index, store


def node_set(index, seed: int) -> list[int]:
    from repro.cascades.index import CascadeIndex

    head = CascadeIndex(
        index.graph,
        [index.condensation(w) for w in range(RANK_WORLDS)],
        reduced=index.reduced,
    )
    mean_sizes = head.all_cascade_sizes().mean(axis=1)
    return inputs.sweep_nodes(mean_sizes, seed, TOP, UNIFORM)


def sphere_digest(index, spheres: dict) -> str:
    from repro.core.store import SphereStore
    from repro.store.provenance import IndexProvenance

    provenance = IndexProvenance.from_header(index.store_header)
    return SphereStore(spheres, provenance=provenance).digest()


def expected_digests() -> dict[str, str]:
    """Committed first-pass sphere-store digests by seed (see
    ``perfbench/expected_spheres.py``)."""
    return json.loads(EXPECTED.read_text())["digests"]


def timed_passes(compute, nodes: list[int], seconds: float, min_passes: int):
    """Compute spheres pass after pass until ``seconds`` are up and at
    least ``min_passes`` passes are complete.  Each call is timed; the
    calls of a pass are also scaled to the reference speed by the probes
    a :class:`~benchlib.speed.Meter` takes during that pass.  Returns
    per-call latencies (ms) as measured and at the reference speed, the
    spheres of each pass (the last one may be partial), and the elapsed
    seconds."""
    latencies: list[float] = []
    scaled: list[float] = []
    passes: list[dict] = []
    begin = time.perf_counter()
    with speed.Meter() as meter:
        while True:
            current: dict = {}
            passes.append(current)
            mark, first = meter.mark(), len(latencies)
            for node in nodes:
                start = time.perf_counter()
                current[node] = compute(node)
                end = time.perf_counter()
                latencies.append((end - start) * 1e3)
                if end - begin >= seconds and len(passes) > min_passes:
                    break
            factor = meter.factor(mark)
            scaled += [ms * factor for ms in latencies[first:]]
            if end - begin >= seconds and len(passes) >= min_passes:
                return latencies, scaled, passes, end - begin


def run(ctx: Context) -> Outcome:
    from repro.cascades.index import CascadeIndex
    from repro.core.typical_cascade import TypicalCascadeComputer

    out = Outcome()
    graph = load_graph()
    built, index, _ = repeated_setup(ctx, graph, "sweep", out)
    # The reference copy of the index: the archive format, decoded whole
    # into memory when loaded, so the store's lazy read path is checked
    # against another one.
    archive = ctx.work / "reference.npz"
    built.save(archive)
    del built
    nodes = node_set(index, ctx.seed)
    computer = TypicalCascadeComputer(index)
    with RssSampler([os.getpid()]) as rss:
        latencies, scaled, passes, elapsed = timed_passes(
            computer.compute, nodes, ctx.seconds, 1)
    reference = TypicalCascadeComputer(CascadeIndex.load(archive))
    expected = sphere_digest(index, {v: reference.compute(v) for v in nodes})
    # The first (whole) pass must match the reference and, where one is
    # committed for this seed, the digest earlier commits computed; every
    # later (possibly partial) pass must reproduce the first pass's
    # spheres for the nodes it covered.
    first = passes[0]
    digest = sphere_digest(index, first)
    out.check(digest == expected,
              "sphere-store digest differs from the archived index's")
    committed = expected_digests().get(str(ctx.seed))
    if committed is not None:
        out.check(digest == committed,
                  f"sphere-store digest differs from the committed one for "
                  f"seed {ctx.seed}")
    for spheres in passes[1:]:
        if spheres:
            out.check(sphere_digest(index, spheres)
                      == sphere_digest(index, {v: first[v] for v in spheres}),
                      "sphere-store digest differs between passes")
    out.attempted += len(latencies)
    rate = len(latencies) / (sum(latencies) / 1e3)
    scaled_rate = len(scaled) / (sum(scaled) / 1e3)
    out.metrics["op_ms_p50"] = (stats.median(scaled), "ms")
    out.metrics["ops_per_s"] = (scaled_rate, "1/s")
    out.metrics["peak_rss_mb"] = (rss.peak_mb, "MB")
    out.line("spheres_per_s", rate, "1/s",
             f"{len(latencies)} spheres over {len(nodes)} nodes, {elapsed:.2f}s")
    out.timing("sphere_ms", latencies)
    out.line("spheres_per_s_ref", scaled_rate, "1/s", "at the reference speed")
    out.timing("sphere_ms_ref", scaled)
    out.line("peak_rss_mb", rss.peak_mb, "MB", "benchmark process")
    out.report.append(
        f"{len(passes)} passes; sphere-store digest of the first: {digest}"
        + ("" if committed is not None else
           f" (none committed for seed {ctx.seed})"))
    return out


# -- traced run ------------------------------------------------------------

_BUILD_METRICS = {
    "graph.sampling.world": "graph.sampling.world_ms",
    "graph.condensation.condense": "graph.condensation.condense_ms",
    "graph.transitive.reduce": "graph.transitive.reduce_ms",
}


def traced_build(ctx: Context, graph, tracer: Tracer, layers: dict):
    """Algorithm 1 world by world through the graph modules' public
    functions, then the store write, lazy open and first touch."""
    from repro.cascades.index import CascadeIndex
    from repro.graph.condensation import condense
    from repro.graph.sampling import WorldSampler
    from repro.graph.transitive import reduce_condensation

    sampler = WorldSampler(graph, ctx.seed)
    conds, components, edges = [], [], []
    for world in range(WORLDS):
        with tracer.span("graph.sampling.world", rid=f"world-{world}"):
            mask = sampler.world_mask(world)
        with tracer.span("graph.condensation.condense", rid=f"world-{world}"):
            cond = condense(graph, mask)
        components.append(cond.num_components)
        with tracer.span("graph.transitive.reduce", rid=f"world-{world}"):
            cond = reduce_condensation(cond)
        edges.append(cond.num_edges)
        conds.append(cond)
    built = CascadeIndex(graph, conds, reduced=True, sampler=sampler)
    store = ctx.work / "traced.cidx"
    shutil.rmtree(store, ignore_errors=True)
    with tracer.span("store.format.write"):
        built.save(store, format="store")
    with tracer.span("store.format.open"):
        index = CascadeIndex.load(store, verify="lazy")
    first = time.perf_counter()
    index.cascades(0)
    again = time.perf_counter()
    index.cascades(0)
    warm = time.perf_counter() - again
    for span, metric in _BUILD_METRICS.items():
        layers[metric] = (stats.median(tracer.durations(span)) * 1e3, "ms")
    layers["graph.condensation.components_per_world"] = (
        sum(components) / WORLDS, "count")
    layers["graph.transitive.dag_edges_per_world"] = (sum(edges) / WORLDS, "count")
    layers["store.format.write_s"] = (tracer.durations("store.format.write")[0], "s")
    layers["store.format.open_ms"] = (
        tracer.durations("store.format.open")[0] * 1e3, "ms")
    layers["store.integrity.first_touch_ms"] = (
        (again - first - warm) * 1e3, "ms")
    layers["store.payload_bytes"] = (float(dir_bytes(store)), "bytes")
    return index, store




def traced_spheres(index, nodes, tracer: Tracer, seconds: float, layers: dict):
    """One traced sweep: spans around extraction, sample packing, the
    median and each whole compute; a count of median candidate scorings.
    Returns the per-call latencies at the reference speed."""
    import repro.core.typical_cascade as typical
    from repro.cascades.index import CascadeIndex
    from repro.median.samples import SampleCollection
    from repro.serve import query

    counts = {"elements": 0, "scorings": 0}
    extract = CascadeIndex.cascades
    score = SampleCollection.mean_distance

    def cascades(self, node):
        with tracer.span("cascades.index.cascades"):
            found = extract(self, node)
        counts["elements"] += sum(len(c) for c in found)
        return found

    def mean_distance(self, candidate):
        counts["scorings"] += 1
        return score(self, candidate)

    tracer.replace(CascadeIndex, "cascades", cascades)
    tracer.replace(SampleCollection, "mean_distance", mean_distance)
    tracer.patch(typical, "SampleCollection", "median.samples")
    tracer.patch(typical, "jaccard_median", "median.jaccard_median")
    try:
        computer = typical.TypicalCascadeComputer(index)

        def compute(node):
            with tracer.span("core.typical_cascade.compute", rid=f"node-{node}"):
                return computer.compute(node)

        _, scaled, _, _ = timed_passes(compute, nodes, seconds, 0)
    finally:
        tracer.unpatch_all()
    calls = len(scaled)
    for name in ("cascades.index.cascades", "median.jaccard_median"):
        values = [d * 1e3 for d in tracer.durations(name)]
        layers[f"{name}_ms_p50"] = (stats.median(values), "ms")
        layers[f"{name}_ms_p99"] = (stats.tail(values, 99.0)[0], "ms")
    layers["cascades.index.elements_per_node"] = (counts["elements"] / calls, "count")
    layers["median.samples_ms"] = (
        stats.median(tracer.durations("median.samples")) * 1e3, "ms")
    layers["median.candidates_per_node"] = (counts["scorings"] / calls, "count")
    layers["core.typical_cascade.self_ms"] = (
        stats.median(tracer.self_durations("core.typical_cascade.compute")) * 1e3,
        "ms")
    for node in nodes[:40]:
        with tracer.span("cascades.index.cascade_size"):
            query.cascade_stats_payload(index, node)
    layers["cascades.index.cascade_size_ms"] = (
        stats.median(tracer.durations("cascades.index.cascade_size")) * 1e3, "ms")
    return scaled


def traced(ctx: Context, tracer: Tracer, layers: dict, overhead: bool):
    """Per-layer numbers of the graph, store, cascades, median and core
    layers.  With ``overhead`` the same node set is also swept untraced
    for as long, and the difference of the medians (at the reference
    speed) is reported."""
    from repro.core.typical_cascade import TypicalCascadeComputer

    graph = load_graph()
    index, store = traced_build(ctx, graph, tracer, layers)
    nodes = node_set(index, ctx.seed)
    half = ctx.seconds / 2
    traced_ms = traced_spheres(index, nodes, tracer, half, layers)
    if overhead:
        _, plain, _, _ = timed_passes(
            TypicalCascadeComputer(index).compute, nodes, half, 0)
        base = stats.median(plain)
        layers["trace.overhead_pct"] = (
            (stats.median(traced_ms) - base) / base * 100.0, "%")
    return index, store
