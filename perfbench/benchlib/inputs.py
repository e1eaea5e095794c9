"""Seeded input generation.

Every input a workload feeds the program is a pure function of the
benchmark seed (and, for the node set, of the index that seed built):
the same seed gives the same node set, request list, job sequence and
edge-file bytes.  The program never sees the seed itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: The five job models, in the order the job service lists them.
JOB_MODELS = ("greedy_tc", "celfpp", "ris", "cost_aware", "stability")

#: Serve traffic mix: share of single-sphere reads and of cascade reads;
#: the rest are ``POST /spheres`` batches of ``BATCH_SIZE`` nodes.  The
#: 7/2/1 mix and the batch size are those of ``scripts/loadgen.py``.
SPHERE_SHARE = 0.7
CASCADES_SHARE = 0.2
BATCH_SIZE = 8

#: Zipf exponent of hot-node popularity.  An unverified choice: no
#: traffic trace or measurement in the repository gives one.
ZIPF_S = 1.1


def sweep_nodes(
    mean_sizes: np.ndarray, seed: int, top: int, uniform: int
) -> list[int]:
    """The ``top`` nodes by mean cascade size (ties by id) and a
    stratified uniform sample of the others: those are ranked by mean
    cascade size, cut into ``uniform`` equal strata, and one node is drawn
    from each, so every seed gets a node set of the same cost profile.
    The order is seeded, with the heavy nodes spread evenly so any prefix
    of a pass has the same mix."""
    order = np.lexsort((np.arange(mean_sizes.size), -np.asarray(mean_sizes)))
    heavy = [int(v) for v in order[:top]]
    rng = np.random.default_rng([seed, 1])
    strata = np.array_split(order[top:], uniform)
    light = [int(stratum[rng.integers(stratum.size)]) for stratum in strata]
    light = [light[i] for i in rng.permutation(len(light))]
    heavy = [heavy[i] for i in rng.permutation(len(heavy))]
    stride = len(light) // max(len(heavy), 1)
    nodes: list[int] = []
    for i, node in enumerate(heavy):
        nodes += light[i * stride:(i + 1) * stride] + [node]
    return nodes + light[len(heavy) * stride:]


@dataclass(frozen=True)
class Request:
    kind: str  # "sphere", "cascades" or "batch"
    method: str
    path: str
    body: bytes | None
    nodes: tuple[int, ...]


def _batch_body(nodes: Sequence[int]) -> bytes:
    return json.dumps({"nodes": list(nodes)}, separators=(",", ":")).encode()


def serve_requests(
    seed: int,
    hot: Sequence[int],
    num_nodes: int,
    split: int,
    count: int,
) -> list[Request]:
    """``count`` requests: Zipf-popular ``/sphere`` reads over ``hot``,
    uniform ``/cascades`` reads over every node, and ``POST /spheres``
    batches of hot nodes with members on both sides of the shard
    boundary ``split``."""
    rng = np.random.default_rng([seed, 2])
    hot = list(hot)
    weights = 1.0 / np.arange(1, len(hot) + 1) ** ZIPF_S
    weights /= weights.sum()
    low = [v for v in hot if v < split]
    high = [v for v in hot if v >= split]
    if not low or not high:
        raise ValueError("hot set must have nodes on both shards")
    requests: list[Request] = []
    for _ in range(count):
        draw = rng.random()
        if draw < SPHERE_SHARE:
            node = hot[int(rng.choice(len(hot), p=weights))]
            requests.append(
                Request("sphere", "GET", f"/sphere/{node}", None, (node,))
            )
        elif draw < SPHERE_SHARE + CASCADES_SHARE:
            node = int(rng.integers(0, num_nodes))
            requests.append(
                Request("cascades", "GET", f"/cascades/{node}", None, (node,))
            )
        else:
            picks = [int(rng.choice(low)), int(rng.choice(high))]
            others = [v for v in hot if v not in picks]
            extra = rng.choice(len(others), size=BATCH_SIZE - 2, replace=False)
            nodes = picks + [others[int(i)] for i in extra]
            nodes = [nodes[i] for i in rng.permutation(len(nodes))]
            requests.append(
                Request("batch", "POST", "/spheres", _batch_body(nodes),
                        tuple(nodes))
            )
    return requests


#: Model order within a cycle: the three models that rerun Algorithm 2
#: on every node first, so two jobs in flight always pair the same way
#: and a cycle's schedule does not depend on the seed.
CYCLE = ("greedy_tc", "stability", "cost_aware", "celfpp", "ris")


def job_specs(seed: int) -> dict[str, dict]:
    """One seeded submit payload per model (fixed for the run, so each
    distinct spec needs one reference computation)."""
    rng = np.random.default_rng([seed, 3])
    specs: dict[str, dict] = {}
    for model in JOB_MODELS:
        payload: dict = {"model": model, "k": int(rng.integers(3, 9))}
        if model == "cost_aware":
            payload["budget"] = float(payload["k"])
        if model == "ris":
            payload["rr_seed"] = int(rng.integers(0, 2**31))
        specs[model] = payload
    return specs


def job_sequence(seed: int, cycles: int) -> list[dict]:
    """``cycles`` repetitions of :data:`CYCLE`, as submit payloads."""
    specs = job_specs(seed)
    return [specs[model] for _ in range(cycles) for model in CYCLE]


def write_edge_file(path: str, seed: int, arcs: int, nodes: int) -> int:
    """Write a SNAP-style edge list of ``arcs`` data lines; returns bytes.

    The file has a comment header, comment lines between blocks, about
    1.5% duplicate arcs and 0.2% self-loops, and out-degree skewed toward
    low node ids.
    """
    rng = np.random.default_rng([seed, 5])
    block = 100_000
    written = 0
    with open(path, "wb") as handle:
        header = (
            "# Directed graph (each unordered pair of nodes is saved once)\n"
            f"# Synthetic SNAP-style edge list, seed {seed}\n"
            f"# Nodes: {nodes} Edges: {arcs}\n"
            "# FromNodeId\tToNodeId\n"
        ).encode()
        handle.write(header)
        written += len(header)
        previous = (np.zeros(0, np.int64), np.zeros(0, np.int64))
        done = 0
        while done < arcs:
            size = min(block, arcs - done)
            u = (rng.random(size) ** 2 * nodes).astype(np.int64)
            v = rng.integers(0, nodes, size)
            loops = rng.random(size) < 0.002
            v[loops] = u[loops]
            dup = np.flatnonzero(rng.random(size) < 0.015)
            if previous[0].size and dup.size:
                pick = rng.integers(0, previous[0].size, dup.size)
                u[dup], v[dup] = previous[0][pick], previous[1][pick]
            text = "".join(
                f"{a}\t{b}\n" for a, b in zip(u.tolist(), v.tolist())
            )
            chunk = (f"# block {done // block}\n" + text).encode()
            handle.write(chunk)
            written += len(chunk)
            previous = (u, v)
            done += size
    return written
