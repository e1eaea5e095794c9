"""Expected-spread estimation over pooled sampled worlds.

``SpreadOracle`` wraps a :class:`~repro.cascades.index.CascadeIndex` and
maintains, per world, the set of nodes already covered by the current seed
set.  This turns the two operations every greedy influence maximiser needs
into cheap incremental queries:

* ``marginal_gain(w)`` — expected number of *new* nodes w would activate;
* ``add_seed(w)`` — commit w and update the per-world coverage.

Because all candidate seeds are scored against the *same* sampled worlds,
comparisons between seeds are low-variance even with modest sample counts
(common random numbers), which is exactly how the paper runs both methods
with 1000 shared samples.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.cascades.index import CascadeIndex
from repro.graph.digraph import ProbabilisticDigraph
from repro.utils.rng import SeedLike
from repro.utils.validation import check_node, check_positive_int


class SpreadOracle:
    """Incremental expected-spread estimator over an index's worlds."""

    def __init__(self, index: CascadeIndex) -> None:
        self._index = index
        self._covered = [
            np.zeros(index.num_nodes, dtype=bool) for _ in range(index.num_worlds)
        ]
        self._covered_total = 0
        self._seeds: list[int] = []

    @property
    def index(self) -> CascadeIndex:
        return self._index

    @property
    def seeds(self) -> list[int]:
        return list(self._seeds)

    @property
    def num_worlds(self) -> int:
        return self._index.num_worlds

    def current_spread(self) -> float:
        """sigma(S) estimate for the committed seed set."""
        return self._covered_total / self._index.num_worlds

    def initial_gains(self) -> np.ndarray:
        """sigma({v}) for every node — the first greedy iteration, computed
        in bulk from the index's all-sizes matrix."""
        sizes = self._index.all_cascade_sizes()
        return sizes.mean(axis=1)

    def marginal_gain(self, node: int) -> float:
        """Expected number of new nodes activated if ``node`` joined S."""
        node = check_node(node, self._index.num_nodes)
        new_nodes = 0
        for world in range(self._index.num_worlds):
            covered = self._covered[world]
            if covered[node]:
                continue
            cascade = self._index.cascade(node, world)
            new_nodes += int(cascade.size) - int(np.count_nonzero(covered[cascade]))
        return new_nodes / self._index.num_worlds

    def marginal_gain_pair(self, node: int, extra: int) -> tuple[float, float]:
        """``(gain(node | S), gain(node | S + {extra}))`` in one pass.

        The second value is CELF++'s ``mg2``: what ``node`` would add if the
        current front-runner ``extra`` were selected first.  Both counts
        share the candidate-cascade extraction per world.
        """
        node = check_node(node, self._index.num_nodes)
        extra = check_node(extra, self._index.num_nodes, "extra")
        gain1 = 0
        gain2 = 0
        for world in range(self._index.num_worlds):
            covered = self._covered[world]
            if covered[node]:
                continue
            cascade = self._index.cascade(node, world)
            fresh = cascade[~covered[cascade]]
            gain1 += int(fresh.size)
            if fresh.size:
                extra_cascade = self._index.cascade(extra, world)
                extra_mask = np.zeros(self._index.num_nodes, dtype=bool)
                extra_mask[extra_cascade] = True
                gain2 += int(np.count_nonzero(~extra_mask[fresh]))
        worlds = self._index.num_worlds
        return gain1 / worlds, gain2 / worlds

    def add_seed(self, node: int) -> float:
        """Commit ``node`` to the seed set; returns the realised gain."""
        node = check_node(node, self._index.num_nodes)
        if node in self._seeds:
            raise ValueError(f"node {node} is already a seed")
        gained = 0
        for world in range(self._index.num_worlds):
            covered = self._covered[world]
            if covered[node]:
                continue
            cascade = self._index.cascade(node, world)
            fresh = cascade[~covered[cascade]]
            covered[fresh] = True
            gained += int(fresh.size)
        self._covered_total += gained
        self._seeds.append(node)
        return gained / self._index.num_worlds

    def spread_of(self, seeds: Sequence[int]) -> float:
        """sigma(S) for an arbitrary seed set, without touching state."""
        if len(seeds) == 0:
            return 0.0
        total = int(self._index.seed_set_cascade_sizes(list(seeds)).sum())
        return total / self._index.num_worlds


def evaluate_spread_curve(
    graph: ProbabilisticDigraph,
    seed_sequence: Sequence[int],
    num_worlds: int = 256,
    seed: SeedLike = None,
    index: CascadeIndex | None = None,
) -> np.ndarray:
    """sigma(S_j) for every prefix S_j of ``seed_sequence``.

    Evaluation uses fresh worlds (or a caller-supplied shared ``index``) so
    that both influence-maximisation methods are scored on identical ground —
    the protocol behind Figure 6.  Returns a float array of length
    ``len(seed_sequence)``.
    """
    if index is None:
        check_positive_int(num_worlds, "num_worlds")
        index = CascadeIndex.build(graph, num_worlds, seed=seed, reduce=False)
    oracle = SpreadOracle(index)
    curve = np.zeros(len(seed_sequence), dtype=np.float64)
    for j, node in enumerate(seed_sequence):
        oracle.add_seed(int(node))
        curve[j] = oracle.current_spread()
    return curve


def monte_carlo_spread(
    graph: ProbabilisticDigraph,
    seeds: Iterable[int],
    num_samples: int,
    seed: SeedLike = None,
) -> float:
    """Plain MC spread estimate without an index (reference implementation)."""
    from repro.cascades.ic import expected_spread_monte_carlo

    return expected_spread_monte_carlo(graph, list(seeds), num_samples, seed=seed)
