"""Approximate Jaccard median (Problem 2 of the paper).

The paper computes typical cascades with the practical algorithm of
Chierichetti et al. ("Finding the Jaccard Median", SODA 2010), Section 3.2,
which achieves a ``1 + O(eps)`` approximation (``eps`` = optimal cost) in
near-linear time.  The algorithm combines three candidate families and keeps
the candidate with the lowest *empirical* cost:

1. **Size sweep** — for each candidate size ``m`` (a geometric grid plus all
   distinct sample sizes), score each universe element
   ``score_m(x) = sum_{i : x in S_i} 1 / (m + |S_i|)`` and take the top-m
   elements.  The score is the separable surrogate obtained by replacing the
   intersection-dependent denominator ``|C u S_i|`` with ``m + |S_i|``; for
   low-cost instances the surrogate is within a constant of the truth, which
   is the engine of the 1+O(eps) guarantee.
2. **Frequency thresholds** — every superlevel set ``{x : f(x) >= t}``.
   These include the majority set (t = l/2) that Section 5's observation 4
   builds on.
3. **Best input sample** — the classical 2-approximation for medians in a
   metric space.

Candidates are scored in fixed-size blocks: one 0/1 product of a block
with the union-by-sample incidence matrix gives every ``|C n S_i|`` at
once, in exact integers (see :func:`_block_costs`), so the result is bit
for bit what scoring each candidate with
:meth:`~repro.median.samples.SampleCollection.mean_distance` gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from repro.median.samples import SampleCollection


@dataclass(frozen=True)
class MedianResult:
    """Outcome of a Jaccard-median computation.

    Attributes:
        median: sorted element array of the selected median.
        cost: empirical cost rho_bar(median) over the input samples.
        strategy: which candidate family produced the winner
            ("size-sweep", "threshold", "sample", "empty").
        candidates_evaluated: number of candidate sets scored.
    """

    median: np.ndarray
    cost: float
    strategy: str
    candidates_evaluated: int

    @property
    def size(self) -> int:
        return int(self.median.size)

    def as_set(self) -> frozenset[int]:
        """The median as a frozenset of node ids."""
        return frozenset(int(x) for x in self.median)


def _size_grid(max_size: int, ratio: float) -> list[int]:
    """Geometric grid 1, ..., max_size with the given ratio (dense for small m)."""
    if max_size <= 0:
        return []
    grid: list[int] = []
    m = 1.0
    while m < max_size:
        grid.append(int(round(m)))
        m = max(m * ratio, m + 1.0)
    grid.append(max_size)
    return sorted(set(grid))


#: Candidates scored per block product in :func:`jaccard_median`.
_BLOCK = 32


def _candidates(
    samples: SampleCollection,
    size_grid_ratio: float,
    include_samples: bool,
    include_thresholds: bool,
) -> Iterator[tuple[str, np.ndarray]]:
    """Every candidate as ``(strategy, positions in the union)``, in the
    order the tie-break sees them."""
    union = samples.union()
    sizes = samples.sizes
    union_idx = samples.union_indices()

    # --- family 1: size sweep ------------------------------------------------
    candidate_sizes = set(_size_grid(int(union.size), size_grid_ratio))
    candidate_sizes.update(int(s) for s in np.unique(sizes) if 0 < s <= union.size)
    for m in sorted(candidate_sizes):
        weights = 1.0 / (m + sizes.astype(np.float64))
        per_element = np.repeat(weights, sizes)
        scores = np.bincount(union_idx, weights=per_element, minlength=union.size)
        if m >= union.size:
            top = np.arange(union.size)
        else:
            top = np.argpartition(scores, union.size - m)[union.size - m :]
        yield "size-sweep", top

    # --- family 2: frequency thresholds ---------------------------------------
    if include_thresholds:
        freq = samples.frequencies()
        for t in np.unique(freq):
            yield "threshold", np.flatnonzero(freq >= t)

    # --- family 3: the input samples themselves --------------------------------
    if include_samples:
        # Dedup on full content: keying on (size, first element) can collide
        # two *different* cascades and silently drop the best input sample,
        # breaking the "never worse than best_of_samples" guarantee of the
        # classical 2-approximation family.
        seen: set[bytes] = set()
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        for i in range(samples.num_samples):
            key = samples.sample(i).tobytes()
            if key in seen:
                continue
            seen.add(key)
            yield "sample", union_idx[indptr[i] : indptr[i + 1]]


def _block_costs(block: np.ndarray, samples: SampleCollection) -> np.ndarray:
    """Mean Jaccard distance of every candidate to the samples, bit for bit
    what ``SampleCollection.mean_distance`` returns for it.

    ``block`` is ``(|union|, candidates)``, 0/1, one column per candidate.
    Its product with the union-by-sample incidence matrix is ``|C n S_i|``;
    the incidence matrix's nonzeros are the packed samples, so the product
    is one row gather at the packed elements and one segment sum per
    non-empty sample.  The sums are integers, exact, in a single-threaded
    numpy pass.  The
    distances then follow the same int64 formula, and each row's mean is
    the same pairwise sum over a contiguous row.
    """
    sizes = samples.sizes
    nonempty = sizes > 0
    starts = np.cumsum(sizes) - sizes
    inter_t = np.zeros((sizes.size, block.shape[1]), dtype=np.int64)
    inter_t[nonempty] = np.add.reduceat(
        block[samples.union_indices()], starts[nonempty], axis=0, dtype=np.int64
    )
    inter = inter_t.T
    union = block.sum(axis=0, dtype=np.int64)[:, None] + sizes - inter
    # C order keeps each row contiguous, so its mean is the same pairwise
    # sum as over one candidate's 1-D distance array.
    dist = np.ones(inter.shape, dtype=np.float64, order="C")
    nonzero = union > 0
    dist[nonzero] = 1.0 - inter[nonzero] / union[nonzero]
    dist[~nonzero] = 0.0  # d(empty, empty) = 0
    return dist.mean(axis=1)


def jaccard_median(
    samples: SampleCollection,
    size_grid_ratio: float = 1.15,
    include_samples: bool = True,
    include_thresholds: bool = True,
) -> MedianResult:
    """Approximate Jaccard median of ``samples`` (see module docstring).

    ``size_grid_ratio`` controls the density of the size sweep; 1.15 gives
    ~50 candidate sizes for a 1000-element union, matching the paper's
    near-linear running-time budget.
    """
    if size_grid_ratio <= 1.0:
        raise ValueError(f"size_grid_ratio must exceed 1, got {size_grid_ratio}")
    union = samples.union()
    if union.size == 0:
        # Every sample is empty; the empty set is the exact median.
        empty = np.zeros(0, dtype=np.int64)
        return MedianResult(empty, 0.0, "empty", 1)

    best_cost = np.inf
    best_positions = np.zeros(0, dtype=np.int64)
    best_strategy = "empty"
    evaluated = 0
    candidates = _candidates(samples, size_grid_ratio, include_samples, include_thresholds)
    while chunk := list(islice(candidates, _BLOCK)):
        block = np.zeros((union.size, len(chunk)), dtype=np.uint8)
        for j, (_, positions) in enumerate(chunk):
            block[positions, j] = 1
        costs = _block_costs(block, samples)
        for (strategy, positions), cost in zip(chunk, costs.tolist()):
            evaluated += 1
            # Tie-break toward smaller medians: a strictly smaller set with
            # the same cost is a more conservative sphere of influence.
            if cost < best_cost - 1e-12 or (
                abs(cost - best_cost) <= 1e-12 and positions.size < best_positions.size
            ):
                best_cost = cost
                best_positions = positions
                best_strategy = strategy
    # The union is sorted, so sorted positions give the sorted median.
    best_median = union[np.sort(best_positions)]
    return MedianResult(best_median, best_cost, best_strategy, evaluated)


def best_of_samples(samples: SampleCollection) -> MedianResult:
    """The classical 2-approximation: the input sample with the least cost.

    Exposed separately for the median-algorithm ablation benchmark.
    """
    best_cost = np.inf
    best = np.zeros(0, dtype=np.int64)
    for i in range(samples.num_samples):
        s = samples.sample(i)
        cost = samples.mean_distance(s)
        if cost < best_cost:
            best_cost = cost
            best = s.copy()
    return MedianResult(best, float(best_cost), "sample", samples.num_samples)


def majority_median(samples: SampleCollection) -> MedianResult:
    """Elements present in at least half the samples.

    Section 5 (observation 4) of the paper: if the optimal cost is eps, the
    1/2-frequency superlevel set has cost at most eps + O(eps^{3/2}).
    """
    union = samples.union()
    freq = samples.frequencies()
    threshold = samples.num_samples / 2.0
    candidate = union[freq >= threshold]
    return MedianResult(
        candidate, samples.mean_distance(candidate), "threshold", 1
    )
