"""Packed representation of a collection of sampled sets.

``SampleCollection`` stores ``l`` node sets (the sampled cascades of one
source) in one concatenated array plus an ``indptr`` — the layout that lets
every cost evaluation against *all* samples run as a handful of vectorised
numpy calls (one fancy-index + one ``reduceat`` per candidate).  The median
algorithms and the empirical cost estimator are built on it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class SampleCollection:
    """Immutable packed list of sets over the universe ``0..n-1``.

    Each set must be a *sorted, duplicate-free* int array (the cascade
    extraction code guarantees this; :meth:`from_iterables` sorts for you).
    """

    __slots__ = ("_n", "_concat", "_indptr", "_sizes", "_union", "_freq", "_union_idx")

    def __init__(self, universe_size: int, sets: Sequence[np.ndarray]) -> None:
        if universe_size < 0:
            raise ValueError(f"universe_size must be >= 0, got {universe_size}")
        if not sets:
            raise ValueError("need at least one sample set")
        self._n = int(universe_size)
        arrays = []
        not_1d_at = None
        for s in sets:
            arr = np.asarray(s, dtype=np.int64)
            if arr.ndim != 1:
                not_1d_at = len(arrays)
                break
            arrays.append(arr)
        self._sizes = np.array([a.size for a in arrays], dtype=np.int64)
        self._indptr = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum(self._sizes, out=self._indptr[1:])
        self._concat = (
            np.concatenate(arrays) if self._indptr[-1] > 0 else np.zeros(0, np.int64)
        )
        # Earlier samples' problems are reported first.
        self._check()
        if not_1d_at is not None:
            raise ValueError(f"sample {not_1d_at} must be one-dimensional")
        self._union: np.ndarray | None = None
        self._freq: np.ndarray | None = None
        self._union_idx: np.ndarray | None = None

    def _check(self) -> None:
        """Bounds and strict sortedness of every sample, in one pass over
        the packed buffer; the error names the first offending sample."""
        concat, ends = self._concat, self._indptr[1:]
        if concat.size == 0:
            return
        first_bad = ends.size
        message = ""
        if int(concat.min()) < 0 or int(concat.max()) >= self._n:
            at = int(np.argmax((concat < 0) | (concat >= self._n)))
            first_bad = int(np.searchsorted(ends, at, side="right"))
            message = f"has elements outside universe 0..{self._n - 1}"
        # Step j compares elements j and j + 1; steps that cross from one
        # sample into the next are masked out.
        unsorted = concat[1:] <= concat[:-1]
        cuts = ends[(ends > 0) & (ends < concat.size)]
        unsorted[cuts - 1] = False
        if unsorted.any():
            at = int(np.argmax(unsorted))
            sample = int(np.searchsorted(ends, at, side="right"))
            if sample < first_bad:
                first_bad = sample
                message = "must be sorted and duplicate-free"
        if message:
            raise ValueError(f"sample {first_bad} {message}")

    @classmethod
    def from_iterables(
        cls, universe_size: int, sets: Iterable[Iterable[int]]
    ) -> "SampleCollection":
        """Build from arbitrary iterables (sorted/deduplicated here)."""
        arrays = [
            np.unique(np.fromiter((int(x) for x in s), dtype=np.int64))
            for s in sets
        ]
        return cls(universe_size, arrays)

    # -- accessors ----------------------------------------------------------

    @property
    def universe_size(self) -> int:
        return self._n

    @property
    def num_samples(self) -> int:
        return int(self._sizes.shape[0])

    @property
    def sizes(self) -> np.ndarray:
        """|S_i| for every sample (int64 array)."""
        return self._sizes

    def sample(self, i: int) -> np.ndarray:
        """The i-th sample as a sorted array (view into the packed buffer)."""
        if not 0 <= i < self.num_samples:
            raise IndexError(f"sample {i} out of range ({self.num_samples} samples)")
        return self._concat[self._indptr[i] : self._indptr[i + 1]]

    def __len__(self) -> int:
        return self.num_samples

    def __iter__(self):
        for i in range(self.num_samples):
            yield self.sample(i)

    # -- aggregate structure ---------------------------------------------------

    def union(self) -> np.ndarray:
        """Sorted union of all samples (cached)."""
        if self._union is None:
            self._union = np.unique(self._concat)
        return self._union

    def union_indices(self) -> np.ndarray:
        """Index of every packed element within :meth:`union` (cached).

        Lets callers compute per-union-element weighted sums with a single
        ``bincount`` — the workhorse of the median size-sweep.
        """
        if self._union_idx is None:
            union = self.union()
            self._union_idx = (
                np.searchsorted(union, self._concat)
                if union.size
                else np.zeros(0, dtype=np.int64)
            )
        return self._union_idx

    def frequencies(self) -> np.ndarray:
        """For each element of :meth:`union`, in how many samples it appears."""
        if self._freq is None:
            union = self.union()
            if union.size == 0:
                self._freq = np.zeros(0, dtype=np.int64)
            else:
                self._freq = np.bincount(
                    self.union_indices(), minlength=union.size
                ).astype(np.int64)
        return self._freq

    def sample_ids_per_element(self) -> np.ndarray:
        """Sample id of every packed element (aligned with the buffer)."""
        return np.repeat(np.arange(self.num_samples, dtype=np.int64), self._sizes)

    def membership_mask(self, candidate: np.ndarray) -> np.ndarray:
        """Boolean mask over the universe marking candidate membership."""
        mask = np.zeros(self._n, dtype=bool)
        mask[np.asarray(candidate, dtype=np.int64)] = True
        return mask

    # -- vectorised candidate evaluation -----------------------------------------

    def intersection_sizes(self, candidate_mask: np.ndarray) -> np.ndarray:
        """|C n S_i| for every sample, in one reduceat pass."""
        candidate_mask = np.asarray(candidate_mask, dtype=bool)
        if candidate_mask.shape != (self._n,):
            raise ValueError(
                f"candidate_mask must have shape ({self._n},), got {candidate_mask.shape}"
            )
        if self._concat.size == 0:
            return np.zeros(self.num_samples, dtype=np.int64)
        hits = candidate_mask[self._concat].astype(np.int64)
        # Segment sums by differencing the cumulative sum: robust to empty
        # segments, unlike np.add.reduceat.
        csum = np.concatenate(([0], np.cumsum(hits)))
        return csum[self._indptr[1:]] - csum[self._indptr[:-1]]

    def distances(self, candidate: np.ndarray) -> np.ndarray:
        """d_J(C, S_i) for every sample; C given as a sorted element array."""
        candidate = np.asarray(candidate, dtype=np.int64)
        mask = self.membership_mask(candidate)
        inter = self.intersection_sizes(mask)
        union = candidate.size + self._sizes - inter
        dist = np.ones(self.num_samples, dtype=np.float64)
        nonzero = union > 0
        dist[nonzero] = 1.0 - inter[nonzero] / union[nonzero]
        dist[~nonzero] = 0.0  # d(empty, empty) = 0
        return dist

    def mean_distance(self, candidate: np.ndarray) -> float:
        """Empirical cost rho_hat(C): average Jaccard distance to the samples."""
        return float(self.distances(candidate).mean())
