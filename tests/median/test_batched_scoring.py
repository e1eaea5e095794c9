"""Block-scored ``jaccard_median`` against one ``mean_distance`` call per
candidate, and the vectorised ``SampleCollection`` validation against a
per-sample reference."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.median.chierichetti as chierichetti
from repro.median.chierichetti import MedianResult, jaccard_median
from repro.median.samples import SampleCollection


def reference_median(
    samples: SampleCollection,
    size_grid_ratio: float = 1.15,
    include_samples: bool = True,
    include_thresholds: bool = True,
) -> MedianResult:
    """The candidate loop scoring each candidate on its own."""
    union = samples.union()
    if union.size == 0:
        return MedianResult(np.zeros(0, dtype=np.int64), 0.0, "empty", 1)
    sizes = samples.sizes
    union_idx = samples.union_indices()
    best = [np.inf, np.zeros(0, dtype=np.int64), "empty", 0]

    def consider(candidate, strategy):
        best[3] += 1
        cost = samples.mean_distance(candidate)
        if cost < best[0] - 1e-12 or (
            abs(cost - best[0]) <= 1e-12 and candidate.size < best[1].size
        ):
            best[:3] = [cost, candidate, strategy]

    grid = set(chierichetti._size_grid(int(union.size), size_grid_ratio))
    grid.update(int(s) for s in np.unique(sizes) if 0 < s <= union.size)
    for m in sorted(grid):
        weights = 1.0 / (m + sizes.astype(np.float64))
        scores = np.bincount(
            union_idx, weights=np.repeat(weights, sizes), minlength=union.size
        )
        if m >= union.size:
            top = np.arange(union.size)
        else:
            top = np.argpartition(scores, union.size - m)[union.size - m :]
        consider(np.sort(union[top]), "size-sweep")
    if include_thresholds:
        freq = samples.frequencies()
        for t in np.unique(freq):
            consider(union[freq >= t], "threshold")
    if include_samples:
        seen = set()
        for s in samples:
            if s.tobytes() not in seen:
                seen.add(s.tobytes())
                consider(s.copy(), "sample")
    return MedianResult(best[1], best[0], best[2], best[3])


def assert_identical(got: MedianResult, want: MedianResult) -> None:
    assert got.median.dtype == want.median.dtype == np.int64
    assert got.median.tobytes() == want.median.tobytes()
    assert np.float64(got.cost).tobytes() == np.float64(want.cost).tobytes()
    assert got.strategy == want.strategy
    assert got.candidates_evaluated == want.candidates_evaluated


def collections(max_n: int = 16, max_l: int = 80):
    """Sample collections heavy in ties: repeated samples, empty samples
    and small universes."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pool = draw(
            st.lists(st.frozensets(st.integers(0, n - 1)), min_size=1, max_size=6)
        )
        picks = draw(
            st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=max_l)
        )
        return SampleCollection.from_iterables(n, [pool[i] for i in picks])

    return build()


@given(
    samples=collections(),
    ratio=st.floats(1.01, 3.0),
    include_samples=st.booleans(),
    include_thresholds=st.booleans(),
)
def test_batched_equals_per_candidate(samples, ratio, include_samples, include_thresholds):
    assert_identical(
        jaccard_median(samples, ratio, include_samples, include_thresholds),
        reference_median(samples, ratio, include_samples, include_thresholds),
    )


@given(samples=collections(max_n=40, max_l=300))
def test_many_blocks_and_long_rows(samples):
    # Up to 300 samples: rows longer than numpy's pairwise-sum block.
    assert_identical(jaccard_median(samples), reference_median(samples))


@pytest.mark.parametrize(
    "sets",
    [
        [[], [], []],  # all empty
        [[], [1], []],  # mostly empty
        [[1, 2], [1, 2], [3], [3]],  # equal-cost candidates of different sizes
        [[0], [1], [2], [3]],  # every candidate ties
        [[0, 1], [0, 1], [0, 1]],  # identical samples
    ],
)
def test_tie_heavy_cases(sets):
    samples = SampleCollection.from_iterables(6, sets)
    assert_identical(jaccard_median(samples), reference_median(samples))


def test_more_candidates_than_one_block():
    rng = np.random.default_rng(3)
    sets = [np.flatnonzero(rng.random(300) < 0.3) for _ in range(64)]
    samples = SampleCollection(300, sets)
    result = jaccard_median(samples)
    assert result.candidates_evaluated > 2 * chierichetti._BLOCK
    assert_identical(result, reference_median(samples))


# -- validation -------------------------------------------------------------


def reference_validation(n: int, sets) -> str | None:
    """The first problem, checking sample by sample."""
    for i, s in enumerate(sets):
        arr = np.asarray(s, dtype=np.int64)
        if arr.ndim != 1:
            return f"sample {i} must be one-dimensional"
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= n):
            return f"sample {i} has elements outside universe 0..{n - 1}"
        if arr.size > 1 and np.any(arr[1:] <= arr[:-1]):
            return f"sample {i} must be sorted and duplicate-free"
    return None


raw_samples = st.one_of(
    st.lists(st.integers(-2, 12), max_size=6),
    st.lists(st.integers(0, 9), max_size=6).map(sorted),
    st.just([[1, 2], [3, 4]]),
    st.just(3),
)


@given(n=st.integers(0, 10), sets=st.lists(raw_samples, min_size=1, max_size=6))
def test_validation_names_the_first_offending_sample(n, sets):
    expected = reference_validation(n, sets)
    if expected is None:
        samples = SampleCollection(n, sets)
        assert samples.sizes.tolist() == [len(s) for s in sets]
        assert samples.num_samples == len(sets)
    else:
        with pytest.raises(ValueError) as excinfo:
            SampleCollection(n, sets)
        assert str(excinfo.value) == expected


def test_boundary_steps_are_not_unsorted():
    # Each sample is sorted; the packed buffer steps down between them.
    samples = SampleCollection(10, [[], [5, 9], [], [1, 2], [0], []])
    assert samples.sizes.tolist() == [0, 2, 0, 2, 1, 0]
    with pytest.raises(ValueError, match="sample 3 must be sorted"):
        SampleCollection(10, [[], [5, 9], [1], [2, 2]])
