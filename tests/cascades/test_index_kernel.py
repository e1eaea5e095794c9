"""The all-worlds extraction kernel of ``CascadeIndex`` against a per-world
reference walk, on every index flavour, plus its lifecycle: rebuilt after
``extend``, verified against the store checksums, built once under
concurrent first queries."""

import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.cascades.index as index_mod
from repro.cascades.index import CascadeIndex
from repro.graph.generators import gnp_digraph
from repro.runtime import locksan
from repro.store import read_index, write_index
from repro.store.errors import CorruptColumnError


def reference_cascade(index: CascadeIndex, seeds, world: int) -> np.ndarray:
    """Depth-first walk of one world's condensation from the seeds'
    components; the union of the reached members, sorted."""
    cond = index.condensation(world)
    members = index.world_members(world)
    stack = sorted({index.component_of(s, world) for s in seeds})
    visited = set(stack)
    collected = []
    while stack:
        c = stack.pop()
        collected.append(np.asarray(members[c], dtype=np.int64))
        for d in cond.targets[cond.indptr[c] : cond.indptr[c + 1]]:
            if int(d) not in visited:
                visited.add(int(d))
                stack.append(int(d))
    return np.sort(np.concatenate(collected))


def flavours(built: CascadeIndex, root: Path) -> dict[str, CascadeIndex]:
    """The same worlds as built in memory, as a ``.npz`` archive and as a
    store opened with lazy checksum verification."""
    built.save(root / "index.npz")
    write_index(built, root / "index.cidx")
    return {
        "memory": built,
        "npz": CascadeIndex.load(root / "index.npz"),
        "store": read_index(root / "index.cidx", verify="lazy"),
    }


def assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == np.int64
    assert got.tobytes() == want.tobytes()


graphs = st.builds(
    lambda n, q, p, seed: gnp_digraph(n, q, p=p, seed=seed),
    st.integers(1, 24),
    st.sampled_from([0.05, 0.15, 0.4]),
    st.sampled_from([0.3, 0.7, 1.0]),
    st.integers(0, 2**16),
)


@given(
    graph=graphs,
    num_worlds=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    reduce=st.booleans(),
    data=st.data(),
)
def test_kernel_matches_per_world_walk(graph, num_worlds, seed, reduce, data):
    n = graph.num_nodes
    node = data.draw(st.integers(0, n - 1), label="node")
    seeds = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=5), label="seeds"
    )
    built = CascadeIndex.build(graph, num_worlds, seed=seed, reduce=reduce)
    with tempfile.TemporaryDirectory() as tmp:
        for index in flavours(built, Path(tmp)).values():
            expected = [reference_cascade(index, (node,), w) for w in range(num_worlds)]
            expected_set = [reference_cascade(index, seeds, w) for w in range(num_worlds)]
            cascades = index.cascades(node)
            seed_cascades = index.seed_set_cascades(seeds)
            assert len(cascades) == len(seed_cascades) == num_worlds
            for w in range(num_worlds):
                assert_same(cascades[w], expected[w])
                assert_same(index.cascade(node, w), expected[w])
                assert_same(seed_cascades[w], expected_set[w])
                assert_same(index.seed_set_cascade(seeds, w), expected_set[w])
                assert index.cascade_size(node, w) == expected[w].size
            sizes = index.cascade_sizes(node)
            assert sizes.dtype == np.int64
            assert sizes.tolist() == [c.size for c in expected]
            set_sizes = index.seed_set_cascade_sizes(seeds)
            assert set_sizes.dtype == np.int64
            assert set_sizes.tolist() == [c.size for c in expected_set]


def test_duplicate_and_empty_seed_sets(small_random):
    index = CascadeIndex.build(small_random, 5, seed=3)
    for w in range(5):
        assert_same(
            index.seed_set_cascade([4, 4, 9, 4], w), reference_cascade(index, [4, 9], w)
        )
    with pytest.raises(ValueError, match="empty"):
        index.seed_set_cascades([])
    with pytest.raises(ValueError, match="empty"):
        index.seed_set_cascade_sizes([])
    with pytest.raises(ValueError):
        index.cascade_sizes(small_random.num_nodes)


class TestExtendInvalidates:
    """A structure cached before ``extend`` must not serve the new worlds."""

    def check(self, index: CascadeIndex, graph) -> None:
        before = index.cascades(3)
        before_set = index.seed_set_cascades([1, 7])
        index.extend(3)
        direct = CascadeIndex.build(graph, 7, seed=5)
        after = index.cascades(3)
        after_set = index.seed_set_cascades([1, 7])
        assert len(after) == len(after_set) == 7
        for w in range(4):
            assert_same(after[w], before[w])
            assert_same(after_set[w], before_set[w])
        for w in range(7):
            assert_same(after[w], direct.cascade(3, w))
            assert_same(after_set[w], direct.seed_set_cascade([1, 7], w))
        assert index.cascade_sizes(3).tolist() == [c.size for c in after]

    def test_built_index(self, small_random):
        self.check(CascadeIndex.build(small_random, 4, seed=5), small_random)

    def test_loaded_index(self, small_random, tmp_path):
        write_index(CascadeIndex.build(small_random, 4, seed=5), tmp_path / "idx")
        self.check(read_index(tmp_path / "idx", verify="lazy"), small_random)


@pytest.fixture
def store_path(small_random, tmp_path):
    path = tmp_path / "idx"
    write_index(CascadeIndex.build(small_random, 6, seed=321), path)
    return path


def flip_byte(path: Path, offset: int = -40) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("column", ["dag_targets", "members"])
def test_corrupt_column_fails_first_query_and_quarantines(store_path, column):
    flip_byte(store_path / f"{column}.npy")
    loaded = read_index(store_path, verify="lazy")
    with pytest.raises(CorruptColumnError) as excinfo:
        loaded.cascades(0)
    assert excinfo.value.column == column
    assert loaded.store_integrity.quarantined() == (column,)
    # Every later query fails fast from the quarantine set.
    with pytest.raises(CorruptColumnError):
        loaded.cascades(1)


def test_sizes_do_not_read_members(store_path):
    flip_byte(store_path / "members.npy")
    loaded = read_index(store_path, verify="lazy")
    assert loaded.cascade_sizes(0).size == 6
    assert loaded.store_integrity.quarantined() == ()


def test_concurrent_first_queries_build_once(store_path, monkeypatch):
    expected = [c.tobytes() for c in read_index(store_path).cascades(5)]
    builds = []
    real = index_mod._SuperDAG

    class Counting(real):
        __slots__ = ()

        def __init__(self, *args):
            builds.append(threading.get_ident())
            super().__init__(*args)

    monkeypatch.setattr(index_mod, "_SuperDAG", Counting)
    results: list[list[bytes]] = []
    errors: list[BaseException] = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with locksan.sanitizer_scope():
            loaded = read_index(store_path, verify="lazy")
            barrier = threading.Barrier(8, timeout=30)

            def query() -> None:
                try:
                    barrier.wait()
                    results.append([c.tobytes() for c in loaded.cascades(5)])
                except BaseException as exc:  # pragma: no cover - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=query) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            violations = locksan.report()
    finally:
        sys.setswitchinterval(switch)
    assert errors == []
    assert violations == []
    assert len(builds) == 1
    assert results == [expected] * 8


def test_index_is_freed_without_a_gc_pass(store_path):
    import gc
    import weakref

    gc.disable()
    try:
        loaded = read_index(store_path, verify="lazy")
        loaded.cascades(0)
        ref = weakref.ref(loaded)
        del loaded
        assert ref() is None
    finally:
        gc.enable()
