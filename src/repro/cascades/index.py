"""The cascade index of Section 4 (Algorithm 1).

The index samples ``l`` possible worlds up front and stores, per world:

* the SCC **condensation** DAG (optionally transitively reduced, which is
  the paper's space optimisation);
* the per-component sorted **member lists**;
* the node -> component id **matrix** ``I[v, i]`` (Figure 2 of the paper).

Extraction never re-samples.  On the first query the index lays every
world's condensation out as one block-diagonal *super-DAG* (component
``c`` of world ``w`` gets the global id ``comp_off[w] + c``; see
:class:`_SuperDAG`), once, in time and memory linear in the index.  Every
query then runs one vectorised kernel, whatever the number of worlds it
asks for:

1. look up the start components ``I[v, i]`` of the requested worlds;
2. one multi-source level-synchronous frontier walk over the worlds at
   once, with a visited bitmap spanning only those worlds;
3. one grouped gather of the reached components' members, one sort on
   ``(world, node)`` keys, one split into per-world sorted arrays.

A query costs O(C + A + M log M) numpy work, where C is the number of
reached components, A the number of arcs leaving them and M the number of
members gathered, plus O(K) to zero the bitmap over the K components of
the requested worlds.  Its Python overhead is one loop iteration per
level of the deepest walk, not one per component or per world.  Sizes
(:meth:`CascadeIndex.cascade_sizes`) skip the gather and the sort.
"""

from __future__ import annotations

import os
from typing import Sequence, Union

import numpy as np

from repro.graph.condensation import Condensation, condense
from repro.graph.digraph import ProbabilisticDigraph
from repro.graph.sampling import WorldSampler
from repro.graph.transitive import reduce_condensation
from repro.utils.rng import SeedLike
from repro.utils.validation import check_node, check_positive_int

PathLike = Union[str, os.PathLike]


class CascadeIndex:
    """Pre-sampled possible worlds indexed for cascade extraction.

    Build with :meth:`build`; query with :meth:`cascade` /
    :meth:`cascades` / :meth:`seed_set_cascade` / :meth:`cascade_sizes`.
    Queries are safe from concurrent threads; :meth:`extend` is not.
    """

    def __init__(
        self,
        graph: ProbabilisticDigraph,
        condensations: Sequence[Condensation],
        *,
        reduced: bool,
        sampler: WorldSampler | None = None,
        members: Sequence[Sequence[np.ndarray]] | None = None,
        node_comp: np.ndarray | None = None,
    ) -> None:
        """``members`` and ``node_comp`` are trusted pre-built structures
        supplied by the persistent store's memory-mapped loader; when given,
        ``condensations`` is used as-is (it may be a lazy sequence) and
        nothing is materialised eagerly.  Plain construction computes the
        matrix and derives member lists per world on demand.
        """
        if not condensations:
            raise ValueError("index needs at least one sampled world")
        self._graph = graph
        self._reduced = reduced
        self._sampler = sampler
        self._store_header = None
        self._store_integrity = None
        # A store-loaded index's members, members_offsets, members_indptr
        # and members_indptr_offsets columns, read zero-copy on extraction.
        self._store_members: tuple[np.ndarray, ...] | None = None
        # Imported here: repro.runtime imports the store, which imports
        # this module.
        from repro.runtime.locksan import make_lock

        self._dag_lock = make_lock("CascadeIndex._dag_lock")
        self._dag: _SuperDAG | None = None  # guarded-by: _dag_lock
        if members is None:
            self._conds = list(condensations)
            # Queries never read per-component lists; world_members()
            # derives them on demand.
            self._members: Sequence[Sequence[np.ndarray]] | None = None
        else:
            self._conds = condensations
            self._members = members
        if node_comp is None:
            # Figure 2's matrix I[v, i]: component of node v in world i.
            self._node_comp = np.column_stack(
                [c.node_comp for c in self._conds]
            ).astype(np.int32)
        else:
            self._node_comp = node_comp

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        graph: ProbabilisticDigraph,
        num_samples: int,
        seed: SeedLike = None,
        reduce: bool = True,
        *,
        n_jobs: int | None = 1,
    ) -> "CascadeIndex":
        """Algorithm 1: sample worlds, condense, optionally reduce.

        ``n_jobs`` fans the per-world condensation work across a process
        pool (``None``/``0`` = all cores).  Worlds are deterministic in
        ``(seed, world_index)``, so the result is bit-identical to the
        serial build for every worker count.
        """
        check_positive_int(num_samples, "num_samples")
        sampler = WorldSampler(graph, seed)
        if n_jobs == 1:
            condensations = []
            for i in range(num_samples):
                cond = condense(graph, sampler.world_mask(i))
                if reduce:
                    cond = reduce_condensation(cond)
                condensations.append(cond)
        else:
            from repro.store.build import sampled_condensations

            condensations = sampled_condensations(
                graph,
                num_samples,
                entropy=sampler.seed_entropy,
                reduce=reduce,
                n_jobs=n_jobs,
            )
        return cls(graph, condensations, reduced=reduce, sampler=sampler)

    def extend(self, additional_samples: int) -> None:
        """Append freshly sampled worlds to the index in place.

        The sampler is deterministic in ``(seed, world_index)``, so an
        index built with ``l`` samples and then extended by ``l'`` is
        identical to one built with ``l + l'`` samples directly — the
        sample-size ablation relies on this.  Only available on indexes
        constructed via :meth:`build` (loaded indexes do not retain their
        sampler seed).
        """
        check_positive_int(additional_samples, "additional_samples")
        if self._sampler is None:
            raise RuntimeError(
                "this index was not built in-process; rebuild with "
                "CascadeIndex.build to get an extendable index"
            )
        start = self.num_worlds
        for i in range(start, start + additional_samples):
            cond = condense(self._graph, self._sampler.world_mask(i))
            if self._reduced:
                cond = reduce_condensation(cond)
            self._conds.append(cond)
            if self._members is not None:
                self._members.append(cond.members())
        self._node_comp = np.column_stack(
            [self._node_comp, *[c.node_comp for c in self._conds[start:]]]
        ).astype(np.int32)
        with self._dag_lock:
            self._dag = None  # rebuilt over all worlds on the next query

    # -- accessors ----------------------------------------------------------

    @property
    def graph(self) -> ProbabilisticDigraph:
        return self._graph

    @property
    def num_worlds(self) -> int:
        return len(self._conds)

    @property
    def num_nodes(self) -> int:
        return self._graph.num_nodes

    @property
    def reduced(self) -> bool:
        return self._reduced

    @property
    def component_matrix(self) -> np.ndarray:
        """Figure 2's ``I[v, i]`` matrix, shape ``(n, l)`` (do not mutate)."""
        return self._node_comp

    @property
    def seed_entropy(self):
        """Entropy of the sampler's seed sequence, or ``None`` when the
        index was not built in-process (it fully determines every world;
        the persistent store records it to keep appends deterministic)."""
        return self._sampler.seed_entropy if self._sampler is not None else None

    @property
    def store_header(self):
        """Parsed :class:`~repro.store.header.IndexStoreHeader` when this
        index was opened from a persistent store, else ``None``."""
        return self._store_header

    @property
    def store_integrity(self):
        """The :class:`~repro.store.integrity.ColumnIntegrity` guard when
        this index was opened with ``verify="lazy"``, else ``None``.  Its
        quarantine set is what the serving layer reports in ``/healthz``."""
        return self._store_integrity

    def condensation(self, world: int) -> Condensation:
        """The stored SCC condensation of world ``world``."""
        self._check_world(world)
        return self._conds[world]

    def world_members(self, world: int) -> Sequence[np.ndarray]:
        """Per-component sorted member lists of world ``world``."""
        self._check_world(world)
        if self._members is None:
            return self._conds[world].members()
        return self._members[world]

    def component_of(self, node: int, world: int) -> int:
        """The matrix lookup I[v, i] of Figure 2."""
        node = check_node(node, self.num_nodes)
        self._check_world(world)
        return int(self._node_comp[node, world])

    def _check_world(self, world: int) -> None:
        if not 0 <= world < self.num_worlds:
            raise ValueError(
                f"world {world} out of range (index holds {self.num_worlds})"
            )

    # -- cascade extraction ---------------------------------------------------

    def _super_dag(self) -> "_SuperDAG":
        """The all-worlds DAG, built on first use (once, under the lock)."""
        integrity = self._store_integrity
        if integrity is not None:
            # First touch hashes these columns; do it before taking the
            # build lock so concurrent first callers never wait on I/O
            # while holding it.
            integrity.verify("node_comp", "dag_indptr", "dag_targets", "members_indptr")
        with self._dag_lock:
            if self._dag is None:
                stored = self._store_members
                if stored is not None and len(stored[1]) - 1 != self.num_worlds:
                    stored = None  # extended past the stored worlds
                self._dag = _SuperDAG(self._conds, self._node_comp, stored)
            return self._dag

    def _reach(self, sources: Sequence[int], lo: int, hi: int) -> tuple["_SuperDAG", np.ndarray]:
        """Global ids of the components reachable from ``sources`` in
        worlds ``lo..hi-1`` (validated node ids)."""
        dag = self._super_dag()
        return dag, dag.reach(dag.starts(sources, lo, hi), lo, hi)

    def _extract(self, sources: Sequence[int], lo: int, hi: int) -> list[np.ndarray]:
        """Sorted int64 cascades of ``sources`` in worlds ``lo..hi-1``."""
        dag, reached = self._reach(sources, lo, hi)
        if self._store_integrity is not None:
            self._store_integrity.verify("members")
        return dag.members_by_world(reached, lo, hi)

    def _sizes(self, sources: Sequence[int], lo: int, hi: int) -> np.ndarray:
        """Cascade sizes of ``sources`` in worlds ``lo..hi-1``."""
        dag, reached = self._reach(sources, lo, hi)
        return dag.sizes_by_world(reached, lo, hi)

    def cascade(self, node: int, world: int) -> np.ndarray:
        """Sampled cascade of ``node`` in ``world`` (sorted int64 node ids).

        The node itself is always a member (it trivially infects itself).
        """
        node = check_node(node, self.num_nodes)
        self._check_world(world)
        return self._extract((node,), world, world + 1)[0]

    def cascades(self, node: int) -> list[np.ndarray]:
        """All ``l`` sampled cascades of ``node`` — Algorithm 2's inner loop."""
        node = check_node(node, self.num_nodes)
        return self._extract((node,), 0, self.num_worlds)

    def _check_seeds(self, seeds: Sequence[int]) -> list[int]:
        if len(seeds) == 0:
            raise ValueError("seed set must not be empty")
        return [check_node(s, self.num_nodes, "seed") for s in seeds]

    def seed_set_cascade(self, seeds: Sequence[int], world: int) -> np.ndarray:
        """Cascade of a whole seed set in one world (union semantics)."""
        self._check_world(world)
        return self._extract(self._check_seeds(seeds), world, world + 1)[0]

    def seed_set_cascades(self, seeds: Sequence[int]) -> list[np.ndarray]:
        """All ``l`` sampled cascades of a seed set."""
        return self._extract(self._check_seeds(seeds), 0, self.num_worlds)

    def cascade_size(self, node: int, world: int) -> int:
        """|cascade(node, world)| without materialising the node ids."""
        node = check_node(node, self.num_nodes)
        self._check_world(world)
        return int(self._sizes((node,), world, world + 1)[0])

    def cascade_sizes(self, node: int) -> np.ndarray:
        """``(l,)`` int64 array of |cascade(node, i)| for every world, from
        one walk and without materialising the node ids."""
        node = check_node(node, self.num_nodes)
        return self._sizes((node,), 0, self.num_worlds)

    def seed_set_cascade_sizes(self, seeds: Sequence[int]) -> np.ndarray:
        """``(l,)`` int64 array of the seed set's cascade size per world."""
        return self._sizes(self._check_seeds(seeds), 0, self.num_worlds)

    def all_cascade_sizes(self, max_closure_components: int = 8192) -> np.ndarray:
        """``(n, l)`` matrix of |cascade(v, i)| for every node and world.

        Per world, a dense boolean reachability closure over *components* is
        built in one ascending-id pass (component ids are a reverse
        topological order), then node sizes follow from a matrix-vector
        product with the component sizes.  Worlds whose condensation exceeds
        ``max_closure_components`` fall back to per-node BFS.

        This matrix is the common input of Table 2's statistics and the
        first iteration of the greedy spread maximiser (sigma({v}) for all
        v is its row mean).
        """
        n = self.num_nodes
        sizes = np.zeros((n, self.num_worlds), dtype=np.int64)
        for world, cond in enumerate(self._conds):
            k = cond.num_components
            if k <= max_closure_components:
                closure = np.zeros((k, k), dtype=bool)
                indptr, targets = cond.indptr, cond.targets
                for c in range(k):
                    row = closure[c]
                    for d in targets[indptr[c] : indptr[c + 1]]:
                        np.logical_or(row, closure[int(d)], out=row)
                    row[c] = True
                comp_reach_size = closure @ cond.comp_sizes
                sizes[:, world] = comp_reach_size[cond.node_comp]
            else:
                reach_size = np.empty(k, dtype=np.int64)
                for c in range(k):
                    reached = cond.reachable_components(c)
                    reach_size[c] = int(cond.comp_sizes[reached].sum())
                sizes[:, world] = reach_size[cond.node_comp]
        return sizes

    # -- statistics -----------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Size statistics of the stored structures (index ablation)."""
        comp_counts = np.array([c.num_components for c in self._conds])
        dag_edges = np.array([c.num_edges for c in self._conds])
        return {
            "num_worlds": float(self.num_worlds),
            "num_nodes": float(self.num_nodes),
            "avg_components": float(comp_counts.mean()),
            "avg_dag_edges": float(dag_edges.mean()),
            "total_dag_edges": float(dag_edges.sum()),
            "matrix_cells": float(self._node_comp.size),
        }

    # -- serialisation ----------------------------------------------------------

    def save(self, path: PathLike, *, format: str | None = None, overwrite: bool = False) -> None:
        """Persist the index.

        Two formats are supported and picked by ``format`` (or, when
        ``None``, by the path: a ``.npz`` suffix selects the legacy
        archive, anything else the store directory):

        * ``"store"`` — the versioned columnar directory of
          :mod:`repro.store`: checksummed header, memory-mapped zero-copy
          :meth:`load`, :func:`~repro.store.append.append_worlds` support.
          Preferred for anything that will be reloaded.
        * ``"npz"`` — a single compressed archive (topology + per-world
          DAGs); loading re-derives members and sizes in memory.
        """
        if format is None:
            format = "npz" if str(os.fspath(path)).endswith(".npz") else "store"
        if format == "store":
            from repro.store.format import write_index

            write_index(self, path, overwrite=overwrite)
            return
        if format != "npz":
            raise ValueError(f"format must be 'store' or 'npz', got {format!r}")
        self._save_npz(path)

    def _save_npz(self, path: PathLike) -> None:
        arrays: dict[str, np.ndarray] = {
            "graph_indptr": self._graph.indptr,
            "graph_targets": self._graph.targets,
            "graph_probs": self._graph.probs,
            "node_comp": self._node_comp,
            "reduced": np.array([1 if self._reduced else 0], dtype=np.int8),
        }
        for i, cond in enumerate(self._conds):
            arrays[f"w{i}_indptr"] = cond.indptr
            arrays[f"w{i}_targets"] = cond.targets
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path: PathLike, *, verify: str = "fast") -> "CascadeIndex":
        """Inverse of :meth:`save` for both formats.

        A store directory is opened zero-copy via ``numpy`` memmaps (see
        :func:`repro.store.read_index`; ``verify`` selects ``"fast"`` size
        checks, ``"full"`` SHA-256 validation, or ``"lazy"`` first-touch
        per-column verification).  A ``.npz`` archive is decompressed
        fully into memory.

        Every flavour of unreadable archive — truncated zip, garbage bytes,
        missing arrays, corrupt compressed members — raises
        :class:`~repro.store.errors.StoreFormatError` (a ``ValueError``);
        a missing path stays ``FileNotFoundError``.
        """
        if os.path.isdir(path):
            from repro.store.format import read_index

            return read_index(path, verify=verify)
        import zipfile
        import zlib

        from repro.store.errors import StoreFormatError

        try:
            with np.load(path) as data:
                try:
                    n = int(data["graph_indptr"].shape[0]) - 1
                    graph = ProbabilisticDigraph._from_csr_unchecked(
                        n,
                        data["graph_indptr"],
                        data["graph_targets"],
                        data["graph_probs"],
                    )
                    node_comp = data["node_comp"]
                    reduced = bool(int(data["reduced"][0]))
                    conds = []
                    num_worlds = node_comp.shape[1]
                    for i in range(num_worlds):
                        comp = node_comp[:, i].astype(np.int64)
                        num_components = int(comp.max()) + 1 if comp.size else 0
                        comp_sizes = np.bincount(
                            comp, minlength=num_components
                        ).astype(np.int64)
                        conds.append(
                            Condensation(
                                node_comp=comp,
                                num_components=num_components,
                                indptr=data[f"w{i}_indptr"],
                                targets=data[f"w{i}_targets"],
                                comp_sizes=comp_sizes,
                            )
                        )
                except KeyError as exc:
                    raise StoreFormatError(
                        f"{os.fspath(path)} is not a complete cascade-index "
                        f"archive: missing array — {exc.args[0]}"
                    ) from exc
        except FileNotFoundError:
            raise
        except StoreFormatError:
            raise
        except (zipfile.BadZipFile, zlib.error, OSError, EOFError, ValueError) as exc:
            raise StoreFormatError(
                f"{os.fspath(path)} is not a readable cascade-index archive: {exc}"
            ) from exc
        return cls(graph, conds, reduced=reduced)


def _offsets(lengths: Sequence[int]) -> np.ndarray:
    """``[0, l0, l0 + l1, ...]`` as int64."""
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _gather(values: np.ndarray, first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``values[first[i] : first[i] + count[i]]`` concatenated over ``i``,
    as a fresh array."""
    if first.size == 1:
        return values[int(first[0]) : int(first[0] + count[0])].copy()
    ends = count.cumsum()
    return values[np.arange(ends[-1]) + (first - ends + count).repeat(count)]


def _unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct ``values`` (may sort ``values`` in place)."""
    if values.size < 2:
        return values
    values.sort()
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class _SuperDAG:
    """Every world's condensation laid out as one block-diagonal DAG.

    Component ``c`` of world ``w`` has the global id ``comp_off[w] + c``.
    ``indptr``/``targets`` are the CSR arcs over global ids: each world's
    arcs are shifted by its offset, so no arc crosses worlds.  Members
    keep the store's layout: world ``w``'s slice of ``members`` starts at
    ``member_off[w]`` and is ``n`` long, and component ``c``'s range in
    it is ``member_indptr[p], member_indptr[p + 1]`` with
    ``p = comp_off[w] + c + member_shift[w]`` (a world's ``member_indptr``
    slice has one entry more than it has components).  A store-loaded
    index passes its own four member columns, read zero-copy; otherwise
    they are rebuilt from the ``I[v, i]`` matrix.  The structure holds
    arrays only, never its index.
    """

    __slots__ = (
        "node_comp", "comp_off", "indptr", "targets",
        "members", "member_off", "member_indptr", "member_shift",
    )

    def __init__(
        self,
        conds: Sequence[Condensation],
        node_comp: np.ndarray,
        stored_members: tuple[np.ndarray, ...] | None,
    ) -> None:
        n, num_worlds = node_comp.shape
        # Two passes over the (possibly lazily built) worlds, so that no
        # more than one world's views are alive at a time.
        comp_off = _offsets([conds[w].num_components for w in range(num_worlds)])
        arc_off = _offsets([conds[w].num_edges for w in range(num_worlds)])
        total = int(comp_off[-1])
        # int32 halves the copies whenever the ids fit.
        dtype = np.int32 if max(total, int(arc_off[-1])) < 2**31 else np.int64
        indptr = np.empty(total + 1, dtype=dtype)
        targets = np.empty(int(arc_off[-1]), dtype=dtype)
        if stored_members is None:
            members = np.empty(num_worlds * n, dtype=np.int64)
            member_off = np.arange(num_worlds + 1, dtype=np.int64) * n
            member_indptr = np.empty(total + num_worlds, dtype=np.int64)
            member_indptr_off = comp_off + np.arange(num_worlds + 1)
        else:
            members, member_off, member_indptr, member_indptr_off = stored_members
        for w in range(num_worlds):
            cond = conds[w]
            lo, hi = int(comp_off[w]), int(comp_off[w + 1])
            np.add(cond.indptr[:-1], arc_off[w], out=indptr[lo:hi], casting="unsafe")
            np.add(
                cond.targets, lo, out=targets[arc_off[w] : arc_off[w + 1]],
                casting="unsafe",
            )
            if stored_members is None:
                at = int(member_indptr_off[w])
                member_indptr[at] = 0
                np.cumsum(cond.comp_sizes, out=member_indptr[at + 1 : at + 1 + hi - lo])
                # Stable: nodes grouped by component, ascending within it —
                # exactly Condensation.members() concatenated.
                members[member_off[w] : member_off[w + 1]] = np.argsort(
                    node_comp[:, w], kind="stable"
                )
        indptr[total] = arc_off[-1]
        # Plain ndarray views: indexing a numpy.memmap goes through Python.
        self.node_comp = np.asarray(node_comp)
        self.comp_off = comp_off
        self.indptr = indptr
        self.targets = targets
        self.members = np.asarray(members)
        self.member_off = np.asarray(member_off)
        self.member_indptr = np.asarray(member_indptr)
        self.member_shift = np.asarray(member_indptr_off[:-1]) - comp_off[:-1]

    def starts(self, sources: Sequence[int], lo: int, hi: int) -> np.ndarray:
        """Global start components of ``sources`` in worlds ``lo..hi-1``."""
        if len(sources) == 1:
            comps = self.node_comp[sources[0], lo:hi]
        else:
            comps = self.node_comp[np.asarray(sources, dtype=np.int64), lo:hi].ravel()
            # The worlds repeat once per source; comp_off must follow.
            return _unique(comps + np.tile(self.comp_off[lo:hi], len(sources)))
        return comps + self.comp_off[lo:hi]

    def reach(self, starts: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Global ids of the components reachable from the distinct
        ``starts``, all in worlds ``lo..hi-1``, each once: one
        level-synchronous frontier walk over every world at once, with a
        visited bitmap over those worlds only."""
        base = int(self.comp_off[lo])
        seen = np.zeros(int(self.comp_off[hi]) - base, dtype=bool)
        indptr, targets = self.indptr, self.targets
        levels = []
        frontier = starts
        while frontier.size:
            seen[frontier - base] = True
            levels.append(frontier)
            if frontier.size == 1:  # common in one-world queries
                c = int(frontier[0])
                nxt = targets[indptr[c] : indptr[c + 1]]
            else:
                first = indptr[frontier]
                nxt = _gather(targets, first, indptr[frontier + 1] - first)
            # Widen once: the ids index three arrays before the next level.
            nxt = nxt.astype(np.int64, copy=False)
            frontier = _unique(nxt[~seen[nxt - base]])
        return np.concatenate(levels) if len(levels) > 1 else levels[0]

    def _member_ranges(self, reached: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(first, count, world)`` of every reached component's members."""
        world = np.searchsorted(self.comp_off, reached, side="right") - 1
        at = reached + self.member_shift[world]
        start = self.member_indptr[at]
        count = self.member_indptr[at + 1] - start
        return start + self.member_off[world], count, world

    def members_by_world(self, reached: np.ndarray, lo: int, hi: int) -> list[np.ndarray]:
        """One grouped member gather over ``reached``, one sort on
        ``(world, node)`` keys, one split into sorted int64 arrays, one
        per world ``lo..hi-1``."""
        first, count, world = self._member_ranges(reached)
        nodes = _gather(self.members, first, count)
        if hi - lo == 1:
            nodes.sort()
            return [nodes]
        n = self.node_comp.shape[0]
        keys = ((world - lo) * n).repeat(count)
        keys += nodes
        keys.sort()
        bounds = np.searchsorted(keys, np.arange(hi - lo + 1, dtype=np.int64) * n)
        keys -= (np.arange(hi - lo, dtype=np.int64) * n).repeat(np.diff(bounds))
        bounds = bounds.tolist()
        return [keys[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    def sizes_by_world(self, reached: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """``(hi - lo,)`` int64 member counts of ``reached`` per world."""
        _, count, world = self._member_ranges(reached)
        # Float sums of integers below 2**53 are exact.
        return np.bincount(world - lo, weights=count, minlength=hi - lo).astype(np.int64)
