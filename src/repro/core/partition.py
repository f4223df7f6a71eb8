"""Hub-aware graph partitioning for the sharded serving tier.

One index file behind one :class:`~repro.core.serve.QueryServer` pool is
one box.  To scale past it, :func:`partition_kreach` splits the index
into ``N`` independently servable shards whose answers are **bit
identical** to the single global index, by construction rather than by
hope:

* **SCC condensation first.**  Components are the paper's standard
  preprocessing unit (§3.1); keeping each SCC whole means a shard never
  splits a cycle, and the condensation DAG gives cheap component-level
  edge counts for balanced-connectivity assignment.

* **A hub boundary set replicated everywhere.**  Small-world graphs are
  dominated by celebrity vertices; cutting on them would drag every
  query cross-shard.  Instead the top-degree hubs — plus a greedy cover
  of whatever cross-shard edges remain — form a boundary set ``B``
  copied into *every* shard.  ``B`` separates shard interiors: any edge
  between two different-shard interior vertices has an endpoint in
  ``B`` (it was added precisely to cover that edge), so the induced
  subgraph on ``interior_i ∪ B`` holds the **complete** adjacency of
  every interior vertex.

* **The global index, sliced.**  One global :class:`KReachIndex` is
  built with ``B`` forced into its vertex cover, then its weighted
  index graph is restricted to each shard's vertex set.  Algorithm 2
  only ever enumerates the adjacency of *non-cover* endpoints — all of
  which are interior, hence complete in-shard — and only ever looks up
  index-edge weights between cover vertices, which the slice carries
  verbatim from the global build.  Every same-shard four-case
  evaluation is therefore literally the computation the global index
  would have performed.

* **Portal tables for cross-shard pairs.**  A pair with endpoints
  interior to two different shards is answered by min-plus stitching:
  ``dist(s,t) = min over (b, b') in B×B of exit_i(s,b) +
  closure(b,b') + entry_j(b',t)`` — exact because any s→t walk can be
  split at its first and last boundary visit, with the prefix inside
  ``interior_i ∪ {b}`` and the suffix inside ``interior_j ∪ {b'}``.
  Distances are clipped at ``k+1`` (sums then compare against ``k``
  exactly), and the ``exit × closure`` half is precomposed per shard so
  query-time stitching is one ``(m, |B|)`` add-min.  For ``k=None``
  the clipped tables are 0/1 reachability rows packed into uint64
  bitsets and the verdict is one :func:`repro.bitsets.ops.and_any`
  join — the same kernel the batch engine uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bitsets import ops
from repro.core.batch import as_pair_arrays
from repro.core.index_graph import IndexGraph
from repro.core.kreach import KReachIndex, _check_engine
from repro.core.vertex_cover import vertex_cover_2approx
from repro.graph.digraph import DiGraph
from repro.graph.scc import condensation
from repro.graph.traversal import bfs_distances_blocked

__all__ = [
    "Shard",
    "ShardedKReach",
    "partition_kreach",
    "default_hub_count",
]


def default_hub_count(n: int) -> int:
    """Boundary hub budget when the caller does not pick one.

    ``O(sqrt(n))`` hubs cover the heavy tail of a small-world degree
    distribution without replicating a meaningful fraction of the graph
    into every shard.
    """
    return max(4, int(np.ceil(np.sqrt(max(n, 1)))))


def _clip_cap(k: int | None) -> int:
    """Stored-distance ceiling: ``cap`` means "no path within budget".

    Finite ``k``: distances are clipped at ``k+1`` — for any split of a
    path into clipped parts, ``sum <= k`` iff the true sum is ``<= k``
    (a part exceeding ``k`` forces both sums past ``k``; otherwise every
    part is exact).  ``k=None``: only reachability matters, so finite
    distances collapse to 0 and ``cap=1`` marks unreachable; the stitch
    threshold becomes 0.
    """
    return 1 if k is None else k + 1


def _threshold(k: int | None) -> int:
    return 0 if k is None else k


def _clip(dist: np.ndarray, k: int | None) -> np.ndarray:
    if k is None:
        return np.zeros(len(dist), dtype=np.int32)
    return np.minimum(dist, k + 1).astype(np.int32)


def _assign_components(
    g: DiGraph, comp_of: np.ndarray, sizes: np.ndarray, num_shards: int, balance: float
) -> np.ndarray:
    """Greedy balanced-connectivity assignment of SCCs to shards.

    Components are placed largest-first onto the shard they share the
    most edges with (affinity), subject to a ``balance`` cap on shard
    size; ties and affinity-free components go to the least-loaded
    shard.  Returns ``shard_of_component``.
    """
    num_comps = len(sizes)
    if num_shards == 1:
        return np.zeros(num_comps, dtype=np.int64)
    edges = g.edge_array()
    cu = comp_of[edges[:, 0]]
    cv = comp_of[edges[:, 1]]
    keep = cu != cv
    lo = np.minimum(cu[keep], cv[keep])
    hi = np.maximum(cu[keep], cv[keep])
    key, weight = np.unique(lo * num_comps + hi, return_counts=True)
    heads = np.concatenate([key // num_comps, key % num_comps])
    tails = np.concatenate([key % num_comps, key // num_comps])
    weight = np.concatenate([weight, weight])
    order = np.argsort(heads, kind="stable")
    heads, tails, weight = heads[order], tails[order], weight[order]
    indptr = np.zeros(num_comps + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(heads, minlength=num_comps))

    cap = int(np.ceil(balance * g.n / num_shards))
    load = np.zeros(num_shards, dtype=np.int64)
    affinity = np.zeros((num_comps, num_shards), dtype=np.float64)
    shard_of_comp = np.full(num_comps, -1, dtype=np.int64)
    for c in np.argsort(-sizes, kind="stable").tolist():
        fits = load + sizes[c] <= cap
        if fits.any():
            candidates = np.flatnonzero(fits)
            # Highest affinity wins; break ties toward the emptier shard.
            ranking = np.lexsort((load[candidates], -affinity[c, candidates]))
            best = int(candidates[ranking[0]])
        else:  # one component bigger than the cap — someone must take it
            best = int(np.argmin(load))
        shard_of_comp[c] = best
        load[best] += sizes[c]
        span = slice(int(indptr[c]), int(indptr[c + 1]))
        affinity[tails[span], best] += weight[span]
    return shard_of_comp


def _boundary_mask(
    g: DiGraph, shard_of_vertex: np.ndarray, hub_count: int
) -> np.ndarray:
    """Hubs + a greedy cover of the remaining cross-shard edges.

    After seeding with the ``hub_count`` highest-degree vertices, every
    edge whose endpoints still sit in two different shards gets its
    higher-degree endpoint promoted into the boundary.  The result
    separates shard interiors: no edge joins two interior vertices of
    different shards.
    """
    degrees = g.degrees()
    boundary = np.zeros(g.n, dtype=bool)
    if hub_count > 0 and g.n:
        hubs = np.argpartition(-degrees, min(hub_count, g.n) - 1)[:hub_count]
        boundary[hubs] = True
    edges = g.edge_array()
    if len(edges):
        u64 = edges[:, 0].astype(np.int64)
        v64 = edges[:, 1].astype(np.int64)
        cross = shard_of_vertex[u64] != shard_of_vertex[v64]
        for i in np.flatnonzero(cross & ~boundary[u64] & ~boundary[v64]).tolist():
            u, v = int(u64[i]), int(v64[i])
            if boundary[u] or boundary[v]:
                continue  # an earlier promotion already covered this edge
            pick = u if (int(degrees[u]), u) >= (int(degrees[v]), v) else v
            boundary[pick] = True
    return boundary


def _portal_matrix(
    sub: DiGraph, boundary_local: np.ndarray, k: int | None, direction: str
) -> np.ndarray:
    """Clipped distance matrix ``(|B|, n_local)`` from/into the boundary.

    ``direction='out'`` gives entry budgets (boundary -> vertex);
    ``direction='in'`` gives exit budgets transposed (vertex -> boundary
    read as ``[b, v]``).
    """
    cap = _clip_cap(k)
    mat = np.full((len(boundary_local), sub.n), cap, dtype=np.int32)
    if len(boundary_local):
        src, dst, dist = bfs_distances_blocked(
            sub, boundary_local, k=k, direction=direction
        )
        mat[np.searchsorted(boundary_local, src), dst] = _clip(dist, k)
        mat[np.arange(len(boundary_local)), boundary_local] = 0
    return mat


def _closure_matrix(g: DiGraph, boundary: np.ndarray, k: int | None) -> np.ndarray:
    """Clipped boundary-to-boundary distances over the *global* graph."""
    cap = _clip_cap(k)
    size = len(boundary)
    mat = np.full((size, size), cap, dtype=np.int32)
    if size:
        emit = np.zeros(g.n, dtype=bool)
        emit[boundary] = True
        src, dst, dist = bfs_distances_blocked(g, boundary, k=k, emit=emit)
        mat[np.searchsorted(boundary, src), np.searchsorted(boundary, dst)] = _clip(
            dist, k
        )
        np.fill_diagonal(mat, 0)
    return mat


def _compose_exit(
    exit_by_boundary: np.ndarray, closure: np.ndarray, cap: int
) -> np.ndarray:
    """Min-plus precompose ``exit × closure`` -> ``(n_local, |B|)``.

    ``out[v, b'] = clip(min over b of exit(v, b) + closure(b, b'))`` —
    valid to precompose (and re-clip) by min-plus associativity and the
    monotonicity of clipping, so the query-time stitch is a single
    ``(m, |B|)`` add-min against the target shard's entry table.
    """
    num_b, n_local = exit_by_boundary.shape
    out = np.full((n_local, num_b), cap, dtype=np.int32)
    if num_b == 0 or n_local == 0:
        return out
    exits = exit_by_boundary.T  # (n_local, |B|)
    # (chunk, |B|, |B|) workspace, bounded ~16 MB.
    chunk = max(1, (1 << 22) // max(1, num_b * num_b))
    for start in range(0, n_local, chunk):
        block = exits[start : start + chunk]
        combined = block[:, :, None] + closure[None, :, :]
        np.minimum(combined.min(axis=1), cap, out=out[start : start + chunk])
    return out


@dataclass
class Shard:
    """One independently servable slice of a :class:`ShardedKReach`.

    ``vertex_map`` is the ascending global-id array of the shard's
    vertices (its interior plus the full boundary set); ``index`` is a
    complete :class:`KReachIndex` over the induced subgraph in local
    ids.  ``entry[b, v]`` / ``exit_closure[v, b']`` are the clipped
    portal budgets used by the cross-shard stitch.
    """

    index: KReachIndex
    vertex_map: np.ndarray
    entry: np.ndarray  # (|B|, n_local) int32
    exit_closure: np.ndarray  # (n_local, |B|) int32
    _exit_bits: np.ndarray | None = field(default=None, repr=False)
    _entry_bits: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.vertex_map)

    def to_local(self, vertices: np.ndarray) -> np.ndarray:
        """Map global vertex ids into this shard's local id space."""
        return np.searchsorted(self.vertex_map, vertices)

    def exit_bits(self) -> np.ndarray:
        """Packed ``exit_closure == 0`` rows (n-reach stitch, lazy)."""
        if self._exit_bits is None:
            rows, cols = np.nonzero(self.exit_closure == 0)
            self._exit_bits = ops.bit_matrix(
                rows, cols, self.exit_closure.shape[0], self.exit_closure.shape[1]
            )
        return self._exit_bits

    def entry_bits(self) -> np.ndarray:
        """Packed ``entry[:, v] == 0`` rows (n-reach stitch, lazy)."""
        if self._entry_bits is None:
            cols, rows = np.nonzero(self.entry == 0)
            self._entry_bits = ops.bit_matrix(
                rows, cols, self.entry.shape[1], self.entry.shape[0]
            )
        return self._entry_bits


class ShardedKReach:
    """A partitioned k-reach index answering exactly like the global one.

    Construct with :func:`partition_kreach` (or rehydrate a saved
    manifest via :meth:`from_manifest`).  :meth:`query_batch` serves
    in-process; :class:`~repro.core.sharded.ShardedQueryServer` runs the
    same routing over per-shard worker pools.
    """

    def __init__(
        self,
        *,
        n: int,
        k: int | None,
        boundary: np.ndarray,
        shard_of: np.ndarray,
        closure: np.ndarray,
        shards: list[Shard],
    ) -> None:
        self.n = int(n)
        self.k = k
        self.boundary = np.asarray(boundary, dtype=np.int64)
        self.shard_of = np.asarray(shard_of, dtype=np.int64)
        self.closure = closure
        self.shards = shards

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @classmethod
    def from_manifest(cls, manifest) -> "ShardedKReach":
        """Assemble from a :func:`repro.core.serialize.load_sharded` result."""
        shards = [
            Shard(
                index=index,
                vertex_map=np.asarray(vmap, dtype=np.int64),
                entry=np.asarray(entry, dtype=np.int32),
                exit_closure=np.asarray(exitc, dtype=np.int32),
            )
            for index, vmap, entry, exitc in zip(
                manifest.indexes,
                manifest.vertex_maps,
                manifest.entries,
                manifest.exit_closures,
            )
        ]
        return cls(
            n=manifest.n,
            k=manifest.k,
            boundary=np.asarray(manifest.boundary, dtype=np.int64),
            shard_of=np.asarray(manifest.shard_of, dtype=np.int64),
            closure=np.asarray(manifest.closure, dtype=np.int32),
            shards=shards,
        )

    # ----------------------------------------------------------- routing

    def route(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Owning shard per pair; ``-1`` marks cross-shard stitch pairs.

        Boundary vertices live in every shard, so a pair with a boundary
        endpoint is answered wherever its other endpoint resides;
        boundary×boundary pairs hash across shards to spread celebrity
        load.  Only interior×interior pairs from two different shards
        need the portal stitch.
        """
        owner = np.empty(len(s), dtype=np.int64)
        s_home = self.shard_of[s]
        t_home = self.shard_of[t]
        s_b = s_home < 0
        t_b = t_home < 0
        both = s_b & t_b
        owner[both] = (s[both] + t[both]) % self.num_shards
        only_s = s_b & ~t_b
        owner[only_s] = t_home[only_s]
        only_t = t_b & ~s_b
        owner[only_t] = s_home[only_t]
        neither = ~s_b & ~t_b
        same = neither & (s_home == t_home)
        owner[same] = s_home[same]
        owner[neither & (s_home != t_home)] = -1
        return owner

    def stitch(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Exact verdicts for cross-shard pairs via the portal tables."""
        out = np.zeros(len(s), dtype=bool)
        if not len(s) or not len(self.boundary):
            return out  # no portals => shard interiors are disconnected
        combo = self.shard_of[s] * self.num_shards + self.shard_of[t]
        for key in np.unique(combo):
            sel = np.flatnonzero(combo == key)
            source_shard = self.shards[int(key) // self.num_shards]
            target_shard = self.shards[int(key) % self.num_shards]
            local_s = source_shard.to_local(s[sel])
            local_t = target_shard.to_local(t[sel])
            if self.k is None:
                out[sel] = ops.and_any(
                    source_shard.exit_bits()[local_s],
                    target_shard.entry_bits()[local_t],
                )
            else:
                budgets = (
                    source_shard.exit_closure[local_s]
                    + target_shard.entry[:, local_t].T
                )
                out[sel] = budgets.min(axis=1) <= self.k
        return out

    def query_batch(self, pairs, *, engine: str = "auto") -> np.ndarray:
        """Batch verdicts in input order, bit-identical to the global index."""
        _check_engine(engine)
        s, t = as_pair_arrays(pairs, self.n)
        out = np.zeros(len(s), dtype=bool)
        owner = self.route(s, t)
        for i, shard in enumerate(self.shards):
            sel = np.flatnonzero(owner == i)
            if len(sel):
                local = np.stack(
                    [shard.to_local(s[sel]), shard.to_local(t[sel])], axis=1
                )
                out[sel] = shard.index.query_batch(local, engine=engine)
        cross = np.flatnonzero(owner < 0)
        if len(cross):
            out[cross] = self.stitch(s[cross], t[cross])
        return out

    def summary(self) -> dict:
        """Partition shape facts for benches and the metrics endpoint."""
        return {
            "n": self.n,
            "k": self.k,
            "num_shards": self.num_shards,
            "boundary_size": int(len(self.boundary)),
            "shard_sizes": [shard.n for shard in self.shards],
            "interior_sizes": [
                shard.n - len(self.boundary) for shard in self.shards
            ],
        }


def partition_kreach(
    graph: DiGraph,
    k: int | None,
    num_shards: int,
    *,
    hub_count: int | None = None,
    cover: frozenset[int] | None = None,
    balance: float = 1.25,
) -> ShardedKReach:
    """Partition ``graph`` into ``num_shards`` exact k-reach shards.

    Parameters
    ----------
    hub_count:
        Top-degree vertices seeded into the replicated boundary set
        (default ``O(sqrt(n))``).  More hubs shrink the cross-shard
        stitch fraction at the cost of per-shard size.
    cover:
        Optional base vertex cover; the boundary set is always unioned
        in (a superset of a cover is still a cover), which is what keeps
        Algorithm 2 from ever enumerating a boundary vertex's shard-local
        — possibly incomplete — adjacency.
    balance:
        Shard-size cap as a multiple of the ideal ``n / num_shards``.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    cond = condensation(graph)
    shard_of_comp = _assign_components(
        graph, cond.component_of, cond.component_sizes, num_shards, balance
    )
    shard_of = shard_of_comp[cond.component_of]
    hubs = default_hub_count(graph.n) if hub_count is None else hub_count
    boundary_flags = (
        _boundary_mask(graph, shard_of, hubs)
        if num_shards > 1
        else np.zeros(graph.n, dtype=bool)
    )
    boundary = np.flatnonzero(boundary_flags).astype(np.int64)
    shard_of = shard_of.copy()
    shard_of[boundary_flags] = -1

    base_cover = vertex_cover_2approx(graph) if cover is None else cover
    full_cover = frozenset(base_cover) | set(boundary.tolist())
    global_index = KReachIndex(graph, k, cover=full_cover)
    closure = _closure_matrix(graph, boundary, k)
    cap = _clip_cap(k)

    heads, targets, weights = global_index.index_graph.triples()
    cover_flags = np.zeros(graph.n, dtype=bool)
    cover_flags[list(full_cover)] = True

    shards: list[Shard] = []
    for i in range(num_shards):
        vertex_map = np.flatnonzero((shard_of == i) | boundary_flags).astype(
            np.int64
        )
        sub, _ = graph.subgraph(vertex_map)
        member = np.zeros(graph.n, dtype=bool)
        member[vertex_map] = True
        keep = member[heads] & member[targets]
        local_cover = np.searchsorted(
            vertex_map, np.flatnonzero(cover_flags & member)
        )
        sliced = IndexGraph.for_kreach(
            len(vertex_map),
            local_cover,
            np.searchsorted(vertex_map, heads[keep]),
            np.searchsorted(vertex_map, targets[keep]),
            weights[keep],
            k,
        )
        index = KReachIndex.from_index_graph(
            sub,
            k,
            cover=frozenset(int(v) for v in local_cover),
            index_graph=sliced,
        )
        boundary_local = np.searchsorted(vertex_map, boundary)
        entry = _portal_matrix(sub, boundary_local, k, "out")
        exit_by_boundary = _portal_matrix(sub, boundary_local, k, "in")
        shards.append(
            Shard(
                index=index,
                vertex_map=vertex_map,
                entry=entry,
                exit_closure=_compose_exit(exit_by_boundary, closure, cap),
            )
        )
    return ShardedKReach(
        n=graph.n,
        k=k,
        boundary=boundary,
        shard_of=shard_of,
        closure=closure,
        shards=shards,
    )
