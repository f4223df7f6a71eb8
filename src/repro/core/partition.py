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
  index graph is restricted to each shard's vertex set: its level
  planes cut to the rows and bit columns of the shard's cover members
  (inside the memory gate), or its CSR triples filtered to the shard
  (past it).  Algorithm 2
  only ever enumerates the adjacency of *non-cover* endpoints — all of
  which are interior, hence complete in-shard — and only ever looks up
  index-edge weights between cover vertices, which the slice carries
  verbatim from the global build.  Every same-shard four-case
  evaluation is therefore literally the computation the global index
  would have performed.

* **Portal tables for cross-shard pairs.**  A pair with endpoints
  interior to two different shards is answered by stitching two global
  tables: ``exit[v, j]`` and ``entry[v, j]`` hold the distances from
  ``v`` to boundary vertex ``B[j]`` and from ``B[j]`` to ``v`` over the
  *whole* graph, each filled by one blocked MS-BFS from ``B`` (reverse
  for ``exit``, forward for ``entry``).  Since ``B`` separates the
  interiors, every s→t path passes through some ``b`` in ``B``, so
  ``dist(s,t) = min over b of exit(s,b) + entry(b,t)`` exactly (the
  triangle inequality bounds every other split from below).  Distances
  are clipped at ``k+1`` (sums then compare against ``k`` exactly), so
  a stitch is one ``(m, |B|)`` add-min over two row gathers.  For
  ``k=None`` the clipped tables are 0/1 reachability rows packed into
  uint64 bitsets and the verdict is one
  :func:`repro.bitsets.ops.and_any` join — the same kernel the batch
  engine uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitsets import ops
from repro.core.batch import as_pair_arrays
from repro.core.index_graph import IndexGraph
from repro.core.kreach import KReachIndex, default_cover
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


#: Boundary sources per :func:`bfs_distances_blocked` call when filling a
#: portal table: one MS-BFS sweep, so the triples held at once stay
#: ``64 * n`` however large ``B`` grows.
_PORTAL_BLOCK = 64


def _portal_table(
    g: DiGraph, boundary: np.ndarray, k: int | None, direction: str
) -> np.ndarray:
    """Clipped global distances ``(n, |B|)`` between each vertex and ``B``.

    ``direction='in'`` gives ``exit[v, j] = clip(dist(v, boundary[j]))``
    (a reverse BFS from the boundary); ``direction='out'`` gives
    ``entry[v, j] = clip(dist(boundary[j], v))``.  ``boundary`` must be
    ascending and duplicate-free.
    """
    table = np.full((g.n, len(boundary)), _clip_cap(k), dtype=np.int32)
    for start in range(0, len(boundary), _PORTAL_BLOCK):
        block = boundary[start : start + _PORTAL_BLOCK]
        src, dst, dist = bfs_distances_blocked(g, block, k=k, direction=direction)
        table[dst, start + np.searchsorted(block, src)] = _clip(dist, k)
    table[boundary, np.arange(len(boundary))] = 0
    return table


def _vertex_map(shard_of: np.ndarray, shard: int) -> np.ndarray:
    """Ascending global ids of one shard: its interior plus all of ``B``."""
    return np.flatnonzero((shard_of == shard) | (shard_of < 0))


@dataclass
class Shard:
    """One independently servable slice of a :class:`ShardedKReach`.

    ``vertex_map`` is the ascending global-id array of the shard's
    vertices (its interior plus the full boundary set); ``index`` is a
    complete :class:`KReachIndex` over the induced subgraph in local
    ids.
    """

    index: KReachIndex
    vertex_map: np.ndarray

    @property
    def n(self) -> int:
        return len(self.vertex_map)

    def to_local(self, vertices: np.ndarray) -> np.ndarray:
        """Map global vertex ids into this shard's local id space."""
        return np.searchsorted(self.vertex_map, vertices)


class ShardedKReach:
    """A partitioned k-reach index answering exactly like the global one.

    Construct with :func:`partition_kreach` (or open a saved one with
    :func:`~repro.core.serialize.load_sharded`).  :meth:`query_batch` serves
    in-process; :class:`~repro.core.sharded.ShardedQueryServer` runs the
    same routing over per-shard worker pools.

    ``shard_of[v]`` is ``v``'s owning shard, ``-1`` for the boundary set
    (``boundary`` is derived from it).  ``exit`` and ``entry`` are the
    ``(n, |B|)`` int32 portal tables of the cross-shard stitch.
    """

    def __init__(
        self,
        *,
        n: int,
        k: int | None,
        shard_of: np.ndarray,
        entry: np.ndarray,
        exit: np.ndarray,
        shards: list[Shard],
    ) -> None:
        self.n = int(n)
        self.k = k
        self.shard_of = np.asarray(shard_of, dtype=np.int64)
        self.boundary = np.flatnonzero(self.shard_of < 0)
        self.entry = np.asarray(entry, dtype=np.int32)
        self.exit = np.asarray(exit, dtype=np.int32)
        self.shards = shards
        self._bits: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def num_shards(self) -> int:
        return len(self.shards)

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

    def _portal_bits(self) -> tuple[np.ndarray, np.ndarray]:
        """Packed ``== 0`` rows of ``exit`` and ``entry`` (n-reach, lazy)."""
        if self._bits is None:
            self._bits = tuple(
                ops.bit_matrix(*np.nonzero(table == 0), self.n, len(self.boundary))
                for table in (self.exit, self.entry)
            )
        return self._bits

    def stitch(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Exact verdicts for cross-shard pairs via the portal tables."""
        if not len(s) or not len(self.boundary):
            # No portals => shard interiors are disconnected.
            return np.zeros(len(s), dtype=bool)
        if self.k is None:
            exit_bits, entry_bits = self._portal_bits()
            return ops.and_any(exit_bits[s], entry_bits[t])
        return (self.exit[s] + self.entry[t]).min(axis=1) <= self.k

    def query_batch(self, pairs) -> np.ndarray:
        """Batch verdicts in input order, bit-identical to the global index."""
        s, t = as_pair_arrays(pairs, self.n)
        out = np.zeros(len(s), dtype=bool)
        owner = self.route(s, t)
        for i, shard in enumerate(self.shards):
            sel = np.flatnonzero(owner == i)
            if len(sel):
                local = np.stack(
                    [shard.to_local(s[sel]), shard.to_local(t[sel])], axis=1
                )
                out[sel] = shard.index.query_batch(local)
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
        Optional base vertex cover, by default the static index's
        :func:`~repro.core.kreach.default_cover` (all of V when its
        planes fit the memory gate and are at most twice the §4.3
        cover's); the boundary set is always unioned
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
    boundary = np.flatnonzero(boundary_flags)
    shard_of = shard_of.copy()
    shard_of[boundary_flags] = -1

    base_cover = default_cover(graph, k) if cover is None else cover
    full_cover = frozenset(base_cover) | set(boundary.tolist())
    global_index = KReachIndex(graph, k, cover=full_cover)

    ig = global_index.index_graph
    planes = ig.levels
    if planes is None:
        heads, targets, weights = ig.triples()

    shards: list[Shard] = []
    for i in range(num_shards):
        vertex_map = _vertex_map(shard_of, i)
        sub, _ = graph.subgraph(vertex_map)
        member = np.zeros(graph.n, dtype=bool)
        member[vertex_map] = True
        rows = np.flatnonzero(member[ig.cover_ids])
        local_cover = np.searchsorted(vertex_map, ig.cover_ids[rows])
        if planes is not None:
            sliced = IndexGraph.from_levels(
                len(vertex_map),
                local_cover,
                k,
                [ops.bit_submatrix(plane, rows, rows) for plane in planes],
            )
        else:
            keep = member[heads] & member[targets]
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
        shards.append(Shard(index=index, vertex_map=vertex_map))
    return ShardedKReach(
        n=graph.n,
        k=k,
        shard_of=shard_of,
        entry=_portal_table(graph, boundary, k, "out"),
        exit=_portal_table(graph, boundary, k, "in"),
        shards=shards,
    )
