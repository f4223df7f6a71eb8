"""General k (§4.4 of the paper): one exact cover-distance oracle.

A k-reach index answers only the ``k`` it was built for.  §4.4 serves
every hop budget by keeping the **exact** distance between every pair of
cover vertices (a full BFS instead of Algorithm 1's k-hop BFS,
``⌈log2 d⌉`` bits per entry).  :class:`CoverDistanceOracle` stores those
distances as k-reach stores its weights: inside the memory gate, the
nested cover-position bit planes ≤0 … ≤d (the longest stored distance),
scattered once from the BFS triples; past it, the §4.3 CSR.  It answers
``s →k t`` exactly for every k from the stored planes, and doubles as a
shortest-path-distance oracle.  The paper notes the index graph becomes
dense; that is the price of generality, but it is one structure whatever
the diameter ``d``, where a family of per-k indexes grows with ``d``.
"""

from __future__ import annotations

import numpy as np

from repro.bitsets.ops import DEFAULT_MATRIX_BYTES
from repro.core.batch import (
    MISSING_WEIGHT,
    as_pair_arrays,
    as_vertex_pair,
    gather_segments,
    plan_cross_products,
)
from repro.core.index_graph import IndexGraph, cover_triples_blocked, level_specs
from repro.core.kreach import algorithm2_batch, batch_views, level_within, views_fit
from repro.core.vertex_cover import cover_from_strategy, is_vertex_cover
from repro.graph.digraph import DiGraph

__all__ = ["INFINITE_DISTANCE", "CoverDistanceOracle"]

#: Sentinel distance for unreachable pairs.
INFINITE_DISTANCE = float("inf")


class CoverDistanceOracle:
    """Exact cover-pair distances → exact k-hop answers for every k.

    Construction is Algorithm 1 with the k-hop BFS replaced by a full BFS
    (§4.4, first approach).  While the ``d + 1`` planes ≤0 … ≤d fit
    ``bitset_matrix_bytes`` (``d`` = :attr:`max_distance`), the BFS
    triples are scattered into them once and the CSR is dropped; past
    that the oracle keeps the CSR.  A hop budget ``k`` reads the
    distances at the three budgets Algorithm 2 needs: Case 1 within k,
    Cases 2/3 within k-1 and Case 4 within k-2, the ``u == v`` handshake
    included wherever a zero distance fits.  :meth:`reaches_within_batch`
    is therefore :func:`~repro.core.kreach.algorithm2_batch`, the body
    :class:`~repro.core.kreach.KReachIndex` runs, over this oracle's
    views at those budgets, and ``bitset_matrix_bytes`` picks its path
    by the same rule (:func:`~repro.core.kreach.batch_views`):

    * the stored planes of those budgets (a budget past ``d`` reads the
      last plane), for any k with no scatter and no cache;
    * past the gate, the three views as bit matrices when they fit
      together (one scatter over the CSR per new budget, cached on the
      :class:`~repro.core.index_graph.IndexGraph`);
    * else sorted-key probes of the distances, with the Case-4 bitset
      join while its one view fits;
    * else chunked cross products for Case 4, hub×hub pairs going to the
      scalar :meth:`reaches_within`.

    The scalar :meth:`reaches_within` runs the same cases over the index
    graph's zero-copy :meth:`~repro.core.index_graph.IndexGraph.probe`
    and stops at the first witness.  :meth:`distance` and
    :meth:`distance_batch` minimize over the same cases instead:

    * Case 1: ``d(s, t)``;
    * Case 2: ``min_v d(s, v) + 1`` over in-neighbors ``v`` of ``t``;
    * Case 3: ``min_u d(u, t) + 1`` over out-neighbors ``u`` of ``s``;
    * Case 4: ``min_{u,v} d(u, v) + 2``.

    That makes this a full shortest-path-distance oracle — the paper's
    observation that a general-k index "is essentially an index for
    shortest-path distance queries".  Vertex ids follow the index
    contract: integers in ``[0, n)`` (bools included), anything else
    raises :class:`ValueError`.

    Examples
    --------
    >>> from repro.graph.generators import path_graph
    >>> oracle = CoverDistanceOracle(path_graph(6))
    >>> oracle.distance(0, 4), oracle.reaches_within(0, 4, 3)
    (4, False)
    >>> oracle.reaches_within_batch([(0, 4), (4, 0)], 4).tolist()
    [True, False]
    """

    def __init__(
        self,
        graph: DiGraph,
        *,
        cover: frozenset[int] | None = None,
        cover_strategy: str = "degree",
        bitset_matrix_bytes: int = DEFAULT_MATRIX_BYTES,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.graph = graph
        self.bitset_matrix_bytes = int(bitset_matrix_bytes)
        if cover is None:
            cover = cover_from_strategy(graph, cover_strategy, rng=rng)
        else:
            cover = frozenset(int(v) for v in cover)
            if not is_vertex_cover(graph, cover):
                raise ValueError("provided vertex set is not a vertex cover")
        self.cover = cover
        self._in_cover = np.zeros(graph.n, dtype=bool)
        if cover:
            self._in_cover[list(cover)] = True
        # bytearray flags and plain-list adjacency for the scalar loops.
        self._cover_flags = bytearray(self._in_cover.tobytes())
        self._out_lists: list[list[int]] | None = None
        self._in_lists: list[list[int]] | None = None
        # Exact cover-pair distances from the blocked multi-source BFS
        # (full sweeps: k=None, no floor), scattered into the planes
        # ≤0 … ≤d while they fit the gate.
        triples = cover_triples_blocked(graph, cover, None)
        ig = IndexGraph.from_triples(graph.n, cover, *triples)
        del triples
        self._max_distance = int(ig.weights64().max(initial=0))
        specs = [(budget, True) for budget in range(self._max_distance + 1)]
        if views_fit(specs, ig.cover_size, self.bitset_matrix_bytes):
            ig = IndexGraph.from_levels(
                graph.n, ig.cover_ids, 0, ig.link_matrices(specs)
            )
        self._ig = ig

    @property
    def index_graph(self) -> IndexGraph:
        """The distance storage: the planes ≤0 … ≤d inside the memory
        gate, the §4.3 CSR past it (see :class:`IndexGraph`)."""
        return self._ig

    @property
    def max_distance(self) -> int:
        """``d``, the longest stored cover-pair distance (0 if none)."""
        return self._max_distance

    def prepare_batch(self) -> "CoverDistanceOracle":
        """Build the batch engine's lookup structures now: nothing for a
        plane-form oracle (its batches and :meth:`distance_batch` read the
        planes), the keyed distance store past the gate (what the probes
        there read).  The views of a hop budget past the gate are built
        by its first batch.  Returns ``self``."""
        if self._ig.levels is None:
            self._ig.keyed()
        return self

    def _adjacency(self) -> tuple[list[list[int]], list[list[int]]]:
        """Plain-list ``(out, in)`` adjacency, built on first scalar use."""
        if self._out_lists is None:
            self._out_lists = self.graph.out_lists()
            self._in_lists = self.graph.in_lists()
        return self._out_lists, self._in_lists

    def _pair_distance(self, u: int, v: int) -> float:
        if u == v:
            return 0
        w = self._ig.probe()[1](u, v)
        return INFINITE_DISTANCE if w is None else w

    def distance(self, s: int, t: int) -> float:
        """Exact shortest-path distance (``INFINITE_DISTANCE`` if unreachable)."""
        s, t = as_vertex_pair(s, t, self.graph.n)
        if s == t:
            return 0
        s_in = self._cover_flags[s]
        t_in = self._cover_flags[t]
        if s_in and t_in:
            return self._pair_distance(s, t)
        if s_in:
            best = INFINITE_DISTANCE
            for v in self.graph.in_neighbors(t):
                best = min(best, self._pair_distance(s, int(v)) + 1)
            return best
        if t_in:
            best = INFINITE_DISTANCE
            for u in self.graph.out_neighbors(s):
                best = min(best, self._pair_distance(int(u), t) + 1)
            return best
        best = INFINITE_DISTANCE
        preds = [int(v) for v in self.graph.in_neighbors(t)]
        for u in self.graph.out_neighbors(s):
            u = int(u)
            for v in preds:
                best = min(best, self._pair_distance(u, v) + 2)
        return best

    def distance_batch(self, pairs) -> np.ndarray:
        """Vectorized :meth:`distance`: an ``(m,)`` float64 array.

        Entries are exact shortest-path distances, with
        :data:`INFINITE_DISTANCE` for unreachable pairs.  Same case split
        as the scalar path, but the per-case minimizations run as bulk
        :meth:`IndexGraph.lookup
        <repro.core.index_graph.IndexGraph.lookup>` gathers (bit probes
        of the planes inside the gate, sorted-key probes past it) plus
        segmented ``minimum`` reductions; only
        hub×hub Case-4 pairs whose neighbor cross product would dominate
        memory fall back to the scalar loop.
        """
        g = self.graph
        s, t = as_pair_arrays(pairs, g.n)
        m = len(s)
        if m == 0:
            return np.empty(0, dtype=np.float64)
        dist = np.full(m, MISSING_WEIGHT, dtype=np.int64)
        dist[s == t] = 0
        lookup = self._ig.lookup
        s_in = self._in_cover[s]
        t_in = self._in_cover[t]
        undecided = s != t

        # Case 1: direct cover-pair distance.
        sel = np.flatnonzero(undecided & s_in & t_in)
        if len(sel):
            dist[sel] = lookup(s[sel], t[sel])

        # Case 2: min over in-neighbors v of t of d(s, v) + 1 (d(s, s) = 0).
        sel = np.flatnonzero(undecided & s_in & ~t_in)
        if len(sel):
            nbrs, owner, _ = gather_segments(g.in_indptr, g.in_indices, t[sel])
            src = s[sel][owner]
            cand = np.where(nbrs == src, 0, lookup(src, nbrs)) + 1
            best = np.full(len(sel), MISSING_WEIGHT, dtype=np.int64)
            np.minimum.at(best, owner, cand)
            dist[sel] = best

        # Case 3: min over out-neighbors u of s of d(u, t) + 1.
        sel = np.flatnonzero(undecided & ~s_in & t_in)
        if len(sel):
            nbrs, owner, _ = gather_segments(g.out_indptr, g.out_indices, s[sel])
            dst = t[sel][owner]
            cand = np.where(nbrs == dst, 0, lookup(nbrs, dst)) + 1
            best = np.full(len(sel), MISSING_WEIGHT, dtype=np.int64)
            np.minimum.at(best, owner, cand)
            dist[sel] = best

        # Case 4: min over outNei(s) × inNei(t) of d(u, v) + 2.
        sel = np.flatnonzero(undecided & ~s_in & ~t_in)
        if len(sel):
            s4, t4 = s[sel], t[sel]
            best = np.full(len(sel), MISSING_WEIGHT, dtype=np.int64)
            big, chunks = plan_cross_products(g, s4, t4)
            for sub, u, v, owner in chunks:
                cand = np.where(u == v, 0, lookup(u, v)) + 2
                cur = np.full(len(sub), MISSING_WEIGHT, dtype=np.int64)
                np.minimum.at(cur, owner, cand)
                best[sub] = np.minimum(best[sub], cur)
            for j in big.tolist():
                d = self.distance(int(s4[j]), int(t4[j]))
                if d != INFINITE_DISTANCE:
                    best[j] = int(d)
            dist[sel] = best

        out = dist.astype(np.float64)
        out[dist >= MISSING_WEIGHT] = INFINITE_DISTANCE
        return out

    def reaches_within(self, s: int, t: int, k: int | None) -> bool:
        """Exact ``s →k t`` for any non-negative k (``None``: reachability).

        Algorithm 2's cases over the index graph's
        :meth:`~repro.core.index_graph.IndexGraph.probe`, returning at the
        first witness: Case 1 one probe, Cases 2/3 one probe per neighbor
        of the uncovered endpoint, Case 4 one bridge over the neighbor
        sets.
        """
        if k is not None and k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        flags = self._cover_flags
        s, t = as_vertex_pair(s, t, len(flags))
        if s == t:
            return True
        if k == 0:
            return False
        probe = self._ig.probe
        if flags[s] and flags[t]:
            return probe(k)[0](s, t)
        near = None if k is None else k - 1
        outs, ins = self._adjacency()
        if flags[s]:
            within = probe(near)[0]
            for v in ins[t]:  # every in-neighbor of t is covered
                if v == s or within(s, v):
                    return True
            return False
        if flags[t]:
            within = probe(near)[0]
            for u in outs[s]:
                if u == t or within(u, t):
                    return True
            return False
        if k == 1:
            return False  # no 2-hop bridge fits
        preds = ins[t]
        return bool(preds) and probe(None if k is None else k - 2)[2](outs[s], preds)

    def reaches_within_batch(self, pairs, k: int | None) -> np.ndarray:
        """Vectorized :meth:`reaches_within`: an ``(m,)`` bool array.

        :func:`~repro.core.kreach.algorithm2_batch` over the views at
        budgets k-2, k-1 and k (the presence view for ``k=None``), on the
        path the memory gate picks (see the class docstring).  Answers
        equal ``distance_batch(pairs) <= k`` exactly.
        """
        if k is None:
            specs = level_specs(None)
        elif k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        else:
            specs = [(k - 2, k >= 2), (k - 1, k >= 1), (k, True)]
        s, t = as_pair_arrays(pairs, self.graph.n)
        if k == 0 or not len(s):
            return s == t
        ig = self._ig
        row_pos = ig.row_pos()
        stack, matrix = batch_views(
            ig.link_matrices,
            specs,
            ig.cover_size,
            self.bitset_matrix_bytes,
            stored=ig.levels is not None,
        )
        within = level_within(specs, stack, row_pos, ig.lookup)
        return algorithm2_batch(
            self.graph,
            s,
            t,
            self._in_cover,
            row_pos,
            within,
            matrix,
            lambda a, b: self.reaches_within(a, b, k),
        )

    def reaches(self, s: int, t: int) -> bool:
        """Classic reachability."""
        return self.reaches_within(s, t, None)

    def reaches_batch(self, pairs) -> np.ndarray:
        """Vectorized :meth:`reaches`: an ``(m,)`` bool array."""
        return self.reaches_within_batch(pairs, None)

    @property
    def cover_size(self) -> int:
        """``|V_I|``."""
        return len(self.cover)

    @property
    def edge_count(self) -> int:
        """Number of stored finite cover-pair distances."""
        return self._ig.edge_count

    def weight_bits(self) -> int:
        """Bits per stored distance: ``⌈log2 d⌉`` (§4.4)."""
        return max(1, int(self._max_distance).bit_length())

    def storage_bytes(self) -> int:
        """Same §4.3 storage model as k-reach, with ``⌈lg d⌉``-bit weights."""
        return self._ig.csr_storage_bytes(self.weight_bits())
