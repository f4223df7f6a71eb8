"""The (h,k)-reach index (Definition 2, Algorithm 3, §5 of the paper).

Trades query time for index size: the vertex cover of k-reach is replaced
by an **h-hop vertex cover** (every simple directed path of length ``h``
meets the cover), which Corollary 1 shows is never larger.  The index graph
``H = (V_H, E_H, ω_H)`` stores, for cover pairs, the shortest distance
quantized to the ``2h+1`` values ``{k-2h, …, k}`` — ``ceil(log2(2h+1))``
bits per edge; ``k = None`` stores presence only.

The storage is k-reach's: inside the memory gate, the nested
cover-position bit planes ≤max(k-2h, 0) … ≤k of one reverse bit-parallel
MS-BFS (:func:`~repro.core.index_graph.cover_planes_blocked`; one
presence plane for ``k = None``), so every index probe is one bit; past
it, the §4.3 CSR of the blocked triples.

Queries (Algorithm 3) mirror k-reach's four cases but expand up to
``h``-hop neighborhoods around uncovered endpoints:

* **Case 2** (only ``s`` covered): some ``v ∈ inNei_i(t)`` with
  ``ω_H((s, v)) ≤ k - i``, ``1 ≤ i ≤ h``.
* **Case 4** (neither covered): some ``u ∈ outNei_i(s)``,
  ``v ∈ inNei_j(t)`` with ``ω_H((u, v)) ≤ k - i - j``.

**Completeness fixes** (the paper's Theorem 2 glosses both):

1. *Self-handshake*: a shortest path may carry exactly one cover vertex,
   serving as both the "u" and the "v" of Case 4 — a link of weight 0.
2. *Short cover-free paths*: an h-hop cover only intercepts paths of
   length ``≥ h``, so a path shorter than ``h`` may avoid the cover
   entirely (for example, a single edge ``s → t`` with ``h = 2`` and
   neither endpoint covered).

Both are handled by a meet-in-the-middle *direct-contact test* that runs
before the index lookups (see :meth:`HKReachIndex._join_params`).

**Query-time engineering.**  The paper notes that expansions "terminate
earlier as soon as a match is found"; we go further and bound how deep an
expansion can ever be useful: a level-i neighbor can only certify a link
of weight ``≤ k - i - 1``, and no link is cheaper than ``max(1, k-2h)``,
so levels beyond ``k - 1 - max(1, k-2h)`` are never expanded.  On
hub-dominated graphs this caps the Case-4 cost at neighbor-list size
instead of the (often graph-sized) h-hop hub ball — the difference
between the paper's Table 9 query times and a ~100x blowup.

Definition 2 requires ``h < k/2`` so the smallest useful budget
``k - 2h`` stays positive; the constructor enforces this for finite ``k``
unless ``strict=False`` (which the paper's own Table 9 configuration
needs, since it evaluates (2, µ)-reach with µ = 2).
"""

from __future__ import annotations

import numpy as np

from repro.bitsets.ops import (
    DEFAULT_MATRIX_BYTES,
    and_any,
    bit_matrix,
    or_rows_segmented,
    probe_bits,
    words_for,
)
from repro.bitsets.packed import PackedIntArray, bits_needed
from repro.core.batch import (
    UNBOUNDED_BUDGET,
    as_pair_arrays,
    as_vertex_pair,
    case_codes,
    coalesce_pairs,
    gather_segments,
    segment_any,
)
from repro.core.index_graph import (
    IndexGraph,
    cover_planes_blocked,
    cover_triples_blocked,
)
from repro.core.kreach import views_fit
from repro.core.vertex_cover import hhop_vertex_cover, is_hhop_vertex_cover
from repro.graph.digraph import DiGraph
from repro.graph.traversal import (
    bidirectional_reaches_within,
    blocked_ball_probe,
    bounded_neighborhood,
    reaches_within_small,
)

__all__ = ["HKReachIndex"]

# Cap on the per-batch level-expansion memo (entries).  Random 1M-pair
# workloads have mostly distinct endpoints; without a bound the memo
# would retain every expanded ball for the life of the batch, which on
# hub-heavy graphs is multi-GB where the scalar loop needs O(1).  The
# memo evicts FIFO at the cap, so long hub-heavy batches keep amortizing
# repeated endpoints instead of freezing the cache at its first fill.
_LEVEL_MEMO_CAP = 65_536

# The bitset path processes Cases 2-4 in slices of this many pairs so
# its per-distinct-endpoint bitset blocks stay bounded regardless of the
# batch size.
_BITSET_SLICE = 1 << 16


class HKReachIndex:
    """h-hop vertex-cover-based k-reach index.

    Parameters
    ----------
    graph:
        Input digraph (referenced by queries, as with k-reach).
    h:
        Cover hop parameter (``h ≥ 1``; ``h = 1`` coincides with k-reach's
        cover but keeps Algorithm 3's machinery).
    k:
        Hop budget, or ``None`` for the classic-reachability mode.
        Finite ``k`` must satisfy ``h < k/2`` (Definition 2).
    cover:
        Optional pre-computed h-hop vertex cover (validated on graphs small
        enough for the exhaustive check).
    cover_order:
        Start-vertex priority for the (h+1)-approximation: ``'degree'``
        (default), ``'random'``, or ``'input'``.
    strict:
        Enforce Definition 2's ``h < k/2`` (default).  Pass ``False`` to
        build anyway — the query algorithm remains correct for any
        ``h ≥ 1`` (budgets simply go negative more often and weights are
        quantized less aggressively); the paper itself does this in
        Table 9, where (2, µ)-reach is evaluated with µ = 2.
    bitset_matrix_bytes:
        Memory ceiling for the nested planes the index is built as
        (``k - max(k-2h, 0) + 1`` planes of ``~|V_H|²/8`` bytes each, one
        for ``k = None``; default
        :data:`~repro.bitsets.ops.DEFAULT_MATRIX_BYTES`).  Past it the
        index is the §4.3 CSR and batches take the memoized scalar
        Algorithm-3 walk; ``0`` keeps the index off the planes entirely.

    Examples
    --------
    >>> from repro.graph.generators import paper_example_graph
    >>> g = paper_example_graph()
    >>> idx = HKReachIndex(g, h=2, k=5)
    >>> idx.query(g.vertex_id("a"), g.vertex_id("i"))
    True
    >>> idx.query(g.vertex_id("a"), g.vertex_id("j"))
    False
    """

    _COVER_VALIDATION_MAX_N = 512  # exhaustive h-hop check is exponential-ish

    def __init__(
        self,
        graph: DiGraph,
        h: int,
        k: int | None,
        *,
        cover: frozenset[int] | None = None,
        cover_order: str = "degree",
        strict: bool = True,
        bitset_matrix_bytes: int = DEFAULT_MATRIX_BYTES,
        rng: np.random.Generator | None = None,
    ) -> None:
        if h < 1:
            raise ValueError(f"h must be >= 1, got {h}")
        if k is not None:
            if k < 0:
                raise ValueError(f"k must be non-negative or None, got {k}")
            if strict and not h < k / 2:
                raise ValueError(
                    f"Definition 2 requires h < k/2; got h={h}, k={k} "
                    f"(pass strict=False to build anyway)"
                )
        self.graph = graph
        self.h = h
        self.k = k
        if cover is None:
            cover = hhop_vertex_cover(graph, h, order=cover_order, rng=rng)
        else:
            cover = frozenset(int(v) for v in cover)
            if graph.n <= self._COVER_VALIDATION_MAX_N and not is_hhop_vertex_cover(
                graph, cover, h
            ):
                raise ValueError(f"provided vertex set is not an {h}-hop vertex cover")
        self.cover: frozenset[int] = cover
        self._in_cover = np.zeros(graph.n, dtype=bool)
        if cover:
            self._in_cover[list(cover)] = True
        self.bitset_matrix_bytes = int(bitset_matrix_bytes)
        self._caps = self._join_params()
        self._ig = self._build()

    # ------------------------------------------------------------------
    # Construction (Algorithm 1 with Definition-2 weights)
    # ------------------------------------------------------------------
    def _build(self) -> IndexGraph:
        """The nested planes ≤max(k-2h, 0) … ≤k of one reverse blocked
        MS-BFS while they fit :attr:`bitset_matrix_bytes`, else the CSR of
        the blocked triples with weights ``max(dist, k-2h)``."""
        g, k = self.graph, self.k
        base = 0 if k is None else max(k - 2 * self.h, 0)
        planes = 1 if k is None else k - base + 1
        if views_fit(
            [(base + i, True) for i in range(planes)],
            len(self.cover),
            self.bitset_matrix_bytes,
        ):
            cover_ids, levels = cover_planes_blocked(g, self.cover, base, k)
            return IndexGraph.from_levels(g.n, cover_ids, base, levels)
        triples = cover_triples_blocked(g, self.cover, k)
        return IndexGraph.from_triples(
            g.n,
            self.cover,
            *triples,
            floor=base,
            zero_weights=k is None,
            weight_bits=bits_needed(planes),
        )

    # ------------------------------------------------------------------
    # Query processing (Algorithm 3)
    # ------------------------------------------------------------------
    def _link_within(self, u: int, v: int, budget: int | None) -> bool:
        """Index-certified ``d(u, v) ≤ budget``; ``u == v`` is distance 0."""
        if u == v:
            return budget is None or budget >= 0
        return self._ig.probe(budget)[0](u, v)

    def _levels(
        self,
        v: int,
        limit: int,
        direction: str,
        memo: dict | None = None,
    ) -> list[list[int]]:
        """BFS levels 1..limit around ``v`` (level 0 = {v} omitted).

        ``memo`` (used by the over-gate batch walk) caches expansions
        across a batch: random workloads repeat endpoints, and celebrity
        workloads repeat them heavily, so the per-vertex balls amortize.
        The memo is capped at :data:`_LEVEL_MEMO_CAP` entries with FIFO
        eviction — a huge batch of distinct endpoints cannot hold every
        ball in memory at once, while long hub-heavy batches keep
        amortizing their repeated endpoints instead of losing the cache
        the moment it first fills.
        """
        if limit <= 0:
            return []
        if memo is not None:
            key = (v, limit, direction)
            cached = memo.get(key)
            if cached is not None:
                return cached
        ball = bounded_neighborhood(self.graph, v, limit, direction=direction)
        levels: list[list[int]] = [[] for _ in range(limit)]
        for u, d in ball.items():
            if d >= 1:
                levels[d - 1].append(u)
        if memo is not None:
            if len(memo) >= _LEVEL_MEMO_CAP:
                memo.pop(next(iter(memo)))  # FIFO: drop the oldest ball
            memo[key] = levels
        return levels

    def query(self, s: int, t: int) -> bool:
        """Whether ``s →k t`` (``s → t`` when ``k`` is None)."""
        s, t = as_vertex_pair(s, t, self.graph.n)
        return self._query_impl(s, t, None)

    def _query_impl(self, s: int, t: int, memo: dict | None) -> bool:
        """Algorithm 3 for one validated pair (``memo``: see :meth:`_levels`)."""
        g, k = self.graph, self.k
        if s == t:
            return True
        if k == 0:
            return False
        L23, L4, link_limit, side_limit = self._caps
        s_in = bool(self._in_cover[s])
        t_in = bool(self._in_cover[t])

        if s_in and t_in:
            return self._link_within(s, t, k)

        in_cover = self._in_cover
        if s_in or t_in:
            # Cases 2/3: one uncovered endpoint.  Direct contact first
            # (meet-in-the-middle keeps hub balls unexpanded), then cover
            # links, nearest levels first, down to link_limit.
            contact = (
                reaches_within_small(g, s, t, L23)
                if L23 <= 3
                else bidirectional_reaches_within(g, s, t, L23)
            )
            if contact:
                return True
            if s_in:
                levels = self._levels(t, link_limit, "in", memo)
                for i, level in enumerate(levels, start=1):
                    budget = None if k is None else k - i
                    for v in level:
                        if in_cover[v] and self._link_within(s, v, budget):
                            return True
            else:
                levels = self._levels(s, link_limit, "out", memo)
                for i, level in enumerate(levels, start=1):
                    budget = None if k is None else k - i
                    for u in level:
                        if in_cover[u] and self._link_within(u, t, budget):
                            return True
            return False

        # Case 4: both endpoints uncovered.
        contact = (
            reaches_within_small(g, s, t, L4)
            if L4 <= 3
            else bidirectional_reaches_within(g, s, t, L4)
        )
        if contact:
            return True
        if side_limit == 0:
            return False
        fwd_levels = self._levels(s, side_limit, "out", memo)
        back_levels = self._levels(t, side_limit, "in", memo)
        fwd_cover = [
            (u, i)
            for i, level in enumerate(fwd_levels, start=1)
            for u in level
            if in_cover[u]
        ]
        if not fwd_cover:
            return False
        back_cover = [
            (v, j)
            for j, level in enumerate(back_levels, start=1)
            for v in level
            if in_cover[v]
        ]
        if not back_cover:
            return False
        # Nearest cover contacts first: they leave the largest budget.
        fwd_cover.sort(key=lambda p: p[1])
        back_cover.sort(key=lambda p: p[1])
        for u, i in fwd_cover:
            for v, j in back_cover:
                budget = None if k is None else k - i - j
                if self._link_within(u, v, budget):
                    return True
        return False

    def reaches(self, s: int, t: int) -> bool:
        """Classic-reachability alias (meaningful for ``k=None``)."""
        return self.query(s, t)

    # ------------------------------------------------------------------
    # Batch query processing
    # ------------------------------------------------------------------
    def prepare_batch(self) -> "HKReachIndex":
        """Build the batch engine's lookup structures now (see
        :meth:`KReachIndex.prepare_batch
        <repro.core.kreach.KReachIndex.prepare_batch>`): nothing for a
        plane-form index, the keyed Case-1 store past the gate."""
        if not self._bitset_ready():
            self._ig.keyed()
        return self

    def _join_params(self) -> tuple[int, int, int, int]:
        """``(L23, L4, link_limit, side_limit)`` — Algorithm 3's depth caps
        (fixed at construction, read as ``_caps``).

        ``L23`` / ``L4`` bound the meet-in-the-middle direct test.  Cases
        2/3 (one endpoint covered): a path whose only cover vertex is the
        covered endpoint itself is cover-free afterwards, hence shorter
        than ``h`` — the test needs ``min(h, k)`` hops.  Case 4: a shortest
        path may carry exactly **one** cover vertex, within ``h`` of both
        endpoints.  That certificate is the u == v self-handshake (weight
        0), which the link-expansion caps cannot see, so the direct test
        must cover it: up to ``min(2h, k)`` hops.

        ``link_limit`` / ``side_limit`` are the deepest expansion levels
        that can still certify an index link.  Weights are ``max(distance,
        k-2h)`` and distinct cover vertices are at distance ≥ 1, so no link
        is cheaper than ``minw = max(1, k-2h)``: a level-i link needs
        ``k - i >= minw``, and Case 4's ``i + j + minw <= k`` with ``i, j
        >= 1`` bounds each side.  Expanding further is pure waste — on
        hub-dominated graphs the difference is a ~1000x query-time cliff,
        since a 2-hop ball around a hub neighbor covers most of the graph.
        """
        k, h = self.k, self.h
        if k is None:
            return h, 2 * h, h, h
        minw = max(1, k - 2 * h)
        return (
            min(h, k),
            min(2 * h, k),
            max(0, min(h, k - minw)),
            max(0, min(h, k - 1 - minw)),
        )

    def _bitset_ready(self) -> bool:
        """The memory gate: whether the index holds its planes (the build
        put them under :attr:`bitset_matrix_bytes`)."""
        return self._ig.levels is not None

    def _matrix(self, budget: int | None) -> np.ndarray:
        """The stored plane for one budget, diagonal set.

        The diagonal encodes the ``u == v`` handshake
        (:meth:`_link_within` treats it as distance 0), which every
        budget the engine joins against admits (all are ``>= 0``).
        """
        return self._ig.link_matrix(budget, diagonal=True)

    def query_batch(self, pairs) -> np.ndarray:
        """Vectorized :meth:`query` over a batch of (s, t) pairs.

        Same contract as :meth:`KReachIndex.query_batch
        <repro.core.kreach.KReachIndex.query_batch>`: ``(m, 2)`` integer
        array-like in, ``(m,)`` bool array out, bit-identical to the
        scalar path, ``(0,)`` for empty input, :class:`ValueError` for
        out-of-range ids.

        Algorithm 3's case split is vectorized over the cover flags.  The
        memory gate (:meth:`_bitset_ready`: the index holds its planes)
        picks one of two paths:

        * planes — Case 1 probes one bit of the top plane per pair, and
          Cases 2–4 run a 64-source bit-parallel ball expansion over the
          batch's distinct endpoints: one blocked sweep answers every
          direct-contact test at its exact hop checkpoint and collects
          per-endpoint cover-contact bitsets, which then resolve the
          index joins as word-wise AND tests against the plane rows of
          each budget.  No per-pair Python walk remains.
        * CSR — Case 1 resolves through one bulk sorted-key gather, and
          Cases 2–4 take the per-pair Algorithm-3 walk with the shared
          FIFO level-expansion memo.

        Repeated (s, t) pairs are deduplicated and the distinct pairs
        grouped by case code before the kernels run
        (:func:`~repro.core.batch.coalesce_pairs`), scattering verdicts
        back to input order.  The per-pair reference is :meth:`query`.
        """
        s, t = as_pair_arrays(pairs, self.graph.n)
        if len(s) == 0:
            return np.zeros(0, dtype=bool)
        codes = case_codes(self._in_cover[s], self._in_cover[t])
        # As in KReachIndex.query_batch: kernels always see the
        # deduplicated, case-grouped pairs.
        us, ut, inverse = coalesce_pairs(s, t, self.graph.n, codes=codes)
        return self._query_batch_arrays(us, ut)[inverse]

    def _query_batch_arrays(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Algorithm 3 over validated (s, t) columns (see :meth:`query_batch`)."""
        g, k = self.graph, self.k
        m = len(s)
        out = np.zeros(m, dtype=bool)
        np.equal(s, t, out=out)
        if k == 0:
            return out
        s_in = self._in_cover[s]
        t_in = self._in_cover[t]
        undecided = ~out  # s != t

        # Case 1: every stored link is within k.
        sel = np.flatnonzero(undecided & s_in & t_in)
        planes = self._ig.levels
        if len(sel) and planes is not None:
            pos = self._ig.row_pos()
            out[sel] = probe_bits(planes[-1], pos[s[sel]], pos[t[sel]])
        elif len(sel):
            out[sel] = self._ig.keyed().lookup(s[sel], t[sel]) <= UNBOUNDED_BUDGET

        rest = np.flatnonzero(undecided & ~(s_in & t_in))
        if not len(rest):
            return out
        if planes is None:
            # Per-pair Algorithm-3 walk with shared level memo.
            memo: dict = {}
            for j in rest.tolist():
                out[j] = self._query_impl(int(s[j]), int(t[j]), memo)
            return out
        for start in range(0, len(rest), _BITSET_SLICE):
            sl = rest[start : start + _BITSET_SLICE]
            out[sl] = self._rest_batch_bitset(s[sl], t[sl], s_in[sl])
        return out

    def _rest_batch_bitset(
        self, rs: np.ndarray, rt: np.ndarray, rs_in: np.ndarray
    ) -> np.ndarray:
        """Cases 2–4 verdicts for one slice of non-Case-1 pairs (s != t).

        Three phases, all bit-parallel:

        1. One blocked forward sweep from the slice's **distinct**
           sources resolves every pair's direct-contact test at its
           exact hop checkpoint (``L23`` or ``L4``) and emits
           ``(source, cover vertex, level)`` contact triples.
        2. One blocked backward sweep from the distinct uncovered
           targets emits the mirror triples, packed into per-(target,
           level) cover-position bitsets.
        3. The index joins: Case 2 ANDs the covered source's matrix row
           against the target's level bitsets, Case 3 probes one matrix
           bit per forward contact, Case 4 OR-folds the forward
           contacts' matrix rows (per level pair, respecting the
           ``k - i - j`` budgets) and ANDs them against the backward
           bitsets.  Every verdict matches the scalar walk bit for bit.
        """
        g, k = self.graph, self.k
        n_pairs = len(rs)
        res = np.zeros(n_pairs, dtype=bool)
        ig = self._ig
        row_pos = ig.row_pos()
        cover_size = ig.cover_size
        words = words_for(cover_size)
        L23, L4, link_limit, side_limit = self._caps
        case = np.where(rs_in, 2, np.where(self._in_cover[rt], 3, 4)).astype(np.int8)

        # Phase 1: forward contact sweep over distinct sources.
        uniq_s, s_idx = np.unique(rs, return_inverse=True)
        contact_depth = np.where(case == 4, L4, L23).astype(np.int64)
        depth_s = np.zeros(len(uniq_s), dtype=np.int64)
        np.maximum.at(depth_s, s_idx, contact_depth)
        contact, (fs, fv, fd) = blocked_ball_probe(
            g,
            uniq_s,
            s_idx,
            rt,
            contact_depth,
            depths=depth_s,
            direction="out",
            emit=self._in_cover,
        )
        res |= contact
        if link_limit == 0 and side_limit == 0:
            return res

        # Forward contacts grouped by source index (a CSR over uniq_s).
        order = np.argsort(fs, kind="stable")
        fs, fv, fd = fs[order], fv[order], fd[order]
        f_indptr = np.zeros(len(uniq_s) + 1, dtype=np.int64)
        np.cumsum(np.bincount(fs, minlength=len(uniq_s)), out=f_indptr[1:])

        # Phase 2: backward sweep over distinct uncovered targets,
        # packed into per-(target, level) cover-position bitsets.
        bmask = case != 3
        t_idx = np.full(n_pairs, -1, dtype=np.int64)
        slots = 1 if k is None else link_limit
        bits_b: np.ndarray | None = None
        if bool(bmask.any()) and slots > 0:
            uniq_t, t_part = np.unique(rt[bmask], return_inverse=True)
            t_idx[bmask] = t_part
            depth_t = np.zeros(len(uniq_t), dtype=np.int64)
            np.maximum.at(
                depth_t,
                t_part,
                np.where(case[bmask] == 2, link_limit, side_limit),
            )
            empty = np.empty(0, dtype=np.int64)
            _, (bs, bv, bd) = blocked_ball_probe(
                g,
                uniq_t,
                empty,
                empty,
                empty,
                depths=depth_t,
                direction="in",
                emit=self._in_cover,
            )
            rows = bs if k is None else bs * slots + (bd - 1)
            bits_b = bit_matrix(
                rows, row_pos[bv], len(uniq_t) * slots, cover_size
            ).reshape(len(uniq_t), slots, words)

        # Phase 3a: Case 2 — the covered source's matrix row AND the
        # target's level bitsets, nearest levels with the largest budget.
        sel = np.flatnonzero((case == 2) & ~res)
        if len(sel) and link_limit > 0 and bits_b is not None:
            spos = row_pos[rs[sel]]
            tsel = t_idx[sel]
            if k is None:
                res[sel] |= and_any(self._matrix(None)[spos], bits_b[tsel, 0])
            else:
                for j in range(1, link_limit + 1):
                    res[sel] |= and_any(
                        self._matrix(k - j)[spos], bits_b[tsel, j - 1]
                    )

        # Phase 3b: Case 3 — one matrix-bit probe per forward contact.
        sel = np.flatnonzero((case == 3) & ~res)
        if len(sel) and link_limit > 0:
            cpos, owner, _ = gather_segments(
                f_indptr, np.arange(len(fv), dtype=np.int64), s_idx[sel]
            )
            keep = fd[cpos] <= link_limit
            cpos, owner = cpos[keep], owner[keep]
            upos = row_pos[fv[cpos]]
            levels = fd[cpos]
            tpos = row_pos[rt[sel]][owner]
            hit = np.zeros(len(cpos), dtype=bool)
            if k is None:
                hit = probe_bits(self._matrix(None), upos, tpos)
            else:
                for i in range(1, link_limit + 1):
                    seli = levels == i
                    if seli.any():
                        hit[seli] = probe_bits(
                            self._matrix(k - i), upos[seli], tpos[seli]
                        )
            res[sel] |= segment_any(hit, owner, len(sel))

        # Phase 3c: Case 4 — OR-fold the forward contacts' matrix rows
        # per level pair (i, j) under the k - i - j budget, then AND
        # against the backward level bitsets.
        sel = np.flatnonzero((case == 4) & ~res)
        if len(sel) and side_limit > 0 and bits_b is not None:
            su, su_inv = np.unique(s_idx[sel], return_inverse=True)
            cpos, owner, _ = gather_segments(
                f_indptr, np.arange(len(fv), dtype=np.int64), su
            )
            keep = fd[cpos] <= side_limit
            cpos, owner = cpos[keep], owner[keep]
            upos = row_pos[fv[cpos]]
            levels = fd[cpos]
            tsel = t_idx[sel]
            if k is None:
                folded = or_rows_segmented(
                    self._matrix(None), upos, owner, len(su)
                )
                res[sel] |= and_any(folded[su_inv], bits_b[tsel, 0])
            else:
                for j in range(1, side_limit + 1):
                    folded = np.zeros((len(su), words), dtype=np.uint64)
                    for i in range(1, side_limit + 1):
                        budget = k - i - j
                        if budget < 0:
                            continue
                        seli = levels == i
                        if seli.any():
                            or_rows_segmented(
                                self._matrix(budget),
                                upos[seli],
                                owner[seli],
                                len(su),
                                out=folded,
                            )
                    res[sel] |= and_any(folded[su_inv], bits_b[tsel, j - 1])
        return res

    def query_case_batch(self, pairs) -> np.ndarray:
        """Vectorized :meth:`query_case`: an ``(m,)`` uint8 array of 1–4."""
        s, t = as_pair_arrays(pairs, self.graph.n)
        return case_codes(self._in_cover[s], self._in_cover[t])

    def query_case(self, s: int, t: int) -> int:
        """Which of Algorithm 3's four cases the query (s, t) falls into."""
        s, t = as_vertex_pair(s, t, self.graph.n)
        s_in = bool(self._in_cover[s])
        t_in = bool(self._in_cover[t])
        if s_in and t_in:
            return 1
        if s_in:
            return 2
        if t_in:
            return 3
        return 4

    def contains(self, v: int) -> bool:
        """Whether ``v`` is in the h-hop vertex cover."""
        return bool(self._in_cover[v])

    # ------------------------------------------------------------------
    # Introspection & storage model
    # ------------------------------------------------------------------
    @property
    def index_graph(self) -> IndexGraph:
        """The index storage: the nested planes inside the memory gate,
        the §4.3 CSR past it (see :class:`IndexGraph`)."""
        return self._ig

    @property
    def cover_size(self) -> int:
        """``|V_H|``."""
        return len(self.cover)

    @property
    def edge_count(self) -> int:
        """``|E_H|``."""
        return self._ig.edge_count

    def weight(self, u: int, v: int) -> int | None:
        """The stored ``ω_H((u, v))``, or None if absent."""
        return self._ig.weight_of(u, v)

    def weighted_edges(self) -> list[tuple[int, int, int]]:
        """All index edges as sorted ``(u, v, weight)`` triples."""
        return self._ig.weighted_edges()

    def weight_bits(self) -> int:
        """Bits per edge weight: ``ceil(log2(2h+1))`` distinct values
        (fewer when ``k < 2h`` caps the quantization range)."""
        if self.k is None:
            return 0
        floor = max(self.k - 2 * self.h, 0)
        return bits_needed(self.k - floor + 1)

    def storage_bytes(self) -> int:
        """Modeled on-disk size, same scheme as k-reach but wider weights."""
        return self._ig.csr_storage_bytes(self.weight_bits())

    def packed_weights(self) -> PackedIntArray:
        """Edge weights packed at ``weight_bits()`` bits (offset by k-2h).

        The weight array of the :class:`IndexGraph` CSR (derived from the
        planes of a plane-form index).
        """
        if self.k is None:
            raise ValueError("the unbounded mode stores no weights")
        return self._ig.packed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        k = "inf" if self.k is None else self.k
        return (
            f"HKReachIndex(h={self.h}, k={k}, |V_H|={self.cover_size}, "
            f"|E_H|={self.edge_count})"
        )
