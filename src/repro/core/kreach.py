"""The k-reach index (Definition 1, Algorithms 1–2 of the paper).

Given a directed graph ``G`` and a hop budget ``k``, the index is a small
weighted digraph ``I = (V_I, E_I, ω_I)``:

* ``V_I`` is a vertex cover ``S`` of ``G``;
* ``(u, v) ∈ E_I`` iff ``u →k v`` in ``G`` (``v`` reachable from ``u``
  within ``k`` hops);
* ``ω_I((u, v)) = max(d(u, v), k-2)`` — i.e. the shortest-path distance
  quantized to the three values ``{k-2, k-1, k}``, which is all query
  processing ever needs (2 bits per edge, §4.3).

The index is held as an :class:`~repro.core.index_graph.IndexGraph`.
Since the 2-bit weight only ever answers "within k-2, k-1 or k?", the
default build stores exactly that: the three nested cover-position bit
planes of :func:`level_specs` (one presence plane for n-reach), taken
from one blocked bit-parallel MS-BFS over in-edges
(:func:`~repro.core.index_graph.cover_planes_blocked`).  This applies
while the planes fit ``bitset_matrix_bytes``; there the planes *are*
the index and its CSR is derived only for the consumers that read rows
(the same plane form holds the (h,k)-reach index and the §4.4 oracle).
Past that gate, construction feeds the §4.3 CSR (cover-id table +
offsets + targets + packed weights) from the ``(src, dst, dist)``
triple arrays of the blocked multi-source BFS; both routes give the
same index, bit for bit, as one BFS per cover vertex
(:func:`~repro.core.index_graph.cover_triples_serial`, the tests'
oracle).  The blocked sweeps are this module's answer to §4.1.3's
"straightforward to parallelize": 64 independent cover-vertex BFSs
share one bit-parallel pass.

Unless a cover is given, :func:`default_cover` picks it: all of V
(every query is then Case 1) while V's planes fit the same gate and
are at most twice the §4.3 2-approximate cover's, that cover otherwise.

Queries (Algorithm 2) split on cover membership of the endpoints:

* **Case 1** (both in ``S``): one edge lookup in ``I``.
* **Case 2** (only ``s``): every in-neighbor of ``t`` is in ``S`` (else the
  edge into ``t`` would be uncovered), so ``s →k t`` iff some in-neighbor
  ``v`` has ``ω_I((s, v)) ≤ k-1``.
* **Case 3** (only ``t``): mirror of Case 2 via out-neighbors of ``s``.
* **Case 4** (neither): some out-neighbor ``u`` of ``s`` and in-neighbor
  ``v`` of ``t`` must satisfy ``ω_I((u, v)) ≤ k-2``.

**Self-handshake fix.**  The pseudocode in the paper implicitly relies on
``I`` containing a zero-weight self-loop at every cover vertex: in Case 2
the covering in-neighbor of ``t`` may be ``s`` itself (the path is the
single edge ``s → t``), and in Case 4 the out-neighbor of ``s`` may equal
the in-neighbor of ``t`` (the path is ``s → u → t``).  We implement this by
treating ``u == v`` as an always-present link of weight 0 rather than
materializing self-loops; `tests/core/test_kreach.py` exercises both
situations.

With ``k=None`` the index degenerates to the paper's **n-reach**: a classic
reachability index.
"""

from __future__ import annotations

import numpy as np

from repro import faults
from repro.bitsets.ops import DEFAULT_MATRIX_BYTES, matrix_bytes, probe_bits
from repro.bitsets.packed import PackedIntArray
from repro.core.batch import (
    UNBOUNDED_BUDGET,
    as_pair_arrays,
    as_vertex_pair,
    case4_bitset_join,
    case_codes,
    coalesce_pairs,
    gather_segments,
    segment_any,
    plan_cross_products,
)
from repro.core.index_graph import (
    IndexGraph,
    cover_planes_blocked,
    cover_triples_blocked,
    level_specs,
)
from repro.core.vertex_cover import is_vertex_cover, vertex_cover_2approx
from repro.graph.digraph import DiGraph

__all__ = [
    "KReachIndex",
    "algorithm2_batch",
    "batch_views",
    "default_cover",
    "level_specs",
    "level_within",
    "views_fit",
]


class KReachIndex:
    """Vertex-cover-based k-hop reachability index.

    Parameters
    ----------
    graph:
        The input :class:`~repro.graph.digraph.DiGraph`.  The index keeps a
        reference — queries need the original adjacency for Cases 2–4.
    k:
        Hop budget.  ``None`` builds the n-reach variant answering classic
        reachability.
    cover:
        Optional pre-computed vertex cover (it is validated and used as
        given); by default :func:`default_cover` picks it — all of V
        when its level planes fit ``bitset_matrix_bytes`` and are at most
        twice the §4.3 2-approximate cover's, else that cover.  Pass
        ``cover=cover_from_strategy(graph, ...)`` for another strategy.
    bitset_matrix_bytes:
        Memory ceiling for the cover-position bit views this index
        builds (``~|S|²/8`` bytes each; default
        :data:`~repro.bitsets.ops.DEFAULT_MATRIX_BYTES`).  When the
        three nested views of :meth:`query_batch` (≤k-2, ≤k-1, ≤k; one
        presence view for n-reach) fit together, they are the index,
        built as level planes straight from one reverse bit-parallel
        multi-source BFS: every Case 1–3 probe is a bit load and Case 4
        is a bitset join.  Past that, batches probe the keyed row store
        over the CSR, and Case 4 still takes the bitset join while its
        one link matrix fits; covers too large even for that fall back
        to the chunked cross products.  ``0`` keeps a built index off
        every bit view.  Planes an index already holds (built or
        memory-mapped) are always used: the gate caps only views built
        privately.

    **Batch API contract.**  :meth:`query_batch` and
    :meth:`query_case_batch` accept any ``(m, 2)`` integer array-like of
    ``(s, t)`` pairs (lists of tuples included) and return numpy arrays
    aligned with the input order: ``query_batch`` an ``(m,)`` bool array
    (``True`` iff ``s →k t``), ``query_case_batch`` an ``(m,)`` uint8
    array of Algorithm-2 case numbers 1–4.  Empty inputs yield empty
    ``(0,)`` arrays of the same dtypes; any vertex id outside
    ``[0, graph.n)`` raises :class:`ValueError`, exactly like the scalar
    methods.  Answers are bit-identical to calling :meth:`query` /
    :meth:`query_case` pair by pair.

    Examples
    --------
    >>> from repro.graph.generators import paper_example_graph
    >>> g = paper_example_graph()
    >>> idx = KReachIndex(g, k=3)
    >>> idx.query(g.vertex_id("b"), g.vertex_id("g"))
    True
    >>> idx.query(g.vertex_id("b"), g.vertex_id("i"))
    False
    """

    def __init__(
        self,
        graph: DiGraph,
        k: int | None,
        *,
        cover: frozenset[int] | None = None,
        bitset_matrix_bytes: int = DEFAULT_MATRIX_BYTES,
    ) -> None:
        if k is not None and k < 0:
            raise ValueError(f"k must be non-negative or None, got {k}")
        if cover is None:
            cover = default_cover(graph, k, bitset_matrix_bytes)
        else:
            cover = frozenset(int(v) for v in cover)
            if not is_vertex_cover(graph, cover):
                raise ValueError("provided vertex set is not a vertex cover")
        if views_fit(level_specs(k), len(cover), bitset_matrix_bytes):
            base = 0 if k is None else k - 2
            cover_ids, planes = cover_planes_blocked(graph, cover, base, k)
            ig = IndexGraph.from_levels(graph.n, cover_ids, base, planes)
        else:
            triples = cover_triples_blocked(graph, cover, k)
            ig = IndexGraph.for_kreach(graph.n, cover, *triples, k)
        self._finish_init(graph, k, cover, ig, bitset_matrix_bytes)

    def _finish_init(
        self,
        graph: DiGraph,
        k: int | None,
        cover: frozenset[int],
        index_graph: IndexGraph,
        bitset_matrix_bytes: int = DEFAULT_MATRIX_BYTES,
    ) -> None:
        self.graph = graph
        self.k = k
        self.cover = cover
        # bytearray: fastest per-query membership flag in CPython.  Built
        # through one numpy scatter instead of a Python loop — covers are
        # |S|-sized and this runs on the serving tier's open path.
        if cover:
            flags = np.zeros(graph.n, dtype=np.uint8)
            flags[np.fromiter(cover, dtype=np.int64, count=len(cover))] = 1
            self._cover_flags = bytearray(flags.tobytes())
        else:
            self._cover_flags = bytearray(graph.n)
        self._ig = index_graph
        self.bitset_matrix_bytes = int(bitset_matrix_bytes)
        # Plain-list adjacency for the hot scalar query loops — built on
        # the first scalar query, not here: an O(n + m) list
        # materialization at construction time would put the whole graph
        # on the open path of the zero-copy loader (which must stay
        # O(header)).  The batch engines never touch these lists.
        self._out_lists: list[list[int]] | None = None
        self._in_lists: list[list[int]] | None = None
        # The scalar query's probes, taken on first use (see _scalar_view).
        self._scalar: tuple | None = None
        self._flags_np: np.ndarray | None = None

    @classmethod
    def from_index_graph(
        cls,
        graph: DiGraph,
        k: int | None,
        *,
        cover: frozenset[int],
        index_graph: IndexGraph,
        bitset_matrix_bytes: int = DEFAULT_MATRIX_BYTES,
    ) -> "KReachIndex":
        """Assemble an index around a pre-built :class:`IndexGraph`.

        Used by the on-disk loaders (:mod:`repro.core.serialize`) and
        :meth:`~repro.core.dynamic.DynamicKReachIndex.freeze`.  The caller
        is responsible for the contents being exactly what Algorithm 1
        would have produced for this ``(graph, k, cover)``.
        """
        self = object.__new__(cls)
        if not isinstance(cover, frozenset):
            cover = frozenset(int(v) for v in cover)
        self._finish_init(graph, k, cover, index_graph, bitset_matrix_bytes)
        return self

    # ------------------------------------------------------------------
    # Query processing (Algorithm 2)
    # ------------------------------------------------------------------
    def _scalar_view(self) -> tuple:
        """``(linked, near, bridge)``: the index graph's
        :meth:`~repro.core.index_graph.IndexGraph.probe` for Case 1 (any
        stored link), Cases 2/3 (a link within k-1) and Case 4 (a bridge
        within k-2; every budget is None for n-reach).  A plane-form index
        reads one byte per probe and never derives its CSR."""
        if self._scalar is None:
            ig, k = self._ig, self.k
            near, far = (None, None) if k is None else (k - 1, k - 2)
            self._scalar = ig.probe()[0], ig.probe(near)[0], ig.probe(far)[2]
        return self._scalar

    def _out_adj(self) -> list[list[int]]:
        """Plain-list out-adjacency for the scalar loops (first use only —
        each direction is O(n + m) of Python lists, so Case 1/2 queries
        must never trigger the build)."""
        if self._out_lists is None:
            self._out_lists = self.graph.out_lists()
        return self._out_lists

    def _in_adj(self) -> list[list[int]]:
        """Plain-list in-adjacency, built on first use (see :meth:`_out_adj`)."""
        if self._in_lists is None:
            self._in_lists = self.graph.in_lists()
        return self._in_lists

    def query(self, s: int, t: int) -> bool:
        """Whether ``s →k t`` (``s → t`` for the n-reach mode)."""
        flags = self._cover_flags
        s, t = as_vertex_pair(s, t, len(flags))
        if s == t:
            return True
        if self.k == 0:
            return False
        # From here on k >= 1 (or n-reach), so the u == v handshake fits
        # the k-1 budget of Cases 2 and 3.
        linked, near, bridge = self._scalar_view()
        if flags[s]:
            if flags[t]:
                # Case 1: all stored weights are <= k by construction.
                return linked(s, t)
            # Case 2: all in-neighbors of t are covered.
            for v in self._in_adj()[t]:
                if v == s or near(s, v):
                    return True
            return False
        if flags[t]:
            # Case 3: all out-neighbors of s are covered.
            for u in self._out_adj()[s]:
                if u == t or near(u, t):
                    return True
            return False
        # Case 4: bridge an out-neighbor of s to an in-neighbor of t.
        preds = self._in_adj()[t]
        return bool(preds) and bridge(self._out_adj()[s], preds)

    def reaches(self, s: int, t: int) -> bool:
        """Classic-reachability alias (meaningful for the n-reach mode)."""
        return self.query(s, t)

    def query_case(self, s: int, t: int) -> int:
        """Which of Algorithm 2's four cases the query (s, t) falls into."""
        flags = self._cover_flags
        s, t = as_vertex_pair(s, t, len(flags))
        if flags[s]:
            return 1 if flags[t] else 2
        return 3 if flags[t] else 4

    # ------------------------------------------------------------------
    # Batch query processing (vectorized Algorithm 2)
    # ------------------------------------------------------------------
    def _flags(self) -> np.ndarray:
        """Cover-membership flags as a bool array (for vectorized dispatch)."""
        if self._flags_np is None:
            self._flags_np = np.frombuffer(
                bytes(self._cover_flags), dtype=np.uint8
            ).astype(bool)
        return self._flags_np

    def _batch_views(self) -> tuple[list[np.ndarray] | None, np.ndarray | None]:
        """``(stack, matrix)`` of :func:`batch_views` over the
        :func:`level_specs` views: a plane-form index answers with its
        stored planes, a CSR index builds the views it may afford in one
        pass on first use and caches them on the :class:`IndexGraph`."""
        ig = self._ig
        return batch_views(
            ig.link_matrices,
            level_specs(self.k),
            ig.cover_size,
            self.bitset_matrix_bytes,
            stored=ig.levels is not None,
        )

    def prepare_batch(self) -> "KReachIndex":
        """Build the batch engine's lookup structures now.

        They are otherwise built lazily on the first :meth:`query_batch`
        call: the level stack of :meth:`query_batch` when it fits
        :attr:`bitset_matrix_bytes`, else the keyed row store plus the
        Case-4 link matrix when that one view fits.  Serving setups and
        benchmarks call this to keep that cost out of the steady-state
        query path.  Returns ``self`` for chaining.
        """
        self._flags()
        if self._batch_views()[0] is None:
            self._ig.keyed()
        return self

    def query_batch(self, pairs) -> np.ndarray:
        """Vectorized :meth:`query` over a batch of (s, t) pairs.

        Input is any ``(m, 2)`` integer array-like; output an ``(m,)``
        bool array with ``out[i] == self.query(pairs[i][0], pairs[i][1])``
        (see the class docstring for the full batch API contract).

        Algorithm 2's case split is evaluated over the cover-membership
        flags of all pairs at once.  The cases probe three nested link
        levels: Case 1 asks for any stored link ``(s, t)``, Cases 2/3 for
        a link within k-1 from ``s`` to an in-neighbor of ``t`` (or from
        an out-neighbor of ``s`` to ``t``, gathered from the CSR), and
        Case 4 bridges within k-2.  The memory gate
        (:func:`batch_views` over :attr:`bitset_matrix_bytes`) picks the
        path, with identical answers on each:

        * the index holds its level planes, or the three
          cover-position bit views fit together: each
          Case-1–3 probe is one word load from its view and Case 4 is a
          bitset join on the ≤k-2 view — per-pair verdicts are
          word-wise AND-any tests, with no cross product and no hub
          spill;
        * else the probes are sorted-key lookups in the row store, and
          Case 4 keeps the bitset join while its one link matrix fits;
        * else Case 4 walks the chunked ``outNei(s) × inNei(t)`` cross
          products, spilling hub×hub pairs to the early-exiting scalar
          walk.

        Before the kernels run, the vector engine deduplicates repeated
        (s, t) pairs and groups the distinct pairs by Algorithm-2 case
        code (:func:`~repro.core.batch.coalesce_pairs`), scattering the
        verdicts back to input order — a repeated-pair-heavy workload
        pays each kernel once per *distinct* pair.  The kernel tier
        (numpy or compiled) is :mod:`repro.native`'s choice.  The
        per-pair reference is :meth:`query`.
        """
        g = self.graph
        s, t = as_pair_arrays(pairs, g.n)
        if len(s) == 0:
            return np.zeros(0, dtype=bool)
        flags = self._flags()
        codes = case_codes(flags[s], flags[t])
        # Kernels always run over the deduplicated, case-grouped pairs:
        # the sort is the dedup check anyway, so the grouping is free,
        # and the O(m) inverse scatter is noise next to the kernels.
        us, ut, inverse = coalesce_pairs(s, t, g.n, codes=codes)
        return self._query_batch_arrays(us, ut)[inverse]

    def _query_batch_arrays(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The vector engine over validated (s, t) columns (see
        :meth:`query_batch`)."""
        if self.k == 0:
            return s == t
        row_pos = self._ig.row_pos()
        stack, matrix = self._batch_views()
        within = level_within(
            level_specs(self.k),
            stack,
            row_pos,
            lambda u, v: self._ig.keyed().lookup(u, v),
        )
        return algorithm2_batch(
            self.graph, s, t, self._flags(), row_pos, within, matrix, self.query
        )

    def query_case_batch(self, pairs) -> np.ndarray:
        """Vectorized :meth:`query_case`: an ``(m,)`` uint8 array of 1–4."""
        s, t = as_pair_arrays(pairs, self.graph.n)
        flags = self._flags()
        return case_codes(flags[s], flags[t])

    def contains(self, v: int) -> bool:
        """Whether ``v`` is in the index's vertex cover."""
        return bool(self._cover_flags[v])

    # ------------------------------------------------------------------
    # Introspection & storage model
    # ------------------------------------------------------------------
    @property
    def index_graph(self) -> IndexGraph:
        """The index storage: the level planes inside the memory gate,
        the §4.3 CSR past it (see :class:`IndexGraph`)."""
        return self._ig

    @property
    def cover_size(self) -> int:
        """``|V_I|`` — the size of the vertex cover."""
        return len(self.cover)

    @property
    def edge_count(self) -> int:
        """``|E_I|`` — the number of index edges."""
        return self._ig.edge_count

    def weight(self, u: int, v: int) -> int | None:
        """The stored weight ``ω_I((u, v))``, or None if the edge is absent."""
        return self._ig.weight_of(u, v)

    def weighted_edges(self) -> list[tuple[int, int, int]]:
        """All index edges as sorted ``(u, v, weight)`` triples."""
        return self._ig.weighted_edges()

    def weight_bits(self) -> int:
        """Bits per stored edge weight.

        §4.3: a fixed-k index needs only 2 bits (three values).  The
        n-reach mode stores no distance information at all, so 0 bits.
        """
        return 2 if self.k is not None else 0

    def storage_bytes(self) -> int:
        """Modeled size of the index in the paper's §4.3 layout.

        A CSR over the cover with 4-byte ids for the cover members and
        edge targets, 4-byte offsets and a packed 2-bit weight array, plus
        an n-bit cover-membership bitmap for the O(1) case dispatch.
        This is the paper's storage model, not the v6 file
        :func:`~repro.core.serialize.save_mmap` writes (that one also
        stores the graph, and inside the memory gate the level planes
        instead of a CSR).  A plane-form index counts its edges with a
        popcount, so this derives no CSR.
        """
        return self._ig.csr_storage_bytes(self.weight_bits())

    def packed_weights(self) -> PackedIntArray:
        """The edge weights packed at 2 bits each (0 ↦ k-2, 1 ↦ k-1, 2 ↦ k).

        This is the §4.3 physical encoding: the weight array of the
        :class:`IndexGraph` CSR (derived from the planes of a plane-form
        index).  Only defined for finite ``k``.
        """
        if self.k is None:
            raise ValueError("n-reach stores no weights")
        return self._ig.packed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        k = "inf" if self.k is None else self.k
        return (
            f"KReachIndex(k={k}, |V_I|={self.cover_size}, |E_I|={self.edge_count})"
        )


#: The cover rule takes V only while V's level planes are at most this
#: many times the §4.3 cover's: planes grow as the square of the cover,
#: so V must keep at least 1/sqrt(2) of the vertices in the §4.3 cover.
_V_PLANE_GROWTH = 2


def default_cover(
    graph: DiGraph, k: int | None, gate: int = DEFAULT_MATRIX_BYTES
) -> frozenset[int]:
    """The vertex cover a static index takes when none is given.

    Any superset of a vertex cover is a cover, and with ``S = V`` every
    pair is Algorithm 2's Case 1: one bit probe, no adjacency gather.
    So the cover is V — the index is then the k-hop closure held as bit
    planes — while the level planes of all ``n`` vertices fit ``gate``
    (:func:`views_fit` over :func:`level_specs`) and take at most
    ``_V_PLANE_GROWTH`` times the ``~size²/8`` bytes of the §4.3
    2-approximate matching cover's planes
    (:func:`~repro.core.vertex_cover.vertex_cover_2approx`, degree
    first).  Otherwise it is that §4.3 cover: where it holds a small
    share of V (sparse graphs), V would multiply the planes, the build
    and the file for queries that the small cover answers cheaply.
    """
    cover = vertex_cover_2approx(graph)
    n = graph.n
    if n * n <= _V_PLANE_GROWTH * len(cover) ** 2 and views_fit(
        level_specs(k), n, gate
    ):
        return frozenset(range(n))
    return cover


def views_fit(specs: list[tuple[int | None, bool]], size: int, gate: int) -> bool:
    """The memory gate's byte rule: whether the distinct ``(budget,
    diagonal)`` views of ``specs`` over ``size`` cover vertices, ``~size²/8``
    bytes each, fit ``gate`` bytes together."""
    return len(set(specs)) * matrix_bytes(size, size) <= gate


def batch_views(
    views,
    specs: list[tuple[int | None, bool]],
    size: int,
    gate: int,
    *,
    stored: bool = False,
) -> tuple[list[np.ndarray] | None, np.ndarray | None]:
    """The memory gate: ``(stack, matrix)`` for :func:`algorithm2_batch`
    at the three level ``specs``, the one batch-path choice of every
    Algorithm-2 answerer.

    ``views(specs)`` is the answerer's view builder (its cover-position
    bit matrices for ``specs``, in order, built on first use and
    cached), and ``size`` its cover size.  ``stack`` is the three views
    when the answerer stores them (``stored``, the plane form) or when
    they fit ``gate`` bytes together (:func:`views_fit`), else None (the
    keyed probes answer Cases 1–3).  ``matrix`` is the ≤k-2 view for
    the Case-4 bitset join: the stack's first view, or that view alone
    while it fits ``gate``, else None (the chunked cross products answer
    Case 4).
    """
    if stored or views_fit(specs, size, gate):
        stack = views(specs)
        return stack, stack[0]
    if not views_fit(specs[:1], size, gate):
        return None, None
    return None, views(specs[:1])[0]


def level_within(
    specs: list[tuple[int | None, bool]], stack, row_pos: np.ndarray, lookup
):
    """``within(level, u, v)``: for aligned vertex arrays, whether the
    index links each ``u[i]`` to ``v[i]`` within that level's budget,
    the handshake included.  ``specs`` holds the three levels' ``(budget,
    diagonal)`` (≤k-2, ≤k-1 and ≤k: :func:`level_specs` for a k-reach
    index, whose every stored link is within k).

    With a level ``stack`` (the three views as cover-position bit
    matrices) each test is one bit probe; otherwise it is a stored-weight
    ``lookup(u, v)`` (:data:`~repro.core.batch.MISSING_WEIGHT` for
    absent links) compared against the budget.
    """
    if stack is not None:

        def within(level: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
            if faults.ENABLED:
                faults.fire("batch.kernel_slow")
            pu = row_pos[u]
            pv = row_pos[v]
            # A self-loop on an uncovered endpoint is the only
            # neighbor outside the cover; it links nothing.
            ok = (pu >= 0) & (pv >= 0)
            return probe_bits(stack[level], pu * ok, pv * ok) & ok

        return within
    levels = [
        (UNBOUNDED_BUDGET if budget is None else np.int64(budget), diagonal)
        for budget, diagonal in specs
    ]

    def within(level: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        budget, diagonal = levels[level]
        hit = lookup(u, v) <= budget
        if diagonal:
            hit |= u == v
        return hit

    return within


def algorithm2_batch(
    graph: DiGraph,
    s: np.ndarray,
    t: np.ndarray,
    flags: np.ndarray,
    row_pos: np.ndarray,
    within,
    matrix,
    query,
) -> np.ndarray:
    """Algorithm 2 over aligned, validated (s, t) columns with k >= 1.

    The batch body shared by :class:`KReachIndex`,
    :class:`~repro.core.dynamic.DynamicKReachIndex` and, at any hop
    budget, :class:`~repro.core.general_k.CoverDistanceOracle`.
    ``graph`` supplies the adjacency CSRs, ``flags`` the cover
    membership and ``row_pos`` the cover positions of the index being
    queried; ``within`` is its :func:`level_within` probe.  Case 4 runs
    the bitset join on
    ``matrix`` (the ≤k-2 link view); with ``matrix=None`` it walks the
    chunked ``outNei(s) × inNei(t)`` cross products through
    ``within(0, ...)`` instead and sends hub×hub pairs to the scalar
    ``query(s, t)``, which exits early.
    """
    out = s == t
    s_in = flags[s]
    t_in = flags[t]
    undecided = ~out

    # Case 1: a link (s, t) within k.
    sel = np.flatnonzero(undecided & s_in & t_in)
    if len(sel):
        out[sel] = within(2, s[sel], t[sel])

    # Case 2: some in-neighbor v of t with s linked to v within k-1.
    sel = np.flatnonzero(undecided & s_in & ~t_in)
    if len(sel):
        nbrs, owner, _ = gather_segments(graph.in_indptr, graph.in_indices, t[sel])
        hit = within(1, s[sel][owner], nbrs)
        out[sel] = segment_any(hit, owner, len(sel))

    # Case 3: mirror of Case 2 over out-neighbors of s.
    sel = np.flatnonzero(undecided & ~s_in & t_in)
    if len(sel):
        nbrs, owner, _ = gather_segments(graph.out_indptr, graph.out_indices, s[sel])
        hit = within(1, nbrs, t[sel][owner])
        out[sel] = segment_any(hit, owner, len(sel))

    # Case 4: bridge outNei(s) × inNei(t) through the index.
    sel = np.flatnonzero(undecided & ~s_in & ~t_in)
    if not len(sel):
        return out
    s, t = s[sel], t[sel]
    if matrix is not None:
        out[sel] = case4_bitset_join(graph, s, t, matrix, row_pos)
        return out
    res = np.zeros(len(sel), dtype=bool)
    big, chunks = plan_cross_products(graph, s, t)
    for sub, u, v, owner in chunks:
        hit = within(0, u, v)  # the s -> u -> t handshake included
        res[sub] |= segment_any(hit, owner, len(sub))
    for j in big.tolist():  # hub×hub pairs: the scalar path short-circuits
        res[j] = query(int(s[j]), int(t[j]))
    out[sel] = res
    return out
