"""The k-reach index (Definition 1, Algorithms 1–2 of the paper).

Given a directed graph ``G`` and a hop budget ``k``, the index is a small
weighted digraph ``I = (V_I, E_I, ω_I)``:

* ``V_I`` is a vertex cover ``S`` of ``G``;
* ``(u, v) ∈ E_I`` iff ``u →k v`` in ``G`` (``v`` reachable from ``u``
  within ``k`` hops);
* ``ω_I((u, v)) = max(d(u, v), k-2)`` — i.e. the shortest-path distance
  quantized to the three values ``{k-2, k-1, k}``, which is all query
  processing ever needs (2 bits per edge, §4.3).

The index is held as an :class:`~repro.core.index_graph.IndexGraph` — the
paper's §4.3 physical layout (cover-id table + CSR + packed weights) used
directly as the canonical in-memory representation.  Construction feeds
it from ``(src, dst, dist)`` triple arrays produced by the blocked
bit-parallel multi-source BFS (``builder='blocked'``, the default) or the
per-source serial sweep (``builder='serial'``, the differential/benchmark
baseline); both are bit-identical, as is the process-parallel build in
:mod:`repro.core.parallel`.

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
reachability index.  In that mode the serial builder runs over the SCC
condensation's transitive closure instead of per-cover-vertex BFS — the
same index, built with bitset sweeps instead of |S| graph traversals.
"""

from __future__ import annotations

import numpy as np

from repro import faults, native
from repro.bitsets.ops import DEFAULT_MATRIX_BYTES, probe_bits
from repro.bitsets.packed import PackedIntArray
from repro.core.batch import (
    UNBOUNDED_BUDGET,
    KeyedRowStore,
    as_pair_arrays,
    case4_bitset_join,
    case_codes,
    coalesce_pairs,
    gather_segments,
    segment_any,
    plan_cross_products,
)
from repro.core.index_graph import (
    IndexGraph,
    cover_triples_blocked,
    cover_triples_serial,
)
from repro.core.rowstore import CompressedRow
from repro.core.vertex_cover import cover_from_strategy, is_vertex_cover
from repro.graph.digraph import DiGraph
from repro.graph.scc import condensation

__all__ = ["KReachIndex", "algorithm2_batch", "level_specs", "level_within"]

_BUILDERS = ("blocked", "serial")
_ENGINES = ("auto", "native", "bitset", "chunked", "scalar")


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
        Optional pre-computed vertex cover (it is validated); by default a
        cover is computed with ``cover_strategy``.
    cover_strategy:
        One of ``'degree'`` (default, the §4.3 high-degree-first pick),
        ``'random'``, ``'input'``, ``'greedy'``.
    include_degree_at_least:
        Seed all vertices of at least this degree into the cover (§4.3).
    compress_rows_at:
        If set, index rows with at least this many edges additionally get
        per-weight-level WAH bitmaps — the §4.3 compact representation for
        high-degree vertices.  Scalar queries then probe compressed bits
        for those rows instead of hashing neighbor keys.
    builder:
        ``'blocked'`` (default) constructs via the bit-parallel
        multi-source BFS; ``'serial'`` runs one BFS per cover vertex (the
        pre-refactor path, kept for differential tests and benchmarks).
        Both produce bit-identical :class:`IndexGraph` contents.
    bitset_matrix_bytes:
        Memory ceiling for the batch engine's cover-position bit views
        (``~|S|²/8`` bytes each; default
        :data:`~repro.bitsets.ops.DEFAULT_MATRIX_BYTES`).  When the
        three nested views of :meth:`query_batch` (≤k-2, ≤k-1, ≤k; one
        presence view for n-reach) fit together, every Case 1–3 probe
        is a bit load and Case 4 is a bitset join.  Past that, batches
        probe the keyed row store, and Case 4 still takes the bitset
        join while its one link matrix fits; covers too large even for
        that make ``engine='auto'`` fall back to the chunked
        cross-product engine.  ``0`` keeps ``'auto'`` off every bit view
        (an explicit ``engine='bitset'`` still forces the Case-4 matrix
        build).
    rng:
        Randomness for ``cover_strategy='random'``.

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
        cover_strategy: str = "degree",
        include_degree_at_least: int | None = None,
        compress_rows_at: int | None = None,
        builder: str = "blocked",
        bitset_matrix_bytes: int = DEFAULT_MATRIX_BYTES,
        storage: str = "dense",
        rng: np.random.Generator | None = None,
    ) -> None:
        if k is not None and k < 0:
            raise ValueError(f"k must be non-negative or None, got {k}")
        if builder not in _BUILDERS:
            raise ValueError(f"builder must be one of {_BUILDERS}, got {builder!r}")
        if cover is None:
            cover = cover_from_strategy(
                graph,
                cover_strategy,
                rng=rng,
                include_degree_at_least=include_degree_at_least,
            )
        else:
            cover = frozenset(int(v) for v in cover)
            if not is_vertex_cover(graph, cover):
                raise ValueError("provided vertex set is not a vertex cover")
        if k is None and builder == "serial":
            triples = self._unbounded_triples_serial(graph, cover)
        else:
            make = cover_triples_serial if builder == "serial" else cover_triples_blocked
            triples = make(graph, cover, k)
        ig = IndexGraph.for_kreach(graph.n, cover, *triples, k)
        if storage != "dense":
            ig.use_storage(storage)
        self._finish_init(
            graph, k, cover, ig, compress_rows_at, bitset_matrix_bytes
        )

    def _finish_init(
        self,
        graph: DiGraph,
        k: int | None,
        cover: frozenset[int],
        index_graph: IndexGraph,
        compress_rows_at: int | None,
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
        # Pre-resolved query-time budgets (None = unbounded).
        self._b1_ok = k is None or k >= 1  # may a u == v handshake use k-1?
        self._b2_ok = k is None or k >= 2  # ... use k-2?
        self._ig = index_graph
        #: Row-store backing ('dense' keyed arrays or 'wah' compressed
        #: bitmaps) — owned by the IndexGraph, mirrored for introspection.
        self.storage = index_graph.storage
        self.compress_rows_at = compress_rows_at
        self.bitset_matrix_bytes = int(bitset_matrix_bytes)
        self._wah = self._build_wah(compress_rows_at)
        # Plain-list adjacency for the hot scalar query loops — built on
        # the first scalar query, not here: an O(n + m) list
        # materialization at construction time would put the whole graph
        # on the open path of the zero-copy loader (which must stay
        # O(header)).  The batch engines never touch these lists.
        self._out_lists: list[list[int]] | None = None
        self._in_lists: list[list[int]] | None = None
        # Lazily-built scalar probe view and vectorized lookup structures.
        self._scalar: tuple | None = None
        self._keyed_rows: KeyedRowStore | None = None
        self._flags_np: np.ndarray | None = None

    def _build_wah(self, threshold: int | None) -> dict[int, CompressedRow] | None:
        """§4.3 WAH bitmap views of rows with at least ``threshold`` edges."""
        if threshold is None:
            return None
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        ig = self._ig
        counts = np.diff(ig.indptr)
        weights = ig.weights64()
        wah: dict[int, CompressedRow] = {}
        for i in np.flatnonzero(counts >= threshold).tolist():
            lo, hi = int(ig.indptr[i]), int(ig.indptr[i + 1])
            wah[int(ig.cover_ids[i])] = CompressedRow.from_arrays(
                ig.targets[lo:hi], weights[lo:hi], ig.n
            )
        return wah or None

    @classmethod
    def from_index_graph(
        cls,
        graph: DiGraph,
        k: int | None,
        *,
        cover: frozenset[int],
        index_graph: IndexGraph,
        compress_rows_at: int | None = None,
        bitset_matrix_bytes: int = DEFAULT_MATRIX_BYTES,
        storage: str | None = None,
    ) -> "KReachIndex":
        """Assemble an index around a pre-built :class:`IndexGraph`.

        Used by the parallel builder (:mod:`repro.core.parallel`), the
        on-disk loaders (:mod:`repro.core.serialize`), and
        :meth:`~repro.core.dynamic.DynamicKReachIndex.freeze`.  The caller
        is responsible for the contents being exactly what Algorithm 1
        would have produced for this ``(graph, k, cover)``.
        ``storage=None`` inherits the IndexGraph's backing (the loaders
        pre-install a compressed store there); pass ``'dense'``/``'wah'``
        to override.
        """
        self = object.__new__(cls)
        if not isinstance(cover, frozenset):
            cover = frozenset(int(v) for v in cover)
        if storage is not None and storage != index_graph.storage:
            index_graph.use_storage(storage)
        self._finish_init(
            graph,
            k,
            cover,
            index_graph,
            compress_rows_at,
            bitset_matrix_bytes,
        )
        return self

    @classmethod
    def from_parts(
        cls,
        graph: DiGraph,
        k: int | None,
        *,
        cover: frozenset[int],
        rows: dict[int, dict[int, int]],
        compress_rows_at: int | None = None,
    ) -> "KReachIndex":
        """Conversion helper: assemble from legacy nested-dict rows.

        Prefer :meth:`from_index_graph`; this remains for tests and tools
        that still hold ``{u: {v: w}}`` mappings.
        """
        cover = frozenset(int(v) for v in cover)
        if k is None:
            ig = IndexGraph.from_rows(
                graph.n, cover, rows, weight_base=0, weight_bits=1
            )
        else:
            ig = IndexGraph.from_rows(
                graph.n, cover, rows, weight_base=k - 2, weight_bits=2
            )
        return cls.from_index_graph(
            graph, k, cover=cover, index_graph=ig, compress_rows_at=compress_rows_at
        )

    # ------------------------------------------------------------------
    # Construction (Algorithm 1)
    # ------------------------------------------------------------------
    @staticmethod
    def _unbounded_triples_serial(
        graph: DiGraph, cover: frozenset[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """n-reach triples over the condensation's transitive closure.

        For ``k = ∞`` only reachability between cover vertices matters, so
        instead of |S| full BFS sweeps the serial builder computes the DAG
        transitive closure once (big-int bitmask OR-accumulation in
        reverse topological order) and expands it to cover pairs.
        """
        cond = condensation(graph)
        comp = cond.component_of
        dag = cond.dag
        n_dag = dag.n

        members: dict[int, list[int]] = {}
        for u in cover:
            members.setdefault(int(comp[u]), []).append(u)
        cover_comp_mask = 0
        for c in members:
            cover_comp_mask |= 1 << c

        closure: list[int] = [0] * n_dag
        for c in range(n_dag):  # increasing id = reverse topological order
            acc = 0
            for child in dag.out_neighbors(c):
                child = int(child)
                acc |= closure[child] | (1 << child)
            closure[c] = acc

        srcs: list[np.ndarray] = []
        dsts: list[np.ndarray] = []
        for c, us in members.items():
            # Cover vertices in strictly-reachable components.
            reach: list[int] = []
            mask = closure[c] & cover_comp_mask
            while mask:
                low = mask & -mask
                reach.extend(members[low.bit_length() - 1])
                mask ^= low
            same = us if len(us) > 1 and not cond.is_trivial(c) else None
            for u in us:
                row = list(reach)
                if same is not None:
                    row.extend(v for v in same if v != u)
                if row:
                    dsts.append(np.asarray(row, dtype=np.int64))
                    srcs.append(np.full(len(row), u, dtype=np.int64))
        if not srcs:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        src = np.concatenate(srcs)
        return src, np.concatenate(dsts), np.zeros(len(src), dtype=np.int64)

    # ------------------------------------------------------------------
    # Scalar probe view (derived from the IndexGraph, built on first use)
    # ------------------------------------------------------------------
    def _scalar_view(self) -> tuple:
        """``(probe, targets, weights, row_pos, indptr)`` for scalar loops.

        ``probe(u, v)`` returns the stored weight or None via one flat
        hash lookup (WAH bitmap bit-probes for compressed hub rows); the
        plain-list CSR columns back the Case-4 small-row scans.  All of it
        is a view of the canonical :class:`IndexGraph` arrays.
        """
        if self._scalar is None:
            ig = self._ig
            n = self.graph.n
            wah = self._wah
            if wah is None and ig.storage == "wah":
                # Compressed storage: scalar probes go through the row
                # store's decompress-on-touch cache instead of
                # materializing the flat dict (which would cost the
                # dense bytes the backing exists to avoid).
                store = ig.wah_store()

                def probe(u: int, v: int, _store=store):
                    return _store.weight_of(u, v)

            elif wah is None:
                flat = ig.flat()

                def probe(u: int, v: int, _flat=flat, _n=n):
                    return _flat.get(u * _n + v)

            else:
                # Hub rows answer through their bitmaps; exclude them from
                # the flat dict so it stays proportional to the plain rows.
                heads = np.repeat(ig.cover_ids, np.diff(ig.indptr))
                keep = ~np.isin(
                    heads,
                    np.fromiter(wah.keys(), dtype=np.int64, count=len(wah)),
                )
                flat = dict(
                    zip(
                        ig.keys()[keep].tolist(),
                        ig.weights64()[keep].tolist(),
                    )
                )

                def probe(u: int, v: int, _flat=flat, _wah=wah, _n=n):
                    row = _wah.get(u)
                    if row is not None:
                        return row.get(v)
                    return _flat.get(u * _n + v)

            self._scalar = (
                probe,
                ig.targets.tolist(),
                ig.weights64().tolist(),
                ig.row_pos().tolist(),
                ig.indptr.tolist(),
            )
        return self._scalar

    # ------------------------------------------------------------------
    # Query processing (Algorithm 2)
    # ------------------------------------------------------------------
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
        n = len(flags)
        if not 0 <= s < n or not 0 <= t < n:
            raise ValueError(f"query vertex out of range [0, {n})")
        if s == t:
            return True
        k = self.k
        if k == 0:
            return False
        probe, tlist, wlist, row_pos, indptr = self._scalar_view()

        if flags[s]:
            if flags[t]:
                # Case 1: all stored weights are <= k by construction.
                return probe(s, t) is not None
            # Case 2: all in-neighbors of t are covered.
            in_lists = self._in_adj()
            if k is None:
                for v in in_lists[t]:
                    if v == s or probe(s, v) is not None:
                        return True
                return False
            budget = k - 1
            b1_ok = self._b1_ok
            for v in in_lists[t]:
                if v == s:
                    if b1_ok:
                        return True
                else:
                    w = probe(s, v)
                    if w is not None and w <= budget:
                        return True
            return False

        if flags[t]:
            # Case 3: all out-neighbors of s are covered.
            out_lists = self._out_adj()
            if k is None:
                for u in out_lists[s]:
                    if u == t or probe(u, t) is not None:
                        return True
                return False
            budget = k - 1
            for u in out_lists[s]:
                if u == t:
                    if self._b1_ok:
                        return True
                else:
                    w = probe(u, t)
                    if w is not None and w <= budget:
                        return True
            return False

        # Case 4: bridge an out-neighbor of s to an in-neighbor of t.
        preds = self._in_adj()[t]
        if not preds:
            return False
        pred_set = set(preds)
        b2_ok = self._b2_ok
        budget = 0 if k is None else k - 2
        unbounded = k is None
        wah = self._wah
        for u in self._out_adj()[s]:
            if b2_ok and u in pred_set:
                return True  # s -> u -> t
            p = row_pos[u]
            if p < 0:
                continue
            if wah is not None:
                row = wah.get(u)
                if row is not None:  # hub row: compressed bit probes
                    for v in pred_set:
                        w = row.get(v)
                        if w is not None and (unbounded or w <= budget):
                            return True
                    continue
            a, b = indptr[p], indptr[p + 1]
            if a == b:
                continue
            if b - a < len(pred_set):
                # Scan the smaller row against the predecessor set.
                if unbounded:
                    for i in range(a, b):
                        if tlist[i] in pred_set:
                            return True
                else:
                    for i in range(a, b):
                        if wlist[i] <= budget and tlist[i] in pred_set:
                            return True
            else:
                if unbounded:
                    for v in pred_set:
                        if probe(u, v) is not None:
                            return True
                else:
                    for v in pred_set:
                        w = probe(u, v)
                        if w is not None and w <= budget:
                            return True
        return False

    def reaches(self, s: int, t: int) -> bool:
        """Classic-reachability alias (meaningful for the n-reach mode)."""
        return self.query(s, t)

    def query_case(self, s: int, t: int) -> int:
        """Which of Algorithm 2's four cases the query (s, t) falls into."""
        flags = self._cover_flags
        if not 0 <= s < len(flags) or not 0 <= t < len(flags):
            raise ValueError("query vertex out of range")
        if flags[s]:
            return 1 if flags[t] else 2
        return 3 if flags[t] else 4

    # ------------------------------------------------------------------
    # Batch query processing (vectorized Algorithm 2)
    # ------------------------------------------------------------------
    def _keyed(self) -> KeyedRowStore:
        """The keyed path's probe view — zero-copy from the IndexGraph.

        With ``storage='wah'`` this is the compressed
        :class:`~repro.core.rowstore.WahRowStore` instead (same
        ``lookup`` contract, decompress-on-touch rows); every batch
        engine runs unchanged against either backing.
        """
        if self._keyed_rows is None:
            if self._ig.storage == "wah":
                self._keyed_rows = self._ig.wah_store()
            else:
                self._keyed_rows = KeyedRowStore(
                    self._ig.keys(), self._ig.weights64(), self.graph.n
                )
        return self._keyed_rows

    def _flags(self) -> np.ndarray:
        """Cover-membership flags as a bool array (for vectorized dispatch)."""
        if self._flags_np is None:
            self._flags_np = np.frombuffer(
                bytes(self._cover_flags), dtype=np.uint8
            ).astype(bool)
        return self._flags_np

    def _level_stack(self) -> list[np.ndarray] | None:
        """The three views of :func:`level_specs` as cover-position bit
        matrices, or None when the keyed path must answer instead.

        Only the dense backing builds them (``storage='wah'`` exists to
        keep the resident footprint compressed), and only when every
        distinct view fits :attr:`bitset_matrix_bytes` together.  Built
        in one pass on first use and cached on the :class:`IndexGraph`.
        """
        ig = self._ig
        specs = level_specs(self.k)
        if (
            ig.storage != "dense"
            or len(set(specs)) * ig.link_matrix_bytes() > self.bitset_matrix_bytes
        ):
            return None
        return ig.link_matrices(specs)

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
        if self._level_stack() is None:
            self._keyed()
            self._case4_matrix()
        return self

    def query_batch(self, pairs, *, engine: str = "auto") -> np.ndarray:
        """Vectorized :meth:`query` over a batch of (s, t) pairs.

        Input is any ``(m, 2)`` integer array-like; output an ``(m,)``
        bool array with ``out[i] == self.query(pairs[i][0], pairs[i][1])``
        (see the class docstring for the full batch API contract).  All
        engines return bit-identical answers.

        Algorithm 2's case split is evaluated over the cover-membership
        flags of all pairs at once.  The cases probe three nested link
        levels: Case 1 asks for any stored link ``(s, t)``, Cases 2/3
        for a link within k-1 from ``s`` to an in-neighbor of ``t`` (or
        from an out-neighbor of ``s`` to ``t``, gathered from the CSR),
        and Case 4 bridges within k-2.  When the three cover-position
        bit views fit :attr:`bitset_matrix_bytes` together (dense
        storage only), each Case-1–3 probe is one word load from its
        view and Case 4 runs the bitset join on the k-2 view.  Past that
        ceiling, with ``storage='wah'``, and with ``engine='chunked'``
        the probes are sorted-key lookups in the row store instead.
        ``engine`` selects:

        * ``'auto'`` (default) — the level stack when it fits; otherwise
          keyed probes, with the Case-4 bitset join when its one link
          matrix fits :attr:`bitset_matrix_bytes`, else the chunked
          engine.
        * ``'native'`` — same as ``'auto'``, but the kernels prefer the
          compiled tier for this batch (:func:`repro.native.use`);
          identical answers, and a plain ``'auto'`` run when numba is
          absent.
        * ``'bitset'`` — as ``'auto'``, but Case 4 always takes the
          bitset join: per-pair verdicts become word-wise AND-any tests
          against per-endpoint cover bitsets; no cross product is
          materialized and no pair ever takes the hub-spill path.
        * ``'chunked'`` — keyed probes, and the chunked
          ``outNei(s) × inNei(t)`` cross products with the scalar
          early-exit spill for hub×hub pairs (the pre-bitset engine,
          kept for benchmarks/differential tests).
        * ``'scalar'`` — a plain per-pair :meth:`query` loop (the
          differential reference).

        Before the kernels run, the vector engines deduplicate repeated
        (s, t) pairs and group the distinct pairs by Algorithm-2 case
        code (:func:`~repro.core.batch.coalesce_pairs`), scattering the
        verdicts back to input order — a repeated-pair-heavy workload
        pays each kernel once per *distinct* pair.
        """
        if engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
        if engine == "native":
            with native.use("auto"):
                return self.query_batch(pairs, engine="auto")
        g = self.graph
        s, t = as_pair_arrays(pairs, g.n)
        m = len(s)
        if m == 0:
            return np.zeros(0, dtype=bool)
        if engine == "scalar":
            out = np.zeros(m, dtype=bool)
            query = self.query
            for i, (si, ti) in enumerate(zip(s.tolist(), t.tolist())):
                out[i] = query(si, ti)
            return out
        flags = self._flags()
        codes = case_codes(flags[s], flags[t])
        # Kernels always run over the deduplicated, case-grouped pairs:
        # the sort is the dedup check anyway, so the grouping is free,
        # and the O(m) inverse scatter is noise next to the kernels.
        us, ut, inverse = coalesce_pairs(s, t, g.n, codes=codes)
        return self._query_batch_arrays(us, ut, engine)[inverse]

    def _query_batch_arrays(
        self, s: np.ndarray, t: np.ndarray, engine: str
    ) -> np.ndarray:
        """The vector engines over validated (s, t) columns (see
        :meth:`query_batch`)."""
        if self.k == 0:
            return s == t
        row_pos = self._ig.row_pos()
        stack, matrix = None, None
        if engine != "chunked":
            stack = self._level_stack()
            matrix = self._case4_matrix(force=engine == "bitset")
        within = level_within(
            self.k, stack, row_pos, lambda u, v: self._keyed().lookup(u, v)
        )
        return algorithm2_batch(
            self.graph, s, t, self._flags(), row_pos, within, matrix, self.query
        )

    def _case4_matrix(self, *, force: bool = False) -> np.ndarray | None:
        """The Case-4 link matrix, or None when it exceeds the memory gate.

        The ≤k-2 view of :func:`level_specs` (so the cached level-stack
        view whenever the stack fits): row ``i`` holds the cover
        vertices reachable from ``cover_ids[i]`` within budget ``k-2``
        (any stored link for n-reach), with the diagonal standing in for
        the ``u == v`` handshake whenever a 2-hop bridge is legal.
        Built lazily and cached on the :class:`IndexGraph`.
        """
        ig = self._ig
        if not force and ig.link_matrix_bytes() > self.bitset_matrix_bytes:
            return None
        budget, diagonal = level_specs(self.k)[0]
        return ig.link_matrix(budget, diagonal=diagonal)

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
        """The canonical CSR storage (§4.3 physical layout)."""
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
        """Modeled on-disk size of the index (§4.3 storage scheme).

        Plain rows: CSR over the cover — 4-byte ids for the cover members
        and edge targets, 4-byte offsets, a packed 2-bit weight array.
        Compressed rows: their WAH words.  Plus an n-bit cover-membership
        bitmap for the O(1) case dispatch.  With ``storage='wah'`` the
        row payload is the compressed store itself (bitmap words plus
        level/row offsets) instead of the dense CSR columns.
        """
        bitmap_bytes = (self.graph.n + 7) // 8
        if self._ig.storage == "wah":
            return self._ig.wah_store().storage_bytes() + bitmap_bytes
        n_i = self.cover_size
        if self._wah is not None:
            compressed_bytes = sum(r.storage_bytes() for r in self._wah.values())
            plain_edges = self._ig.edge_count - sum(
                len(r) for r in self._wah.values()
            )
        else:
            compressed_bytes = 0
            plain_edges = self._ig.edge_count
        id_bytes = 4 * n_i  # cover-vertex id table
        indptr_bytes = 4 * (n_i + 1)
        indices_bytes = 4 * plain_edges
        weight_bytes = (plain_edges * self.weight_bits() + 7) // 8
        bitmap_bytes = (self.graph.n + 7) // 8
        return (
            id_bytes
            + indptr_bytes
            + indices_bytes
            + weight_bytes
            + compressed_bytes
            + bitmap_bytes
        )

    def packed_weights(self) -> PackedIntArray:
        """The edge weights packed at 2 bits each (0 ↦ k-2, 1 ↦ k-1, 2 ↦ k).

        This is the §4.3 physical encoding — and with the CSR-native
        storage it is simply the canonical weight array of the
        :class:`IndexGraph`.  Only defined for finite ``k``.
        """
        if self.k is None:
            raise ValueError("n-reach stores no weights")
        return self._ig.packed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        k = "inf" if self.k is None else self.k
        return (
            f"KReachIndex(k={k}, |V_I|={self.cover_size}, |E_I|={self.edge_count})"
        )


def level_specs(k: int | None) -> list[tuple[int | None, bool]]:
    """``(budget, diagonal)`` of the ≤k-2, ≤k-1 and ≤k link views.

    These are the three levels the §4.3 2-bit weights encode: Case 4
    bridges within k-2, Cases 2/3 link within k-1, and Case 1 needs any
    stored link (Definition 1 stores only pairs within k).  A view holds
    the ``u == v`` handshake on its diagonal iff a zero distance fits its
    budget.  For n-reach all three collapse to the one presence view.
    """
    if k is None:
        return [(None, True)] * 3
    return [(k - 2, k >= 2), (k - 1, k >= 1), (None, True)]


def level_within(k: int | None, stack, row_pos: np.ndarray, lookup):
    """``within(level, u, v)``: for aligned vertex arrays, whether the
    index links each ``u[i]`` to ``v[i]`` within that level's budget
    (level 0, 1, 2 = ≤k-2, ≤k-1, ≤k of :func:`level_specs`), the
    handshake included.

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
        for budget, diagonal in level_specs(k)
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

    The batch body shared by :class:`KReachIndex` and
    :class:`~repro.core.dynamic.DynamicKReachIndex`.  ``graph`` supplies
    the adjacency CSRs, ``flags`` the cover membership and ``row_pos``
    the cover positions of the index being queried; ``within`` is its
    :func:`level_within` probe.  Case 4 runs the bitset join on
    ``matrix`` (the ≤k-2 link view); with ``matrix=None`` it walks the
    chunked ``outNei(s) × inNei(t)`` cross products through
    ``within(0, ...)`` instead and sends hub×hub pairs to the scalar
    ``query(s, t)``, which exits early.
    """
    out = s == t
    s_in = flags[s]
    t_in = flags[t]
    undecided = ~out

    # Case 1: any stored link (s, t).
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
