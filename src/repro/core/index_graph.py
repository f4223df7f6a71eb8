"""CSR-native physical storage for cover-pair indexes (§4.3).

Every index the paper describes — k-reach, (h,k)-reach, the general-k
oracle — stores the same thing: a weighted digraph over a vertex cover.
§4.3 spells out the physical layout: a cover-id table, a CSR of offsets
and targets, and a packed small-integer weight array.  :class:`IndexGraph`
makes that layout the *single canonical in-memory representation*:

* ``cover_ids`` — the sorted cover-vertex table (``V_I``);
* ``indptr`` / ``targets`` — the index CSR, targets ascending per row;
* weights — a :class:`~repro.bitsets.packed.PackedIntArray` of
  ``w - weight_base`` values at the §4.3 bit width (2 bits for fixed-k).

Everything downstream is a *view* of these arrays: the scalar query path
reads weights through one flat probe dict, the batch engines probe
cover-position bit views built in one scatter over the CSR
(:meth:`IndexGraph.link_matrices`), their keyed fallback
:class:`~repro.core.batch.KeyedRowStore` takes the sorted
``u * n + v`` key array zero-copy, serialization writes the arrays
verbatim (and none of these views).  The ``{u: {v: w}}``
dict-of-dicts that three layers used to re-flatten independently no
longer exists on the core path.

Construction feeds the structure from ``(src, dst, dist)`` triple arrays
— produced either by the per-source BFS loop (:func:`cover_triples_serial`,
the pre-refactor Algorithm-1 inner loop, kept as the differential and
benchmark baseline) or by the bit-parallel blocked multi-source BFS
(:func:`cover_triples_blocked`, the default).  The blocked stream arrives
in ``(src, dst)`` order, so :meth:`IndexGraph.from_triples` builds the
CSR from it without sorting; other input is sorted there first.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.bitsets.ops import matrix_bytes, set_bits, words_for
from repro.bitsets.packed import PackedIntArray, bits_needed
from repro.graph.digraph import DiGraph, validate_csr
from repro.graph.traversal import (
    UNREACHED,
    bfs_distances,
    bfs_distances_blocked,
    bfs_distances_scalar,
)

__all__ = [
    "IndexGraph",
    "LINK_MATRIX_CACHE_CAP",
    "cover_triples_serial",
    "cover_triples_blocked",
]

#: Entries the per-IndexGraph :meth:`IndexGraph.link_matrix` FIFO cache
#: retains.  Engines that join against a *stack* of budgets (the
#: (h,k)-reach batch path) must fit their whole stack inside this cap or
#: fall back, so a cached view is never silently rebuilt per batch.
LINK_MATRIX_CACHE_CAP = 16

#: Edges :meth:`IndexGraph.link_matrices` scatters per row block.  Each
#: block's temporaries are a few int64 arrays of this length, small
#: enough to stay in cache; on a 16M-edge index 64K-edge blocks built
#: the views about 1.4x faster than 1M-edge blocks.
_SCATTER_EDGES = 1 << 16

# Below this k a scalar sparse BFS beats the vectorized full-array BFS
# for the per-source serial builder (tiny k-hop balls).
_SCALAR_BFS_MAX_K = 3


class IndexGraph:
    """Immutable CSR index graph — the §4.3 physical layout in memory.

    Use the classmethods (:meth:`from_triples`, :meth:`from_rows`) rather
    than the low-level constructor; they sort, quantize, and validate.
    The constructor installs its arrays verbatim — the zero-copy loader
    (:func:`~repro.core.serialize.load_mmap`) passes it memory-mapped,
    read-only views and owns their integrity.  Every derived view built
    later (keys, int64 weights, link matrices) is copy-on-build.

    Examples
    --------
    >>> ig = IndexGraph.from_rows(6, [1, 4], {1: {4: 2}, 4: {1: 3, 5: 1}})
    >>> ig.cover_size, ig.edge_count
    (2, 3)
    >>> ig.weight_of(4, 1), ig.weight_of(4, 2)
    (3, None)
    >>> ig.weighted_edges()
    [(1, 4, 2), (4, 1, 3), (4, 5, 1)]
    """

    __slots__ = (
        "n",
        "cover_ids",
        "indptr",
        "targets",
        "packed",
        "weight_base",
        "_weights64",
        "_keys",
        "_row_pos",
        "_flat",
        "_matrices",
    )

    def __init__(
        self,
        n: int,
        cover_ids: np.ndarray,
        indptr: np.ndarray,
        targets: np.ndarray,
        packed: PackedIntArray,
        weight_base: int,
    ) -> None:
        self.n = int(n)
        self.cover_ids = cover_ids
        self.indptr = indptr
        self.targets = targets
        self.packed = packed
        self.weight_base = int(weight_base)
        self._weights64: np.ndarray | None = None
        self._keys: np.ndarray | None = None
        self._row_pos: np.ndarray | None = None
        self._flat: dict[int, int] | None = None
        self._matrices: dict[tuple[int | None, bool], np.ndarray] = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_triples(
        cls,
        n: int,
        cover: Iterable[int],
        src: np.ndarray,
        dst: np.ndarray,
        dist: np.ndarray,
        *,
        floor: int | None = None,
        zero_weights: bool = False,
        weight_bits: int | None = None,
    ) -> "IndexGraph":
        """Build from parallel ``(src, dst, dist)`` arrays.

        ``floor`` applies the paper's quantization ``w = max(dist, floor)``
        (pass None to store distances exactly, as the general-k oracle
        does); ``zero_weights`` discards distances entirely (the n-reach
        mode stores no distance information).  ``weight_bits`` pins the
        packed width (§4.3 mandates 2 bits for fixed-k regardless of the
        weights actually observed); by default the minimum width is used.

        Input already in strictly ascending ``(src, dst)`` order — what
        :func:`~repro.graph.traversal.bfs_distances_blocked` emits — is
        taken as is after one pass over the fused ``u * n + v`` keys
        (strict ascent also rules out duplicates).  Anything else is
        sorted first and then checked for duplicate pairs.  Either way
        the graph keeps its own copies, never the caller's arrays.
        """
        cover_ids = np.unique(np.fromiter((int(v) for v in cover), dtype=np.int64))
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        dist = np.asarray(dist, dtype=np.int64)
        if not (len(src) == len(dst) == len(dist)):
            raise ValueError("src/dst/dist arrays must be aligned")
        if len(dst) and (int(dst.min()) < 0 or int(dst.max()) >= n):
            raise ValueError(f"target vertex out of range [0, {n})")
        if 0 < n < (1 << 31):
            # One ascent check over the fused u * n + v key decides
            # whether to sort at all; sorting it is one argsort where
            # lexsort takes two passes.
            keys = src * np.int64(n)
            keys += dst
            if bool(np.all(keys[1:] > keys[:-1])):
                # Sorted and duplicate-free: copy only what the graph keeps.
                dst = dst.copy()
                if not zero_weights and floor is None:
                    dist = dist.copy()
                dup = False
            else:
                order = np.argsort(keys, kind="stable")
                src, dst, dist = src[order], dst[order], dist[order]
                keys = keys[order]
                dup = bool(np.any(keys[1:] == keys[:-1]))
            del keys
        else:
            order = np.lexsort((dst, src))
            src, dst, dist = src[order], dst[order], dist[order]
            dup = len(src) > 1 and bool(
                np.any((src[1:] == src[:-1]) & (dst[1:] == dst[:-1]))
            )
        if dup:
            # Silent last-wins merging would let weight_of (binary
            # search) and flat() (hash) disagree; fail loudly instead.
            raise ValueError("duplicate (src, dst) triples")
        # Row i is the run of cover_ids[i] in the sorted src; the runs
        # cover every triple iff every source is a cover vertex.
        starts = np.searchsorted(src, cover_ids, side="left")
        stops = np.searchsorted(src, cover_ids, side="right")
        if int((stops - starts).sum()) != len(src):
            raise ValueError("triple source outside the cover")
        if zero_weights:
            w = np.zeros(len(dist), dtype=np.int64)
            base = 0
        elif floor is not None:
            w = np.maximum(dist, floor)
            base = floor
        else:
            w = dist
            base = 0
        if weight_bits is None:
            span = int(w.max()) - base + 1 if len(w) else 1
            weight_bits = bits_needed(span)
        indptr = np.zeros(len(cover_ids) + 1, dtype=np.int64)
        indptr[1:] = stops
        # w is this graph's own array, so the codes are packed from it
        # shifted in place rather than from an |E_I|-sized temporary.
        w -= base
        packed = PackedIntArray.from_numpy(w, bits=weight_bits)
        w += base
        ig = cls(n, cover_ids, indptr, dst, packed, base)
        ig._weights64 = w
        return ig

    @classmethod
    def for_kreach(
        cls,
        n: int,
        cover: Iterable[int],
        src: np.ndarray,
        dst: np.ndarray,
        dist: np.ndarray,
        k: int | None,
    ) -> "IndexGraph":
        """The k-reach weight encoding, in one place.

        Finite ``k``: weights quantized to ``max(dist, k-2)`` and packed
        at the §4.3 2-bit width.  ``k=None`` (n-reach): no distance
        information, 1-bit zeros.  Every k-reach builder — serial,
        blocked, dynamic freeze — must dispatch through
        here so their encodings can never drift apart.
        """
        if k is None:
            return cls.from_triples(
                n, cover, src, dst, dist, zero_weights=True, weight_bits=1
            )
        return cls.from_triples(
            n, cover, src, dst, dist, floor=k - 2, weight_bits=2
        )

    @classmethod
    def from_rows(
        cls,
        n: int,
        cover: Iterable[int],
        rows: Mapping[int, object],
        *,
        weight_bits: int | None = None,
        weight_base: int | None = None,
    ) -> "IndexGraph":
        """Conversion helper: build from legacy ``{u: {v: w}}`` mappings.

        Accepts any rows with ``.items()``.  Only tests, tools, and the
        dynamic index's freeze path should need this; construction proper
        goes through :meth:`from_triples`.
        """
        srcs: list[int] = []
        dsts: list[int] = []
        ws: list[int] = []
        for u, row in rows.items():
            for v, w in row.items():
                srcs.append(int(u))
                dsts.append(int(v))
                ws.append(int(w))
        return cls.from_triples(
            n,
            cover,
            np.asarray(srcs, dtype=np.int64),
            np.asarray(dsts, dtype=np.int64),
            np.asarray(ws, dtype=np.int64),
            floor=weight_base,
            weight_bits=weight_bits,
        )

    # ------------------------------------------------------------------
    # Derived views (each built once, on first use)
    # ------------------------------------------------------------------
    def weights64(self) -> np.ndarray:
        """All edge weights as an int64 array aligned with :attr:`targets`."""
        if self._weights64 is None:
            self._weights64 = self.packed.as_numpy() + self.weight_base
        return self._weights64

    def keys(self) -> np.ndarray:
        """Sorted ``u * n + v`` int64 keys — the batch engine's probe array.

        Globally sorted by construction (ascending cover rows, ascending
        targets within each row), so
        :class:`~repro.core.batch.KeyedRowStore` takes it zero-copy.
        """
        if self._keys is None:
            heads = np.repeat(self.cover_ids, np.diff(self.indptr))
            self._keys = heads * np.int64(self.n) + self.targets
        return self._keys

    def row_pos(self) -> np.ndarray:
        """Dense vertex-id → row-index map (-1 for non-cover vertices)."""
        if self._row_pos is None:
            pos = np.full(self.n, -1, dtype=np.int64)
            pos[self.cover_ids] = np.arange(len(self.cover_ids), dtype=np.int64)
            self._row_pos = pos
        return self._row_pos

    def flat(self) -> dict[int, int]:
        """One flat ``{u * n + v: w}`` probe dict for the scalar query path.

        A single hash probe per weight lookup — the scalar-speed view of
        the CSR, built in one pass over the arrays (no nested dicts).
        """
        if self._flat is None:
            self._flat = dict(
                zip(self.keys().tolist(), self.weights64().tolist())
            )
        return self._flat

    def link_matrix(
        self, budget: int | None = None, *, diagonal: bool = False
    ) -> np.ndarray:
        """Cover-local bitset link matrix — the bitset-join probe view.

        A ``(|V_I|, ceil(|V_I| / 64))`` uint64 matrix in *cover
        positions*: bit ``j`` of row ``i`` is set iff the index stores an
        edge ``(cover_ids[i], cover_ids[j])`` with weight ``<= budget``
        (``budget=None`` means any stored edge counts — the n-reach
        presence semantics).  With ``diagonal=True`` bit ``i`` of row
        ``i`` is additionally set, encoding the ``u == v``
        self-handshake as a zero-weight link; callers pass it only when
        a zero distance satisfies their budget.  Targets outside the
        cover (legal in hand-built graphs) are ignored.

        Each distinct ``(budget, diagonal)`` view is built once and
        cached (a small FIFO keeps the cache from growing without bound
        when a general-k oracle probes many budgets); size one view with
        :meth:`link_matrix_bytes` before building.  Several views are
        cheaper built together through :meth:`link_matrices`.
        """
        return self.link_matrices([(budget, diagonal)])[0]

    def link_matrices(
        self, specs: Iterable[tuple[int | None, bool]]
    ) -> list[np.ndarray]:
        """Several :meth:`link_matrix` views, built in one pass.

        ``specs`` lists ``(budget, diagonal)`` pairs; the views come back
        in the same order, each cached as :meth:`link_matrix` caches it.
        Views not cached yet share one scatter over the CSR: every edge
        sets its bit in the lowest requested view whose budget admits
        it, and then each view ORs in the one below it, since a link
        within a budget is within every larger one.  The scatter's cost
        follows the stored edges, not ``|V_I|²``, and it runs in row
        blocks of at most :data:`_SCATTER_EDGES` edges so the transient
        arrays stay bounded on large indexes.
        """
        keys = [
            (None if budget is None else int(budget), bool(diagonal))
            for budget, diagonal in specs
        ]
        views = {key: self._matrices.get(key) for key in keys}
        todo = sorted(
            (key for key, mat in views.items() if mat is None),
            key=lambda key: (key[0] is None, key[0] or 0),
        )
        if todo:
            for key, mat in zip(todo, self._build_link_matrices(todo)):
                views[key] = mat
                while len(self._matrices) >= LINK_MATRIX_CACHE_CAP:
                    self._matrices.pop(next(iter(self._matrices)))
                self._matrices[key] = mat
        return [views[key] for key in keys]

    def _build_link_matrices(
        self, specs: list[tuple[int | None, bool]]
    ) -> list[np.ndarray]:
        """The views for ``specs``, sorted by ascending budget (None last)."""
        size = len(self.cover_ids)
        words = words_for(size)
        stack = np.zeros((len(specs), size, words), dtype=np.uint64)
        flat = stack.reshape(-1)
        # ``level``: per edge, the first view whose budget admits its
        # weight code (each finite budget below the code moves the edge
        # one view up); ``row``: the edge's row in the (views x rows)
        # stack.
        limits = [
            budget - self.weight_base for budget, _ in specs if budget is not None
        ]
        codes = self.packed.as_numpy(
            np.uint8 if self.packed.bits <= 8 else np.int64
        )
        row_pos = self.row_pos()
        indptr = self.indptr
        r0 = 0
        while r0 < size:
            lo = int(indptr[r0])
            r1 = int(np.searchsorted(indptr, lo + _SCATTER_EDGES, side="right")) - 1
            r1 = min(size, max(r1, r0 + 1))
            hi = int(indptr[r1])
            tpos = row_pos[self.targets[lo:hi]]
            level = np.zeros(hi - lo, dtype=np.int64)
            for limit in limits:
                level += codes[lo:hi] > limit if limit >= 0 else 1
            # Edges above every budget, and targets outside the cover
            # (hand-built graphs), join no view.
            keep = (level < len(specs)) & (tpos >= 0)
            row = level * size + np.repeat(
                np.arange(r0, r1, dtype=np.int64), np.diff(indptr[r0 : r1 + 1])
            )
            if not keep.all():
                row, tpos = row[keep], tpos[keep]
            word = row * words + (tpos >> 6)
            bit = np.left_shift(np.uint64(1), (tpos & 63).astype(np.uint64))
            # Rows hold strictly ascending targets (see validate), so no
            # bit is added twice and the sum is the OR.
            np.add.at(flat, word, bit)
            r0 = r1
        views = list(stack)
        for below, view in zip(views, views[1:]):
            view |= below
        diag = np.arange(size, dtype=np.int64)
        for (_, diagonal), view in zip(specs, views):
            if diagonal and size:
                set_bits(view, diag, diag)
        return views

    def link_matrix_bytes(self) -> int:
        """Bytes one :meth:`link_matrix` view occupies (``~|V_I|² / 8``)."""
        return matrix_bytes(self.cover_size, self.cover_size)

    # ------------------------------------------------------------------
    # Point access
    # ------------------------------------------------------------------
    def row_bounds(self, u: int) -> tuple[int, int]:
        """``[start, stop)`` of ``u``'s slice in :attr:`targets` (empty if
        ``u`` is not a cover vertex)."""
        p = int(self.row_pos()[u])
        if p < 0:
            return 0, 0
        return int(self.indptr[p]), int(self.indptr[p + 1])

    def row_dict(self, u: int) -> dict[int, int]:
        """One row as a mutable ``{target: weight}`` dict (empty if ``u``
        has no row).

        This is the copy-on-write seed of the dynamic engine's delta
        overlay: the first update touching a cover row materializes
        exactly that row from the immutable arrays, leaving every clean
        row on the zero-copy base path.
        """
        lo, hi = self.row_bounds(u)
        if lo == hi:
            return {}
        return dict(
            zip(
                self.targets[lo:hi].tolist(),
                self.weights64()[lo:hi].tolist(),
            )
        )

    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All edges as aligned ``(src, dst, weight)`` int64 arrays.

        The sorted-triple view :meth:`from_triples` consumes — letting a
        compaction merge clean base rows with overlay rows by masking and
        concatenating arrays, never looping per edge.
        """
        heads = np.repeat(self.cover_ids, np.diff(self.indptr))
        return heads, self.targets, self.weights64()

    def weight_of(self, u: int, v: int) -> int | None:
        """The stored weight of edge ``(u, v)``, or None if absent.

        One ``row_pos`` load plus one binary search over the row slice.
        """
        if not 0 <= u < self.n:
            return None
        lo, hi = self.row_bounds(u)
        if lo == hi:
            return None
        row = self.targets[lo:hi]
        i = int(np.searchsorted(row, v))
        if i < len(row) and int(row[i]) == v:
            return int(self.weights64()[lo + i])
        return None

    # ------------------------------------------------------------------
    # Introspection & conversion
    # ------------------------------------------------------------------
    @property
    def cover_size(self) -> int:
        """``|V_I|``."""
        return len(self.cover_ids)

    @property
    def edge_count(self) -> int:
        """``|E_I|``."""
        return len(self.targets)

    def weighted_edges(self) -> list[tuple[int, int, int]]:
        """All edges as ``(u, v, w)`` triples in sorted order."""
        heads = np.repeat(self.cover_ids, np.diff(self.indptr))
        return list(
            zip(heads.tolist(), self.targets.tolist(), self.weights64().tolist())
        )

    def rows_dict(self) -> dict[int, dict[int, int]]:
        """Conversion helper: the legacy nested-dict view (tests/tools only)."""
        out: dict[int, dict[int, int]] = {}
        indptr = self.indptr.tolist()
        targets = self.targets.tolist()
        weights = self.weights64().tolist()
        for i, u in enumerate(self.cover_ids.tolist()):
            lo, hi = indptr[i], indptr[i + 1]
            if hi > lo:
                out[u] = dict(zip(targets[lo:hi], weights[lo:hi]))
        return out

    def validate(self) -> "IndexGraph":
        """Check the structural invariants; raise :class:`ValueError` if broken.

        The binary searches in :meth:`weight_of` and the batch engine's
        ``searchsorted`` silently miss edges when rows are unsorted, so
        anything installing externally-sourced arrays (the on-disk
        loader) must call this instead of trusting them.  The CSR checks
        are shared with :meth:`DiGraph.from_csr
        <repro.graph.digraph.DiGraph.from_csr>` via
        :func:`~repro.graph.digraph.validate_csr`.  Returns ``self`` for
        chaining.
        """
        cover = self.cover_ids
        if len(cover):
            if int(cover.min()) < 0 or int(cover.max()) >= self.n:
                raise ValueError(f"cover id out of range [0, {self.n})")
            if not bool(np.all(cover[1:] > cover[:-1])):
                raise ValueError("cover ids must be strictly ascending")
        if len(self.indptr) != len(cover) + 1:
            raise ValueError("indptr length must be cover size + 1")
        validate_csr("index", self.n, self.indptr, self.targets)
        if len(self.packed) != len(self.targets):
            raise ValueError("weight array length must match the target count")
        return self

    def csr_storage_bytes(self, *, edges: int | None = None) -> int:
        """§4.3 on-disk model for ``edges`` CSR-stored edges (default all):
        4-byte cover ids and offsets, 4-byte targets, packed weights."""
        if edges is None:
            edges = self.edge_count
        n_i = self.cover_size
        return (
            4 * n_i
            + 4 * (n_i + 1)
            + 4 * edges
            + (edges * self.packed.bits + 7) // 8
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.cover_ids, other.cover_ids)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.targets, other.targets)
            and np.array_equal(self.weights64(), other.weights64())
        )

    def __hash__(self) -> int:  # immutable; allow use as dict key
        return hash((self.n, self.edge_count, self.targets.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IndexGraph(n={self.n}, |V_I|={self.cover_size}, "
            f"|E_I|={self.edge_count}, bits={self.packed.bits})"
        )


# ----------------------------------------------------------------------
# Triple producers (Algorithm 1's BFS sweeps)
# ----------------------------------------------------------------------
def cover_triples_serial(
    graph: DiGraph, cover: Iterable[int], k: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-source BFS triples — the pre-refactor Algorithm-1 inner loop.

    One (scalar for small k, else vectorized) BFS per cover vertex.  Kept
    as the differential-test baseline and the benchmark reference the
    blocked builder is measured against.
    """
    cover_arr = np.unique(np.fromiter((int(v) for v in cover), dtype=np.int64))
    in_cover = np.zeros(graph.n, dtype=bool)
    in_cover[cover_arr] = True
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    dists: list[np.ndarray] = []
    use_scalar = k is not None and k <= _SCALAR_BFS_MAX_K
    for u in cover_arr.tolist():
        if use_scalar:
            ball = bfs_distances_scalar(graph, u, k=k)
            hit = [(v, d) for v, d in ball.items() if v != u and in_cover[v]]
            if not hit:
                continue
            dst = np.fromiter((v for v, _ in hit), dtype=np.int64, count=len(hit))
            dist = np.fromiter((d for _, d in hit), dtype=np.int64, count=len(hit))
        else:
            all_dist = bfs_distances(graph, u, k=k)
            dst = np.flatnonzero((all_dist != UNREACHED) & in_cover)
            dst = dst[dst != u].astype(np.int64)
            if not len(dst):
                continue
            dist = all_dist[dst].astype(np.int64)
        srcs.append(np.full(len(dst), u, dtype=np.int64))
        dsts.append(dst)
        dists.append(dist)
    if not srcs:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    return np.concatenate(srcs), np.concatenate(dsts), np.concatenate(dists)


def cover_triples_blocked(
    graph: DiGraph, cover: Iterable[int], k: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocked bit-parallel MS-BFS triples (the default builder).

    Wraps :func:`~repro.graph.traversal.bfs_distances_blocked` with the
    cover as both source set and emit mask — exactly the (src, dst, dist)
    stream Algorithm 1 needs, 64 sources per sweep, in ascending
    ``(src, dst)`` order.
    """
    cover_arr = np.unique(np.fromiter((int(v) for v in cover), dtype=np.int64))
    in_cover = np.zeros(graph.n, dtype=bool)
    if len(cover_arr):
        in_cover[cover_arr] = True
    return bfs_distances_blocked(graph, cover_arr, k=k, emit=in_cover)
