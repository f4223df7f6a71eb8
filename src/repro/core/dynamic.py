"""Snapshot + delta-overlay dynamic k-reach engine.

The paper builds its index once over a static graph; its related work
(Bramandia et al. [3], on incremental 2-hop maintenance) raises the
obvious follow-up — keeping the index consistent as the graph changes.
:class:`DynamicKReachIndex` answers that with an LSM-style two-tier
architecture:

* **Base snapshot** — an immutable :class:`~repro.core.kreach.KReachIndex`
  over the graph as of the last compaction: its
  :class:`~repro.core.index_graph.IndexGraph` (level planes for a fresh
  build inside the memory gate, the §4.3 CSR after a compaction merge)
  and its bitset link views.  Nothing in this tier ever mutates.
* **Delta overlay** — the small mutable tail, held as arrays: one
  sorted ``x * n + y`` key array with its weights, and a replaced-row
  mask over the vertices.  A *replaced* row's entries are its whole row
  (the mask hides its base row; an empty replaced row has no entries);
  any other row's entries are *min-patches* that lower weights of its
  base row.  Beside them sit the vertices whose adjacency diverged from
  the snapshot graph, the cover vertices added since, and the replayable
  operation log an :class:`~repro.core.serialize.OpLog` persists beside
  the base snapshot's index file.

Queries — scalar *and* :meth:`DynamicKReachIndex.query_batch` — route
through the same four-case Algorithm 2 the static engine runs; batch
reads run its very body (:func:`~repro.core.kreach.algorithm2_batch`)
over two array views of the current state, rebuilt on the first read
after a write burst changed them.  The **patched CSR** is the base
snapshot's CSRs with the rows of vertices whose adjacency changed
rewritten from their sets; deferred repairs and compactions traverse it
too.  The **patched level stack** is the base snapshot's ≤k-2 / ≤k-1 /
≤k link views with the replaced rows cleared and every overlay link
set, so Cases 1–3 are one bit probe each and Case 4 is the bitset join.
Past the memory gate a keyed lookup of the overlay over the base answers
the probes instead.

**Maintenance** is the same incremental algebra as before, applied to
the overlay:

* **Edge insertion** is cheap, because every stored quantity is a
  *minimum*: distances only shrink.  Inserting ``(u, v)`` repairs the
  vertex-cover invariant (the higher-degree uncovered endpoint joins the
  cover, and its row is pinned for the next flush) and relaxes
  cover-pair weights through the new edge — ``d(x, y) ≤ d(x, u) + 1 +
  d(v, y)`` over the backward/forward ``(k-1)``-balls.  The candidate
  relaxations are *queued as arrays* (one vectorized outer sum per
  insert) and min-merged into the overlay at the next read — one sort +
  one bulk lookup per write burst instead of a Python probe per
  candidate pair.
* **Edge deletion** is the hard direction (stored minima cannot be
  "un-relaxed").  The affected rows are pinned *exactly* at delete time
  by comparing ``v``'s backward k-ball before and after the removal —
  on well-connected graphs almost every deleted edge has same-length
  alternates, so most deletions pin nothing — and the recomputation is
  *deferred* to the next read: every row pinned in a write burst is
  recomputed by one pass of the blocked bit-parallel MS-BFS the static
  builder uses, 64 rows per sweep, whose sorted triples become the
  rows' overlay entries.

**Compaction** bounds the overlay: once a repair takes the replaced-row
count to ``max(compaction_min_rows, compaction_ratio · |S_base|)`` (when
``auto_compact`` is on), the repaired triples, the overlay and the clean
base rows (array mask + concatenate, no per-edge Python) are min-reduced
by key into a fresh :class:`IndexGraph`, which is promoted — with the
current graph snapshot — to the new base; :meth:`compact` runs the same
merge on demand, and ``rebuild=True`` instead re-derives every row from
the graph through the blocked bit-parallel MS-BFS builder (useful after
heavy churn, when a fresh degree-ordered cover can undo the monotone
cover growth).  :meth:`freeze` is compaction promoted to an API: settle
the overlay and hand back the static base snapshot for the
serving/serialization paths.

Equivalence after arbitrary update sequences — against a freshly built
static index, against :meth:`freeze`'s output, and against the BFS
oracle — is the central test invariant
(``tests/core/test_dynamic.py``).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.bitsets.ops import DEFAULT_MATRIX_BYTES, set_bits, words_for
from repro.core.batch import (
    KeyedRowStore,
    as_pair_arrays,
    as_vertex_pair,
    case_codes,
)
from repro.core.index_graph import IndexGraph
from repro.core.kreach import (
    KReachIndex,
    algorithm2_batch,
    batch_views,
    level_specs,
    level_within,
)
from repro.core.vertex_cover import vertex_cover_2approx
from repro.graph.digraph import DiGraph
from repro.graph.traversal import bfs_distances_blocked

__all__ = ["DynamicKReachIndex", "OP_INSERT", "OP_DELETE"]

#: Operation codes of the replayable delta log, an ``(ops, 3)`` int64
#: array of ``(op, u, v)`` rows (one framed record each in an OpLog).
OP_INSERT = 0
OP_DELETE = 1

#: Caps on queued insert-relaxation candidates: the outer-product chunk
#: size per insert, and the total queue volume at which the pending
#: candidates are min-merged early instead of waiting for the next read.
_RELAX_CHUNK = 1 << 22
_RELAX_QUEUE_MAX = 1 << 24


def _cover_base(graph: DiGraph, k: int | None, gate: int) -> KReachIndex:
    """A fresh base snapshot on the §4.3 2-approximate cover.

    Not the static default, which may be V
    (:func:`~repro.core.kreach.default_cover`): each insert relaxes over
    the cover members of two balls, so with S = V writes cost far more —
    at ``kreach-bench dynamic --scale 0.05 --queries 20000`` (2-vCPU
    host) total update time rose about 6x and rebuilding a static index
    per read batch overtook the overlay.
    """
    return KReachIndex(
        graph, k, cover=vertex_cover_2approx(graph), bitset_matrix_bytes=gate
    )


class DynamicKReachIndex:
    """k-reach with ``insert_edge`` / ``delete_edge`` maintenance.

    Parameters
    ----------
    graph:
        Initial graph; becomes the first base snapshot.
    k:
        Hop budget (``None`` for the classic-reachability mode).
    compaction_ratio:
        Overlay size ratio triggering automatic compaction: the overlay
        merges into a fresh base snapshot once its replaced-row count
        reaches this fraction of the base cover size.
    compaction_min_rows:
        Floor under the ratio trigger.  A single k-hop deletion can
        replace every cover row within its backward ball, so a floor
        well above typical ball sizes keeps small covers from compacting
        after every other write.
    auto_compact:
        Run the threshold check after every row repair (default).  Off,
        the overlay grows until an explicit :meth:`compact` /
        :meth:`freeze`.
    bitset_matrix_bytes:
        Memory ceiling for the patched level stack, mirroring the static
        index's parameter: the three ≤k-2 / ≤k-1 / ≤k views (one for
        n-reach) of ~|S|²/8 bytes each must fit together.  Past it,
        batches probe the keyed lookup of the overlay over the base, and
        Case 4 joins against the patched ≤k-2 view alone while that
        fits; past that too, it walks the chunked cross products.

    Examples
    --------
    >>> g = DiGraph(4, [(0, 1), (2, 3)])
    >>> idx = DynamicKReachIndex(g, k=3)
    >>> idx.query(0, 3)
    False
    >>> idx.insert_edge(1, 2)
    >>> idx.query(0, 3)
    True
    >>> idx.delete_edge(1, 2)
    >>> idx.query(0, 3)
    False
    """

    def __init__(
        self,
        graph: DiGraph,
        k: int | None,
        *,
        compaction_ratio: float = 0.5,
        compaction_min_rows: int = 64,
        auto_compact: bool = True,
        bitset_matrix_bytes: int = DEFAULT_MATRIX_BYTES,
    ) -> None:
        if k is not None and k < 0:
            raise ValueError(f"k must be non-negative or None, got {k}")
        self._init_config(
            graph.n,
            k,
            compaction_ratio,
            compaction_min_rows,
            auto_compact,
            bitset_matrix_bytes,
        )
        self._install_base(_cover_base(graph, k, bitset_matrix_bytes))

    @classmethod
    def from_base(
        cls,
        base: KReachIndex,
        *,
        compaction_ratio: float = 0.5,
        compaction_min_rows: int = 64,
        auto_compact: bool = True,
    ) -> "DynamicKReachIndex":
        """Wrap an existing static index as the base snapshot (no build).

        :func:`~repro.core.serialize.recover_dynamic` uses this to
        install a validated snapshot from a v6 index file before
        replaying the journaled delta log; it also lets a settled
        :meth:`freeze` output re-enter dynamic service without paying a
        reconstruction.  The snapshot's ``bitset_matrix_bytes`` carries
        over: to run a non-default memory gate, pass it to
        :func:`~repro.core.serialize.load_mmap` when opening the base.
        """
        self = object.__new__(cls)
        self._init_config(
            base.graph.n,
            base.k,
            compaction_ratio,
            compaction_min_rows,
            auto_compact,
            base.bitset_matrix_bytes,
        )
        self._install_base(base)
        return self

    def _init_config(
        self,
        n: int,
        k: int | None,
        compaction_ratio: float,
        compaction_min_rows: int,
        auto_compact: bool,
        bitset_matrix_bytes: int,
    ) -> None:
        """Validate and set the shared constructor/from_base fields."""
        if compaction_ratio <= 0:
            raise ValueError(
                f"compaction_ratio must be positive, got {compaction_ratio}"
            )
        if compaction_min_rows < 1:
            raise ValueError(
                f"compaction_min_rows must be >= 1, got {compaction_min_rows}"
            )
        self.n = n
        self.k = k
        self.compaction_ratio = float(compaction_ratio)
        self.compaction_min_rows = int(compaction_min_rows)
        self.auto_compact = bool(auto_compact)
        self.bitset_matrix_bytes = int(bitset_matrix_bytes)
        self.compactions = 0
        self._journal = None  # optional crash-safe OpLog (attach_journal)
        # Backing of the patched link views, overwritten by later bursts.
        self._view_buf: np.ndarray | None = None

    def _install_base(self, base: KReachIndex) -> None:
        """Promote ``base`` to the immutable tier and reset the overlay."""
        self._base = base
        g = base.graph
        self._out: list[set[int]] = [set(row) for row in g.out_lists()]
        self._in: list[set[int]] = [set(row) for row in g.in_lists()]
        self._cover: set[int] = set(base.cover)
        # Sorted arrays of the dirty adjacency rows, each kept until its
        # row changes (the patched CSR's per-burst input).
        self._out_rows: dict[int, np.ndarray] = {}
        self._in_rows: dict[int, np.ndarray] = {}
        # The overlay: sorted x * n + y keys with their weights, and the
        # rows whose entries replace their base row whole.  Improvements
        # on other rows stay sparse min-patches: a full-row copy each
        # would mask the row out of the base views and push it toward
        # compaction for no reason.
        empty = np.empty(0, dtype=np.int64)
        self._set_overlay(empty, empty)
        self._replaced = np.zeros(self.n, dtype=bool)
        self._cover_added: list[int] = []
        self._dirty_out: set[int] = set()
        self._dirty_in: set[int] = set()
        self._pending_repair: set[int] = set()
        self._pending_relax: list[
            tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = []
        self._pending_relax_size = 0
        self._log: list[tuple[int, int, int]] = []
        self._invalidate()

    def _invalidate(self) -> None:
        """Drop every derived batch view; they rebuild on next use.

        Only base promotion needs this.  Ordinary writes maintain the
        O(n) views (cover flags, position map) *incrementally* and drop
        only what they change: the patched CSR, plus the patched views
        when the cover grows or the overlay changes.  A write burst thus
        frees nothing the next read rebuilds unchanged.
        """
        self._flags_np: np.ndarray | None = None
        self._row_pos_np: np.ndarray | None = None
        self._graph_cache: DiGraph | None = None
        self._views: tuple[list, list[np.ndarray]] | None = None

    def _set_overlay(self, keys: np.ndarray, weights: np.ndarray) -> None:
        """Install the overlay's sorted unique ``keys`` and their
        ``weights``, with their keyed store, the memoryviews the scalar
        probe bisects, and no patched views."""
        self._keys, self._weights = keys, weights
        self._store = KeyedRowStore(keys, weights, self.n)
        self._key_view, self._weight_view = memoryview(keys), memoryview(weights)
        self._views = None

    # ------------------------------------------------------------------
    # Internal helpers (maintenance algebra)
    # ------------------------------------------------------------------
    def _ball_dists(
        self, source: int, limit: int | None, direction: str
    ) -> np.ndarray:
        """BFS distances from ``source``, ``limit`` hops deep, as a full
        ``(n,)`` int64 array (-1 = unreached).

        A level-synchronous walk over the mutable adjacency sets, so
        writes never need the patched CSR (a numpy gather for wide
        frontiers showed no clear gain on the churn benchmark's graph).
        This is the maintenance path's workhorse — insert relaxation
        balls and the deletion pin test both consume the arrays
        directly.
        """
        dist = np.full(self.n, -1, dtype=np.int64)
        dist[source] = 0
        adjacency = self._out if direction == "out" else self._in
        frontier: list[int] = [source]
        d = 0
        while frontier and (limit is None or d < limit):
            d += 1
            nxt: list[int] = []
            for x in frontier:
                for y in adjacency[x]:
                    if dist[y] < 0:
                        dist[y] = d
                        nxt.append(y)
            frontier = nxt
        return dist

    def _row_get(self, x: int, y: int) -> int | None:
        """Current stored weight of (x, y): the overlay entry on a
        replaced row; elsewhere the min-patch, which only ever lowers the
        base weight, or else the base weight."""
        key = x * self.n + y
        keys = self._key_view
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return self._weight_view[i]
        if self._replaced[x]:
            return None
        return self._base.index_graph.probe()[1](x, y)

    def _queue_relax(
        self, xs: np.ndarray, ys: np.ndarray, dists: np.ndarray
    ) -> None:
        """Queue candidate relaxations ``d(x, y) <= dist`` for the flush.

        Candidates carry raw distances; quantization and the min-merge
        against the stored rows happen in bulk at
        :meth:`_apply_relaxations`.  Self-pairs and over-budget
        candidates are assumed already filtered by the caller.
        """
        if not len(xs):
            return
        self._pending_relax.append((xs, ys, dists))
        self._pending_relax_size += len(xs)
        if self._pending_relax_size > _RELAX_QUEUE_MAX:
            self._apply_relaxations()

    def _apply_relaxations(self) -> None:
        """Min-merge the queued insert candidates into the overlay.

        One fused sort gives the best candidate per (x, y); one bulk
        lookup finds those that improve on the current weight, and only
        those merge into the overlay's arrays — a min-patch on a row that
        is not replaced, an entry of a replaced one.  No candidate ever
        replaces a row (replaced rows are masked out of the base link
        views and count toward the compaction threshold).
        """
        if not self._pending_relax:
            return
        parts = self._pending_relax
        self._pending_relax = []
        self._pending_relax_size = 0
        xs, ys, dists = (np.concatenate(column) for column in zip(*parts))
        keys, w = self._min_by_key(xs * self.n + ys, self._quantize(dists))
        better = w < self._lookup(*np.divmod(keys, self.n))
        if bool(better.any()):
            self._set_overlay(
                *self._min_by_key(
                    np.concatenate((self._keys, keys[better])),
                    np.concatenate((self._weights, w[better])),
                    "stable",
                )
            )

    def _quantize(self, dists: np.ndarray) -> np.ndarray:
        """The stored k-reach weights of raw distances: ``max(d, k-2)``,
        or all zero for n-reach."""
        if self.k is None:
            return np.zeros(len(dists), dtype=np.int64)
        return np.maximum(dists, self.k - 2)

    def _min_by_key(
        self, keys: np.ndarray, w: np.ndarray, kind: str = "quicksort"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sorted unique ``keys``, each with its least quantized weight.

        The weights span {k-2, k-1, k} (all zero for n-reach), so below
        n = 2^30 they fuse into the key's two low bits and one sort
        orders by (key, weight); the first entry per key is its least.
        ``kind`` is numpy's sort kind: callers that concatenate sorted
        arrays pass ``"stable"``, whose run merging reads about 3x
        faster there and 5x slower on shuffled keys.
        """
        if self.k is None:
            order = np.argsort(keys, kind=kind)
        elif self.n < (1 << 30):
            order = np.argsort(keys * np.int64(4) + (w - (self.k - 2)), kind=kind)
        else:
            order = np.lexsort((w, keys))
        keys, w = keys[order], w[order]
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        return keys[first], w[first]

    def _repair_rows(self) -> None:
        """Recompute every pinned row in one blocked MS-BFS pass.

        The rows pinned by deletions and cover growth ride the same
        64-sources-per-sweep bit-parallel kernel Algorithm-1
        construction uses, over the patched CSR.  Their triples, sorted
        by ``(src, dst)``, replace the rows' overlay entries, and the
        rows are marked replaced — unless that takes the replaced-row
        count to the compaction threshold: then they merge straight
        into a fresh snapshot, which the overlay would only hand them to
        moments later.
        """
        sources = np.fromiter(self._pending_repair, dtype=np.int64)
        self._pending_repair.clear()
        g = self._graph()
        src, dst, dist = bfs_distances_blocked(
            g, sources, k=self.k, emit=self._flags()
        )
        rows = np.zeros(self.n, dtype=bool)
        rows[sources] = True
        keys, w = src * self.n + dst, self._quantize(dist)
        replaced = self._replaced | rows
        if (
            self.auto_compact
            and np.count_nonzero(replaced) >= self.compaction_threshold
        ):
            self._merge(g, (rows, keys, w))
            return
        self._replaced = replaced
        keep = ~rows[self._keys // self.n]
        self._set_overlay(
            *self._min_by_key(
                np.concatenate((self._keys[keep], keys)),
                np.concatenate((self._weights[keep], w)),
                "stable",
            )
        )

    def _merged(self, repaired: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The current index as sorted unique ``(keys, weights)``.

        Three parts, min-reduced by key (a min-patch beats the base link
        it lowers): the base's :meth:`IndexGraph.triples
        <repro.core.index_graph.IndexGraph.triples>` minus the replaced
        and repaired rows, the overlay minus the repaired rows, and the
        repaired rows.  ``repaired`` is a repair's ``(rows, keys,
        weights)``: its row mask over the vertices and its triples.
        """
        hidden = self._replaced
        keys, w = [self._keys], [self._weights]
        if repaired is not None:
            rows, rkeys, rw = repaired
            hidden = hidden | rows
            keep = ~rows[self._keys // self.n]
            keys, w = [self._keys[keep], rkeys], [self._weights[keep], rw]
        src, dst, bw = self._base.index_graph.triples()
        keep = ~hidden[src]
        keys.append(src[keep] * self.n + dst[keep])
        w.append(bw[keep])
        return self._min_by_key(np.concatenate(keys), np.concatenate(w), "stable")

    def _merge(self, g: DiGraph, repaired: tuple | None = None) -> KReachIndex:
        """The compaction merge: :meth:`_merged`'s triples, with a
        repair's rows when ``repaired`` is given, become a new base
        snapshot over ``g`` through the :meth:`IndexGraph.for_kreach
        <repro.core.index_graph.IndexGraph.for_kreach>` array path every
        other builder uses; it is promoted and returned."""
        keys, w = self._merged(repaired)
        src, dst = np.divmod(keys, self.n)
        cover = frozenset(self._cover)
        ig = IndexGraph.for_kreach(self.n, cover, src, dst, w, self.k)
        base = KReachIndex.from_index_graph(
            g,
            self.k,
            cover=cover,
            index_graph=ig,
            bitset_matrix_bytes=self.bitset_matrix_bytes,
        )
        self.compactions += 1
        self._install_base(base)
        return base

    def _cover_ball_arrays(
        self, dist: np.ndarray, exclude: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(vertices, dists)`` of a ball's cover members."""
        mask = (dist >= 0) & self._flags()
        if 0 <= exclude < self.n:
            mask[exclude] = False
        verts = np.flatnonzero(mask)
        return verts, dist[verts]

    def _add_to_cover(self, w: int) -> None:
        """Grow the cover by ``w``: its forward row is pinned for the
        next flush's repair, its backward in-links queued."""
        self._cover.add(w)
        self._cover_added.append(w)
        if self._flags_np is not None:
            self._flags_np[w] = True
        if self._row_pos_np is not None:
            self._row_pos_np[w] = (
                self._base.index_graph.cover_size + len(self._cover_added) - 1
            )
        self._pending_repair.add(w)
        self._views = None
        bx, bd = self._cover_ball_arrays(
            self._ball_dists(w, self.k, "in"), w
        )
        self._queue_relax(bx, np.full(len(bx), w, dtype=np.int64), bd)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> None:
        """Insert the directed edge ``(u, v)`` and repair the overlay."""
        u, v = as_vertex_pair(u, v, self.n)
        if u == v or v in self._out[u]:
            return  # self-loops ignored (simple graphs), duplicates no-op
        self._out[u].add(v)
        self._in[v].add(u)
        self._mark_dirty_adjacency(u, v)
        self._log.append((OP_INSERT, u, v))
        if self._journal is not None:
            self._journal.append(OP_INSERT, u, v)
        # Cover invariant: every edge needs a covered endpoint.
        if u not in self._cover and v not in self._cover:
            u_deg = len(self._out[u]) + len(self._in[u])
            v_deg = len(self._out[v]) + len(self._in[v])
            self._add_to_cover(u if u_deg >= v_deg else v)
        # Queue the relaxations of cover-pair distances through the new
        # edge — d(x, y) <= d(x, u) + 1 + d(v, y) — as one chunked outer
        # sum over the cover members of the backward/forward balls.
        side = None if self.k is None else self.k - 1
        bx, ba = self._cover_ball_arrays(self._ball_dists(u, side, "in"), -1)
        fy, fb = self._cover_ball_arrays(self._ball_dists(v, side, "out"), -1)
        if len(bx) and len(fy):
            step = max(1, _RELAX_CHUNK // len(fy))
            for start in range(0, len(bx), step):
                cx, ca = bx[start : start + step], ba[start : start + step]
                dist = (ca[:, None] + 1 + fb[None, :]).ravel()
                xs = np.repeat(cx, len(fy))
                ys = np.tile(fy, len(cx))
                keep = xs != ys
                if self.k is not None:
                    keep &= dist <= self.k
                self._queue_relax(xs[keep], ys[keep], dist[keep])

    def delete_edge(self, u: int, v: int) -> None:
        """Delete the directed edge ``(u, v)`` and repair the overlay.

        Distances through the edge may grow, so the cover rows whose
        distance *to v* actually changed (the exact affected set — see
        the inline proof) are pinned for recomputation, deferred to the
        next read.  The cover itself is left unchanged — covers stay
        valid under deletions.
        """
        u, v = as_vertex_pair(u, v, self.n)
        if v not in self._out[u]:
            return
        # Pin the affected rows exactly: compare v's backward k-ball
        # before and after the delete.  A cover row x whose d(x, v) is
        # unchanged cannot lose any distance — every old route through
        # (u, v) passes v, and splicing the surviving shortest x→v path
        # (which avoids (u, v) by construction: it exists post-delete)
        # in front of the old suffix gives an equally short (u, v)-free
        # walk.  On well-connected graphs a deleted edge almost always
        # has same-length alternates, so the repair set collapses from
        # "the whole backward ball" to the few rows v actually drifted
        # away from.
        back_pre = self._ball_dists(v, self.k, "in")
        self._out[u].discard(v)
        self._in[v].discard(u)
        self._mark_dirty_adjacency(u, v)
        self._log.append((OP_DELETE, u, v))
        if self._journal is not None:
            self._journal.append(OP_DELETE, u, v)
        back_post = self._ball_dists(v, self.k, "in")
        # The recomputation itself is deferred to the next read, so
        # consecutive deletions in a burst share one repair pass.  The
        # pinned set also covers every queued insert candidate a
        # deletion invalidates: when a candidate's witnessed distance
        # first grows past its bound, the distance to that deletion's v
        # grew with it, so the candidate's source row is pinned here and
        # its fresh repair overwrites whatever the stale candidate
        # merged in.
        changed = (back_pre >= 0) & (back_post != back_pre) & self._flags()
        self._pending_repair.update(np.flatnonzero(changed).tolist())

    def _mark_dirty_adjacency(self, u: int, v: int) -> None:
        """An edge (u, v) changed: u's out-list and v's in-list diverged."""
        self._dirty_out.add(u)
        self._dirty_in.add(v)
        self._out_rows.pop(u, None)
        self._in_rows.pop(v, None)
        self._graph_cache = None

    def _flush_repairs(self) -> None:
        """Settle the deferred write work (called before any row read).

        Queued insert relaxations min-merge first (rows a deletion also
        touched get overwritten by their repair right after, so a stale
        candidate can never survive — see :meth:`delete_edge` for why
        the repair set provably covers every broken candidate path).
        Then every pinned row is recomputed in one blocked MS-BFS pass
        (:meth:`_repair_rows`).  Every read entry point (scalar query,
        batch query, compaction, freeze, introspection that reads rows)
        funnels through here, so deferral is invisible to callers —
        answers are always exact.
        """
        self._apply_relaxations()
        if self._pending_repair:
            self._repair_rows()

    # ------------------------------------------------------------------
    # Compaction (the maintenance loop's snapshot merge)
    # ------------------------------------------------------------------
    @property
    def compaction_threshold(self) -> int:
        """Replaced-row count at which automatic compaction fires."""
        return max(
            self.compaction_min_rows,
            int(self.compaction_ratio * self._base.cover_size),
        )

    def compact(self, *, rebuild: bool = False) -> KReachIndex:
        """Merge the overlay into a fresh base snapshot and promote it.

        The default path never re-traverses the graph: clean base rows
        are taken as array slices and min-reduced with the overlay, the
        one merge a mass repair also runs.  ``rebuild=True`` instead
        re-derives all rows from the current graph through the blocked
        bit-parallel MS-BFS builder (and a fresh degree-ordered cover) —
        full Algorithm-1 cost, worth paying after heavy churn since the
        maintained cover only ever grows.  Either way the overlay
        (entries, replaced rows, dirty adjacency, pending log) resets to
        empty and the current graph becomes the new snapshot graph.
        Returns the new base.
        """
        self._flush_repairs()  # may itself promote a merged snapshot
        if not self._log:
            return self._base  # nothing pending; keep the snapshot
        g = self._graph()
        if not rebuild:
            return self._merge(g)
        base = _cover_base(g, self.k, self.bitset_matrix_bytes)
        self.compactions += 1
        self._install_base(base)
        return base

    def freeze(self) -> KReachIndex:
        """Settle the overlay and return the static base snapshot.

        Compaction promoted to an API: after :meth:`freeze` the overlay
        is empty and the returned :class:`KReachIndex` answers exactly
        like the dynamic index (and like a fresh static build on the
        current graph, per the maintenance invariant) — hand it to the
        serving or serialization paths once a burst of updates settles.
        """
        return self.compact()

    # ------------------------------------------------------------------
    # Queries (Algorithm 2 over base + overlay)
    # ------------------------------------------------------------------
    def _link_within(self, x: int, y: int, budget: int | None) -> bool:
        if x == y:
            return budget is None or budget >= 0
        w = self._row_get(x, y)
        if w is None:
            return False
        return budget is None or w <= budget

    def query(self, s: int, t: int) -> bool:
        """Whether ``s →k t`` in the *current* graph."""
        s, t = as_vertex_pair(s, t, self.n)
        self._flush_repairs()
        if s == t:
            return True
        k = self.k
        if k == 0:
            return False
        s_in = s in self._cover
        t_in = t in self._cover
        if s_in and t_in:
            return self._link_within(s, t, k)
        minus1 = None if k is None else k - 1
        if s_in:
            return any(self._link_within(s, v, minus1) for v in self._in[t])
        if t_in:
            return any(self._link_within(u, t, minus1) for u in self._out[s])
        minus2 = None if k is None else k - 2
        preds = self._in[t]
        if not preds:
            return False
        for u in self._out[s]:
            if u in preds and (minus2 is None or minus2 >= 0):
                return True
            if any(self._link_within(u, v, minus2) for v in preds):
                return True
        return False

    def query_case(self, s: int, t: int) -> int:
        """Which Algorithm-2 case the pair falls into (cover may have grown)."""
        s, t = as_vertex_pair(s, t, self.n)
        s_in = s in self._cover
        t_in = t in self._cover
        if s_in and t_in:
            return 1
        if s_in:
            return 2
        if t_in:
            return 3
        return 4

    # ------------------------------------------------------------------
    # Batch queries (vectorized Algorithm 2 over base + overlay)
    # ------------------------------------------------------------------
    def _flags(self) -> np.ndarray:
        """Current cover membership as a bool array."""
        if self._flags_np is None:
            flags = np.zeros(self.n, dtype=bool)
            flags[np.fromiter(self._cover, dtype=np.int64)] = True
            self._flags_np = flags
        return self._flags_np

    def _row_pos(self) -> np.ndarray:
        """Vertex → cover-position map: base positions, additions appended.

        Base cover vertices keep their snapshot positions (so the base
        link matrix copies in place); vertices that joined the cover
        since occupy positions ``|S_base| ..`` in insertion order.
        """
        if self._row_pos_np is None:
            # Always a copy: cover growth patches this array in place.
            pos = self._base.index_graph.row_pos().copy()
            first = self._base.index_graph.cover_size
            for i, v in enumerate(self._cover_added):
                pos[v] = first + i
            self._row_pos_np = pos
        return self._row_pos_np

    def _lookup(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Bulk weight lookup: the overlay weight on a replaced row, and
        the lesser of the base weight and the min-patch on any other."""
        over = self._store.lookup(u, v)
        return np.where(
            self._replaced[u],
            over,
            np.minimum(self._base.index_graph.lookup(u, v), over),
        )

    def _graph(self) -> DiGraph:
        """The current graph: the base snapshot's CSRs with the diverged
        rows rewritten (:func:`_patched_csr`).  Built on first use after
        a write and shared by batch reads, deferred repairs, compaction
        and :meth:`to_digraph`; a clean overlay serves the base graph."""
        if self._graph_cache is None:
            g = self._base.graph
            if self._dirty_out:
                out_indptr, out_indices = _patched_csr(
                    g.out_indptr, g.out_indices, self._out, self._dirty_out,
                    self._out_rows,
                )
                in_indptr, in_indices = _patched_csr(
                    g.in_indptr, g.in_indices, self._in, self._dirty_in,
                    self._in_rows,
                )
                g = DiGraph.from_csr(
                    out_indptr, out_indices, in_indptr=in_indptr,
                    in_indices=in_indices, validate=False,
                )
            self._graph_cache = g
        return self._graph_cache

    def _patched_views(self, specs: list[tuple[int | None, bool]]) -> list[np.ndarray]:
        """The link views of ``(budget, diagonal)`` ``specs`` over the
        current index, the distinct ones built in one pass per write
        burst (a repeated spec, as n-reach's, shares its view).

        Each is the base snapshot's view copied into the top-left block
        (base positions are stable across overlay growth), with the
        replaced rows — cover additions among them — cleared, every
        overlay link within the budget set (a min-patch only ever lowers
        a weight, so setting its bit is enough), and the diagonal set on
        the replaced rows where the view holds the handshake.  A clean
        overlay serves the base's views themselves.  The patched views
        share one buffer that later bursts overwrite; its rows are
        rounded up to whole words (the extra rows stay zero), so cover
        growth reallocates it once per 64 vertices.
        """
        ig = self._base.index_graph
        if not (len(self._keys) or self._replaced.any()):
            return ig.link_matrices(specs)
        if self._views is not None and self._views[0] == specs:
            return self._views[1]
        distinct = list(dict.fromkeys(specs))
        words = words_for(len(self._cover))
        shape = (len(distinct), words * 64, words)
        if self._view_buf is None or self._view_buf.shape != shape:
            self._view_buf = np.empty(shape, dtype=np.uint64)
        rows_b, words_b = ig.cover_size, words_for(ig.cover_size)
        row_pos = self._row_pos()
        replaced = row_pos[np.flatnonzero(self._replaced)]
        src, dst = np.divmod(self._keys, self.n)
        pu, pv = row_pos[src], row_pos[dst]
        views = list(self._view_buf)
        for view, base, (budget, diagonal) in zip(
            views, ig.link_matrices(distinct), distinct
        ):
            view[:rows_b, :words_b] = base
            view[:rows_b, words_b:] = 0
            view[rows_b:] = 0
            view[replaced] = 0
            fit = slice(None) if budget is None else self._weights <= budget
            set_bits(view, pu[fit], pv[fit])
            if diagonal:
                set_bits(view, replaced, replaced)
        built = dict(zip(distinct, views))
        self._views = (specs, [built[spec] for spec in specs])
        return self._views[1]

    def _batch_views(self) -> tuple[list[np.ndarray] | None, np.ndarray | None]:
        """``(stack, matrix)`` of :func:`~repro.core.kreach.batch_views`
        over the patched views of the current cover (cached until the
        next write)."""
        return batch_views(
            self._patched_views,
            level_specs(self.k),
            len(self._cover),
            self.bitset_matrix_bytes,
        )

    def prepare_batch(self) -> "DynamicKReachIndex":
        """Build the batch engine's lookup structures now.

        Mirrors :meth:`KReachIndex.prepare_batch
        <repro.core.kreach.KReachIndex.prepare_batch>`: settles the
        deferred write work and builds the patched CSR plus the patched
        level stack when it fits :attr:`bitset_matrix_bytes` (the base's
        own views while the overlay is clean), else the base's keyed
        probe arrays and the patched ≤k-2 view while that fits.  Returns
        ``self`` for chaining.
        """
        self._flush_repairs()
        self._flags()
        self._graph()
        if self._batch_views()[0] is None:
            empty = np.empty(0, dtype=np.int64)
            self._base.index_graph.lookup(empty, empty)
        return self

    def query_batch(self, pairs) -> np.ndarray:
        """Vectorized :meth:`query` over a batch of (s, t) pairs.

        Same batch API contract as the static engine: any ``(m, 2)``
        integer array-like in, an aligned ``(m,)`` bool array out,
        bit-identical to the scalar :meth:`query` loop.  Runs the static
        engine's Algorithm-2 body
        (:func:`~repro.core.kreach.algorithm2_batch`) over the patched
        CSR on the path the one memory gate picks
        (:func:`~repro.core.kreach.batch_views`): the patched level
        stack while it fits :attr:`bitset_matrix_bytes`, else the keyed
        lookup of the overlay over the base, with Case 4 joining against
        the patched ≤k-2
        view while that fits and walking the chunked cross products
        past it.
        """
        self._flush_repairs()
        s, t = as_pair_arrays(pairs, self.n)
        if self.k == 0 or len(s) == 0:
            return s == t
        row_pos = self._row_pos()
        stack, matrix = self._batch_views()
        within = level_within(level_specs(self.k), stack, row_pos, self._lookup)
        return algorithm2_batch(
            self._graph(), s, t, self._flags(), row_pos, within, matrix, self.query
        )

    def query_case_batch(self, pairs) -> np.ndarray:
        """Vectorized :meth:`query_case`: an ``(m,)`` uint8 array of 1–4."""
        s, t = as_pair_arrays(pairs, self.n)
        flags = self._flags()
        return case_codes(flags[s], flags[t])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def base(self) -> KReachIndex:
        """The immutable base snapshot (as of the last compaction)."""
        return self._base

    @property
    def cover_size(self) -> int:
        """Current cover size (monotone non-decreasing between compactions)."""
        return len(self._cover)

    @property
    def edge_count(self) -> int:
        """Current number of index edges: those a compaction would keep."""
        self._flush_repairs()
        if not self.overlay_rows:
            return self._base.index_graph.edge_count
        return len(self._merged()[0])

    @property
    def overlay_rows(self) -> int:
        """Cover rows the overlay touches: replaced rows plus rows with
        min-patches."""
        rows = self._replaced.copy()
        rows[self._keys // self.n] = True
        return int(np.count_nonzero(rows))

    @property
    def pending_repairs(self) -> int:
        """Rows pinned for the next flush's repair but not yet
        recomputed: those deletions pinned, and the rows of cover
        vertices added since (drained by the next read or compaction)."""
        return len(self._pending_repair)

    @property
    def pending_ops(self) -> int:
        """Updates logged since the last compaction (the delta log)."""
        return len(self._log)

    def pending_log(self) -> np.ndarray:
        """The replayable delta log as an ``(ops, 3)`` int64 array of
        ``(op, u, v)`` rows.

        To persist the index at rest, write the base snapshot and this
        log: ``save_mmap(dyn.base, base_path)`` and
        ``OpLog(log_path).extend(dyn.pending_log())``;
        :func:`~repro.core.serialize.recover_dynamic` restores it.
        """
        if not self._log:
            return np.empty((0, 3), dtype=np.int64)
        return np.asarray(self._log, dtype=np.int64)

    def attach_journal(self, journal) -> None:
        """Mirror every *accepted* update into a crash-safe journal.

        ``journal`` is a :class:`~repro.core.serialize.OpLog` (anything
        with ``append(op, u, v)`` works); ``None`` detaches.  No-op
        writes — duplicate inserts, missing deletes, self-loops — are
        not journaled, exactly as they never enter the delta log, so
        a replay of the journal reproduces this index's state.  Attach
        *after* :func:`~repro.core.serialize.recover_dynamic` has
        replayed history, not before, or the replay would re-journal
        every recovered op.
        """
        self._journal = journal

    def replay(self, log: np.ndarray) -> None:
        """Apply a delta log produced by :meth:`pending_log` in order."""
        for op, u, v in np.asarray(log, dtype=np.int64).tolist():
            if op == OP_INSERT:
                self.insert_edge(u, v)
            elif op == OP_DELETE:
                self.delete_edge(u, v)
            else:
                raise ValueError(f"corrupt delta log: unknown op code {op}")

    def to_digraph(self) -> DiGraph:
        """Snapshot the current graph as an immutable :class:`DiGraph`
        (the patched CSRs, installed without a rebuild)."""
        return self._graph()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        k = "inf" if self.k is None else self.k
        return (
            f"DynamicKReachIndex(k={k}, |V_I|={self.cover_size}, "
            f"overlay={self.overlay_rows} rows/{self.pending_ops} ops, "
            f"compactions={self.compactions})"
        )


def _patched_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    adjacency: list[set[int]],
    dirty: set[int],
    rows: dict[int, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """A base CSR with the ``dirty`` vertices' rows replaced by their
    current ``adjacency`` sets: O(n + m) numpy plus the dirty rows.

    ``rows`` caches each dirty row's sorted array until a write drops
    it.  Clean rows keep their relative order, so they move over as one
    masked block.
    """
    ids = np.sort(np.fromiter(dirty, dtype=np.int64))
    arrays = []
    for v in ids.tolist():
        if v not in rows:
            rows[v] = np.sort(np.fromiter(adjacency[v], dtype=indices.dtype))
        arrays.append(rows[v])
    is_dirty = np.zeros(len(indptr) - 1, dtype=bool)
    is_dirty[ids] = True
    counts = np.diff(indptr)
    new_counts = counts.copy()
    new_counts[ids] = [len(row) for row in arrays]
    new_indptr = np.zeros(len(indptr), dtype=np.int64)
    np.cumsum(new_counts, out=new_indptr[1:])
    new_indices = np.empty(int(new_indptr[-1]), dtype=indices.dtype)
    slots = np.repeat(is_dirty, new_counts)
    new_indices[~slots] = indices[~np.repeat(is_dirty, counts)]
    new_indices[slots] = np.concatenate(arrays)
    return new_indptr, new_indices
