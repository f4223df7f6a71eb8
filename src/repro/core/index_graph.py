"""Physical storage for cover-pair indexes (§4.3).

Every index the paper describes — k-reach, (h,k)-reach, the general-k
oracle — stores the same thing: cover-pair distances cut to the budgets
its queries test.  §4.3 spells out the physical layout: a cover-id
table, a CSR of offsets and targets, and a packed small-integer weight
array.  :class:`IndexGraph` holds it in one of two forms:

* **CSR** — ``cover_ids``, the ``indptr`` / ``targets`` CSR (targets
  ascending per row) and a :class:`~repro.bitsets.packed.PackedIntArray`
  of ``w - weight_base`` codes.  Past the memory gate every index family
  builds it from ``(src, dst, dist)`` triple arrays
  (:meth:`IndexGraph.from_triples`).
* **Planes** — ``cover_ids`` plus nested cover-position bit matrices at
  the consecutive budgets ``base … top`` (:meth:`IndexGraph.from_levels`):
  plane ``i`` is the ≤ base+i view, holding the diagonal wherever that
  budget is ≥ 0, and the last plane holds every stored link.  A link's
  weight is ``base`` plus the number of lower planes that miss it, so the
  planes *are* the index.  k-reach keeps ≤k-2, ≤k-1 and ≤k
  (:func:`level_specs`; one presence plane for n-reach), (h,k)-reach
  ≤max(k-2h, 0) … ≤k, and the §4.4 oracle ≤0 … ≤d.
  :func:`cover_planes_blocked` builds them from one reverse MS-BFS; the
  on-disk loader installs them memory-mapped.

Everything else is a *view*: the batch engines probe cover-position bit
views (:meth:`IndexGraph.link_matrices`: the planes themselves in the
plane form, one cached scatter over the CSR otherwise), the keyed
fallback probes one :class:`~repro.core.batch.KeyedRowStore` over the
sorted ``u * n + v`` key array (:meth:`IndexGraph.keyed`), and every
scalar path reads one zero-copy :meth:`IndexGraph.probe` (a byte of a
plane, or a bisect of a CSR row).  In the plane form the CSR —
``indptr``, ``targets``, the weights and the keys — is derived at most
once, on first use, bit-identical to the triple-built CSR of the same
index; only row consumers (dynamic maintenance,
:meth:`~IndexGraph.weighted_edges`, the keyed fallback) pay for it.

The triples come from the per-source BFS loop
(:func:`cover_triples_serial`, the pre-refactor Algorithm-1 inner loop,
kept as the differential and benchmark baseline) or the bit-parallel
blocked multi-source BFS (:func:`cover_triples_blocked`, the builder
past the memory gate).  The blocked stream arrives in ``(src, dst)``
order, so :meth:`IndexGraph.from_triples` builds the CSR from it without
sorting; other input is sorted there first.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping

import numpy as np

from repro.bitsets.ops import matrix_bytes, probe_bits, set_bits, words_for
from repro.bitsets.packed import PackedIntArray, bits_needed
from repro.core.batch import MISSING_WEIGHT, KeyedRowStore
from repro.graph.digraph import DiGraph, validate_csr
from repro.graph.traversal import (
    UNREACHED,
    bfs_distances,
    bfs_distances_blocked,
    bfs_distances_scalar,
    blocked_reach_planes,
)

__all__ = [
    "IndexGraph",
    "LINK_MATRIX_CACHE_CAP",
    "cover_planes_blocked",
    "cover_triples_serial",
    "cover_triples_blocked",
    "level_specs",
]

#: Entries the FIFO view cache of a CSR-form graph retains (see
#: :meth:`IndexGraph.link_matrices`); a plane-form graph caches nothing,
#: since its views are its planes.
LINK_MATRIX_CACHE_CAP = 16

#: Edges :meth:`IndexGraph.link_matrices` scatters per row block.  Each
#: block's temporaries are a few int64 arrays of this length, small
#: enough to stay in cache; on a 16M-edge index 64K-edge blocks built
#: the views about 1.4x faster than 1M-edge blocks.
_SCATTER_EDGES = 1 << 16

#: Plane bits per row block of the plane scans: the CSR derivation
#: unpacks a block's bits (one byte each), and the nesting check of
#: :meth:`IndexGraph.validate` holds a block's words (512 KiB), so
#: neither allocates in proportion to the planes.
_BLOCK_BITS = 1 << 22

# Below this k a scalar sparse BFS beats the vectorized full-array BFS
# for the per-source serial builder (tiny k-hop balls).
_SCALAR_BFS_MAX_K = 3


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


class IndexGraph:
    """Immutable index graph — the §4.3 physical layout in memory.

    Use the classmethods (:meth:`from_triples`, :meth:`from_rows`,
    :meth:`from_levels`) rather than the low-level constructor; they
    sort, quantize, and validate.  The constructor installs its arrays
    verbatim — the zero-copy loader
    (:func:`~repro.core.serialize.load_mmap`) passes it memory-mapped,
    read-only views and owns their integrity.  Every derived view built
    later (keys, int64 weights, link matrices, the CSR of a plane-form
    graph) is copy-on-build.

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
        "weight_base",
        "_indptr",
        "_targets",
        "_packed",
        "_levels",
        "_edges",
        "_weights64",
        "_keys",
        "_store",
        "_row_pos",
        "_probe",
        "_probes",
        "_matrices",
    )

    def __init__(
        self,
        n: int,
        cover_ids: np.ndarray,
        indptr: np.ndarray | None,
        targets: np.ndarray | None,
        packed: PackedIntArray | None,
        weight_base: int,
    ) -> None:
        self.n = int(n)
        self.cover_ids = cover_ids
        self._indptr = indptr
        self._targets = targets
        self._packed = packed
        self.weight_base = int(weight_base)
        # The plane form: the ≤ weight_base + i bit plane at index i.
        self._levels: list[np.ndarray] | None = None
        self._edges: int | None = None
        self._weights64: np.ndarray | None = None
        self._keys: np.ndarray | None = None
        self._store: KeyedRowStore | None = None
        self._row_pos: np.ndarray | None = None
        self._probe: tuple | None = None
        self._probes: dict[int | None, tuple] = {}
        self._matrices: dict[tuple[int | None, bool], np.ndarray] = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_levels(
        cls,
        n: int,
        cover_ids: np.ndarray,
        base: int,
        planes: list[np.ndarray],
    ) -> "IndexGraph":
        """The plane form: nested planes at the budgets ``base … top``.

        ``cover_ids`` is the strictly ascending cover table and
        ``planes[i]`` the ≤ ``base + i`` view, a ``(|S|, ceil(|S| / 64))``
        uint64 matrix in cover positions; the last plane (budget ``top =
        base + len(planes) - 1 >= 0``) holds every stored link.  A k-reach
        index passes base k-2 and its :func:`level_specs` planes (base 0
        and the presence plane for n-reach).  The arrays are installed
        verbatim (read-only mapped views included); only their shapes are
        checked here — :meth:`validate` checks their contents.  The CSR is
        derived on first use, with ``weight_base = base``.
        """
        shape = (len(cover_ids), words_for(len(cover_ids)))
        if (
            base + len(planes) < 1
            or any(p.shape != shape or p.dtype != np.uint64 for p in planes)
        ):
            raise ValueError(
                f"base {base} needs uint64 level planes of shape {shape} up "
                f"to a budget >= 0, got {[(p.dtype.str, p.shape) for p in planes]}"
            )
        ig = cls(n, cover_ids, None, None, None, base)
        ig._levels = list(planes)
        return ig

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
            # Silent last-wins merging would let the row bisect and the
            # keyed store disagree; fail loudly instead.
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

        Accepts any rows with ``.items()``.  Only tests and tools should
        need this; construction proper goes through :meth:`from_triples`.
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
    # The CSR (stored, or derived once from the level planes)
    # ------------------------------------------------------------------
    @property
    def indptr(self) -> np.ndarray:
        """Row offsets into :attr:`targets` (int64, ``|V_I| + 1``)."""
        if self._indptr is None:
            self._derive_csr()
        return self._indptr

    @property
    def targets(self) -> np.ndarray:
        """Edge targets, ascending within each row (int64)."""
        if self._targets is None:
            self._derive_csr()
        return self._targets

    @property
    def packed(self) -> PackedIntArray:
        """Weight codes ``w - weight_base`` aligned with :attr:`targets`."""
        if self._packed is None:
            self._derive_csr()
        return self._packed

    @property
    def levels(self) -> list[np.ndarray] | None:
        """The nested planes of the plane form, lowest budget first (see
        :meth:`from_levels`), or None for a CSR-form graph."""
        return None if self._levels is None else list(self._levels)

    @property
    def weight_bits(self) -> int:
        """Bits per packed weight code (read without deriving a CSR)."""
        if self._levels is not None:
            return bits_needed(len(self._levels))
        return self._packed.bits

    def _derive_csr(self) -> None:
        """Build the CSR of a plane-form graph, in row blocks.

        Row ``i``'s targets are the off-diagonal bits of the last plane,
        and a link's code ``w - weight_base`` is the number of lower
        planes that miss it — the codes the triple build packs.
        """
        planes = self._levels
        size = self.cover_size
        width = planes[0].shape[1] * 64
        step = max(1, _BLOCK_BITS // max(width, 1))
        counts = np.zeros(size + 1, dtype=np.int64)
        cols: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        codes: list[np.ndarray] = [np.empty(0, dtype=np.int64)]

        def bits(plane: np.ndarray, r0: int, r1: int) -> np.ndarray:
            block = np.ascontiguousarray(plane[r0:r1]).view(np.uint8)
            return np.unpackbits(block, axis=1, bitorder="little")

        for r0 in range(0, size, step):
            r1 = min(size, r0 + step)
            top = bits(planes[-1], r0, r1)
            rows = np.arange(r1 - r0)
            top[rows, rows + r0] = 0  # the handshake, not an edge
            hit = np.flatnonzero(top)
            counts[r0 + 1 : r1 + 1] = np.count_nonzero(top, axis=1)
            cols.append(hit % width)
            code = np.full(len(hit), len(planes) - 1, dtype=np.int64)
            for plane in planes[:-1]:
                code -= bits(plane, r0, r1).reshape(-1)[hit]
            codes.append(code)
        indptr = np.cumsum(counts)
        targets = self.cover_ids[np.concatenate(cols)].astype(np.int64)
        w = np.concatenate(codes)
        packed = PackedIntArray.from_numpy(w, bits=self.weight_bits)
        w += self.weight_base
        self._indptr, self._targets, self._packed = indptr, targets, packed
        self._weights64 = w

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

    def keyed(self) -> KeyedRowStore:
        """The keyed probe view over :meth:`keys` and :meth:`weights64`
        (zero-copy), built on first use and shared by every answerer
        over this graph."""
        if self._store is None:
            self._store = KeyedRowStore(self.keys(), self.weights64(), self.n)
        return self._store

    def lookup(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Stored weights of aligned ``(u, v)`` vertex arrays, with
        :data:`~repro.core.batch.MISSING_WEIGHT` where no link is stored
        (the ``u == v`` handshake included).

        The CSR form reads its :meth:`keyed` store.  The plane form
        derives no CSR: a link's weight is ``weight_base`` plus the
        number of lower planes that miss it, one bit probe per plane.
        """
        if self._levels is None:
            return self.keyed().lookup(u, v)
        pos = self.row_pos()
        pu, pv = pos[u], pos[v]
        at = np.flatnonzero((pu >= 0) & (pv >= 0) & (u != v))
        pu, pv = pu[at], pv[at]
        hit = probe_bits(self._levels[-1], pu, pv)
        at, pu, pv = at[hit], pu[hit], pv[hit]
        top = self.weight_base + len(self._levels) - 1
        w = np.full(len(at), top, dtype=np.int64)
        for plane in self._levels[:-1]:
            w -= probe_bits(plane, pu, pv)
        out = np.full(len(u), MISSING_WEIGHT, dtype=np.int64)
        out[at] = w
        return out

    def row_pos(self) -> np.ndarray:
        """Dense vertex-id → row-index map (-1 for non-cover vertices)."""
        if self._row_pos is None:
            pos = np.full(self.n, -1, dtype=np.int64)
            pos[self.cover_ids] = np.arange(len(self.cover_ids), dtype=np.int64)
            self._row_pos = pos
        return self._row_pos

    def probe(self, budget: int | None = None) -> tuple:
        """``(within, weight, bridge)``, the scalar probes of every answerer
        at one ``budget`` (None: any stored link), built once per budget.

        ``within(u, v)``: whether the index links ``u != v`` within the
        budget.  ``weight(u, v)``: the stored weight of ``(u, v)``, ``u !=
        v``, or None.  ``bridge(outs, preds)``: Algorithm 2's Case 4, some
        ``u`` in ``outs`` linked to some ``v`` in ``preds`` within the
        budget, the ``u == v`` handshake included when the budget is ≥ 0.
        Ids must be valid vertices.  All are zero-copy, with no Python
        object per stored link: a byte of the budget's plane (the lowest
        plane holding the link, for ``weight``) or a bisect of ``u``'s CSR
        row over memoryviews.  Budgets past the longest link ``top`` share
        one probe, as do those below -1, so at most ``top + 3`` are kept.
        """
        probes = self._probes.get(budget)
        if probes is None:
            if self._probe is None:
                planes = self._levels is not None
                self._probe = self._plane_probe() if planes else self._csr_probe()
            top, build = self._probe
            key = top if budget is None or budget > top else max(budget, -1)
            probes = self._probes.get(key)
            if probes is None:
                probes = self._probes[key] = build(key)
            if budget is None:
                self._probes[None] = probes
        return probes

    def _plane_probe(self) -> tuple:
        """``(top, build)`` for :meth:`probe` over the planes, each read as
        its little-endian bytes: bit ``j`` of row ``i`` is bit ``j & 7`` of
        byte ``i * row_bytes + (j >> 3)``."""
        pos = self.row_pos().tolist()
        row_bytes = self._levels[0].shape[1] * 8
        views = [memoryview(p.view(np.uint8).reshape(-1)) for p in self._levels]
        base, last = self.weight_base, views[-1]

        def weight(u: int, v: int) -> int | None:
            pu = pos[u]
            pv = pos[v]
            if pu < 0 or pv < 0:
                return None
            at, bit = pu * row_bytes + (pv >> 3), pv & 7
            if not last[at] >> bit & 1:
                return None
            i = 0  # the planes nest: find the lowest one holding the link
            while not views[i][at] >> bit & 1:
                i += 1
            return base + i

        def build(budget: int) -> tuple:
            if budget < base:  # no link this short: only the handshake is left
                hand = budget >= 0
                return (
                    lambda u, v: False,
                    weight,
                    lambda outs, preds: hand and not set(preds).isdisjoint(outs),
                )
            view = views[budget - base]

            def within(u: int, v: int) -> bool:
                pu = pos[u]
                pv = pos[v]
                if pu < 0 or pv < 0:
                    return False
                return bool(view[pu * row_bytes + (pv >> 3)] >> (pv & 7) & 1)

            def bridge(outs, preds) -> bool:
                # A plane of budget >= 0 holds the diagonal, so a predecessor
                # that is itself an out-neighbor needs no separate test.
                mask = 0
                for v in preds:
                    pv = pos[v]
                    if pv >= 0:
                        mask |= 1 << pv
                if not mask:
                    return False
                for u in outs:
                    at = pos[u] * row_bytes  # negative off the cover
                    if at >= 0:
                        if int.from_bytes(view[at : at + row_bytes], "little") & mask:
                            return True
                return False

            return within, weight, bridge

        return base + len(views) - 1, build

    def _csr_probe(self) -> tuple:
        """``(top, build)`` for :meth:`probe` over the CSR: a bisect of
        ``u``'s row slice."""
        pos = self.row_pos().tolist()
        indptr = memoryview(self.indptr)
        targets = memoryview(self.targets)
        weights = memoryview(self.weights64())

        def weight(u: int, v: int) -> int | None:
            p = pos[u]
            if p < 0:
                return None
            hi = indptr[p + 1]
            i = bisect_left(targets, v, indptr[p], hi)
            return weights[i] if i < hi and targets[i] == v else None

        def build(limit: int) -> tuple:
            def within(u: int, v: int) -> bool:
                w = weight(u, v)
                return w is not None and w <= limit

            def bridge(outs, preds) -> bool:
                pred_set = set(preds)
                for u in outs:
                    if limit >= 0 and u in pred_set:
                        return True  # s -> u -> t
                    p = pos[u]
                    if p < 0:
                        continue
                    a, b = indptr[p], indptr[p + 1]
                    if b - a < len(pred_set):
                        # Scan the smaller row against the predecessor set.
                        for i in range(a, b):
                            if weights[i] <= limit and targets[i] in pred_set:
                                return True
                    else:
                        for v in pred_set:
                            if within(u, v):
                                return True
                return False

            return within, weight, bridge

        return int(self.weights64().max(initial=0)), build

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

        In the plane form a view is a stored plane (or derived from one,
        see :meth:`link_matrices`).  Otherwise each distinct ``(budget,
        diagonal)`` view is built once and cached (a small FIFO keeps the
        cache from growing without bound when a general-k oracle past the
        gate probes many budgets); size one view with
        :meth:`link_matrix_bytes` before building.  Several views are
        cheaper built together through :meth:`link_matrices`.
        """
        return self.link_matrices([(budget, diagonal)])[0]

    def link_matrices(
        self, specs: Iterable[tuple[int | None, bool]]
    ) -> list[np.ndarray]:
        """Several :meth:`link_matrix` views, built in one pass.

        ``specs`` lists ``(budget, diagonal)`` pairs; the views come back
        in the same order.  In the plane form a view is the plane of its
        budget itself (the last plane for ``None`` or any budget above
        it), never copied or cached; a view below the base is empty, and
        one whose diagonal the plane does not share gets it flipped on an
        uncached copy, so no view ever derives the CSR.  In the CSR form
        views are cached as :meth:`link_matrix` caches them, and the
        views not cached yet share one scatter over the CSR: every edge
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
        if self._levels is not None:
            return [self._plane_view(*key) for key in keys]
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

    def _plane_view(self, budget: int | None, diagonal: bool) -> np.ndarray:
        """One :meth:`link_matrices` view of the plane form."""
        top = len(self._levels) - 1
        i = top if budget is None else min(budget - self.weight_base, top)
        if i < 0:
            view, held = np.zeros(self._levels[0].shape, dtype=np.uint64), False
        else:
            view, held = self._levels[i], self.weight_base + i >= 0
        if diagonal != held:
            view = np.array(view)
            diag = np.arange(self.cover_size)
            view[diag, diag >> 6] ^= np.uint64(1) << (diag & 63).astype(np.uint64)
        return view

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

    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All edges as aligned ``(src, dst, weight)`` int64 arrays.

        The sorted-triple view :meth:`from_triples` consumes — letting a
        compaction merge clean base rows with overlay rows by masking and
        concatenating arrays, never looping per edge.
        """
        heads = np.repeat(self.cover_ids, np.diff(self.indptr))
        return heads, self.targets, self.weights64()

    def weight_of(self, u: int, v: int) -> int | None:
        """The stored weight of edge ``(u, v)``, or None if absent (the
        ``u == v`` handshake is not a stored edge).  Reads the
        :meth:`probe`: a bisect of the row slice, or of the nested planes."""
        if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
            return None
        return self.probe()[1](u, v)

    # ------------------------------------------------------------------
    # Introspection & conversion
    # ------------------------------------------------------------------
    @property
    def cover_size(self) -> int:
        """``|V_I|``."""
        return len(self.cover_ids)

    @property
    def edge_count(self) -> int:
        """``|E_I|`` — in the plane form, a popcount of the last plane
        less its diagonal (the handshake is not a stored edge)."""
        if self._edges is None:
            if self._levels is None:
                self._edges = len(self._targets)
            else:
                top = self._levels[-1]
                self._edges = int(np.bitwise_count(top).sum()) - self.cover_size
        return self._edges

    def weighted_edges(self) -> list[tuple[int, int, int]]:
        """All edges as ``(u, v, w)`` triples in sorted order."""
        heads = np.repeat(self.cover_ids, np.diff(self.indptr))
        return list(
            zip(heads.tolist(), self.targets.tolist(), self.weights64().tolist())
        )

    def validate(self) -> "IndexGraph":
        """Check the structural invariants; raise :class:`ValueError` if broken.

        The binary searches in :meth:`weight_of` and the batch engine's
        ``searchsorted`` silently miss edges when rows are unsorted, so
        anything installing externally-sourced arrays (the on-disk
        loader) must call this instead of trusting them.  The CSR checks
        are shared with :meth:`DiGraph.from_csr
        <repro.graph.digraph.DiGraph.from_csr>` via
        :func:`~repro.graph.digraph.validate_csr`; the plane form checks
        that its planes nest, carry the diagonal exactly where the budget
        admits the handshake and leave the padding bits clear.  Returns
        ``self`` for chaining.
        """
        cover = self.cover_ids
        if len(cover):
            if int(cover.min()) < 0 or int(cover.max()) >= self.n:
                raise ValueError(f"cover id out of range [0, {self.n})")
            if not bool(np.all(cover[1:] > cover[:-1])):
                raise ValueError("cover ids must be strictly ascending")
        if self._levels is not None:
            self._validate_levels()
            return self
        if len(self.indptr) != len(cover) + 1:
            raise ValueError("indptr length must be cover size + 1")
        validate_csr("index", self.n, self.indptr, self.targets)
        if len(self.packed) != len(self.targets):
            raise ValueError("weight array length must match the target count")
        return self

    def _validate_levels(self) -> None:
        """The plane form's invariants: nested planes, the whole diagonal
        in every plane of budget ≥ 0, nothing in a plane of negative
        budget, and zero padding past ``|V_I|``."""
        size = self.cover_size
        diag = np.arange(size)
        pad = np.uint64(0)
        if size % 64:
            pad = ~((np.uint64(1) << np.uint64(size % 64)) - np.uint64(1))
        step = max(1, _BLOCK_BITS // max(self._levels[0].shape[1] * 64, 1))
        below = None
        for budget, plane in enumerate(self._levels, start=self.weight_base):
            name = f"level plane <={budget}"
            if size and bool(np.any(plane[:, -1] & pad)):
                raise ValueError(f"{name} sets padding bits past |V_I|")
            on_diag = (plane[diag, diag >> 6] >> (diag & 63).astype(np.uint64)) & 1
            if budget < 0 and bool(np.any(plane)):
                raise ValueError(f"{name} must be empty")
            if budget >= 0 and not bool(np.all(on_diag)):
                raise ValueError(f"{name} must hold the whole diagonal")
            if below is not None and any(
                np.any(below[r : r + step] & ~plane[r : r + step])
                for r in range(0, size, step)
            ):
                raise ValueError(f"{name} must contain the plane below it")
            below = plane

    def csr_storage_bytes(self, weight_bits: int) -> int:
        """The paper's §4.3 storage model with ``weight_bits``-bit
        weights: 4-byte cover ids and offsets, 4-byte targets, the packed
        weights and an n-bit cover-membership bitmap for the O(1) case
        dispatch.  Reads :attr:`edge_count`, so a plane-form graph
        derives no CSR for it."""
        n_i, edges = self.cover_size, self.edge_count
        return (
            4 * n_i  # cover-vertex id table
            + 4 * (n_i + 1)  # offsets
            + 4 * edges  # targets
            + (edges * weight_bits + 7) // 8
            + (self.n + 7) // 8  # cover-membership bitmap
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
            f"|E_I|={self.edge_count}, bits={self.weight_bits})"
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


def cover_planes_blocked(
    graph: DiGraph, cover: Iterable[int], base: int, top: int | None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """``(cover_ids, planes)`` of the plane form (the in-gate builder).

    The nested ≤base … ≤top views straight from one blocked MS-BFS over
    in-edges (:func:`~repro.graph.traversal.blocked_reach_planes`),
    snapshotted after each of those levels; ``top=None`` gives the one
    presence plane, taken after exhaustion (pass ``base=0``).  A plane of
    negative budget is empty and every other one holds the diagonal:
    exactly the views :meth:`IndexGraph.link_matrices` scatters from the
    triple-built CSR of the same cover with weights floored at ``base``.
    """
    cover_ids = np.unique(np.fromiter((int(v) for v in cover), dtype=np.int64))
    depths = [None] if top is None else list(range(base, top + 1))
    return cover_ids, blocked_reach_planes(graph, cover_ids, depths)
