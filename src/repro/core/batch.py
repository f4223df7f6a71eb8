"""Shared kernels for the vectorized batch query engine.

The paper times every index on 1M random vertex pairs (§6.2.2); answering
them one at a time through Python loops leaves an order of magnitude on
the table.  This module holds the numpy building blocks the batch paths of
:class:`~repro.core.kreach.KReachIndex`,
:class:`~repro.core.hkreach.HKReachIndex` and the general-k oracle
share:

* :class:`KeyedRowStore` — the index's sorted ``u * n + v`` key array, so
  a *bulk* weight lookup is a single :func:`numpy.searchsorted` instead
  of per-pair dict probes.  It is taken zero-copy from the
  :class:`~repro.core.index_graph.IndexGraph` key/weight arrays; legacy
  nested-dict rows convert through :meth:`KeyedRowStore.from_rows`.
* :func:`gather_segments` — concatenate the CSR adjacency lists of a
  vertex array in O(f + t) numpy work, tagging every neighbor with the
  position of the query pair that owns it.  This is what replaces the
  per-pair Case-2/3 neighbor scans.
* :func:`case4_bitset_join` — the bitset-join Case-4 engine: both sides
  of the ``outNei(s) × inNei(t)`` bridge collapse to cover-position
  bitsets (``inNei(t)`` packed directly, ``outNei(s)`` OR-folded through
  the index's :meth:`~repro.core.index_graph.IndexGraph.link_matrix`
  rows), and the per-pair verdict is one word-wise AND-any.  Celebrity
  vertices cost their degree in word operations instead of a
  materialized cross product, so no pair ever needs a scalar spill.
* :func:`plan_cross_products` — chunked materialization of the per-pair
  ``outNei(s) × inNei(t)`` cross products Case 4 bridges over, with a
  bound on transient memory: pairs whose cross product alone exceeds the
  chunk budget are returned separately so callers can fall back to the
  scalar (early-exiting) path for those few hub×hub queries.  This is
  the fallback engine when the bitset matrix exceeds its memory budget.

All kernels operate on dense int64 vertex ids; booleans come back as
``np.ndarray[bool]`` aligned with the caller's pair order.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Mapping

import numpy as np

from repro import faults, native
from repro import native_kernels as _nk
from repro.bitsets.ops import and_any, bit_matrix, or_rows_segmented

__all__ = [
    "MISSING_WEIGHT",
    "UNBOUNDED_BUDGET",
    "KeyedRowStore",
    "as_pair_array",
    "as_pair_arrays",
    "as_vertex_pair",
    "coalesce_pairs",
    "gather_segments",
    "segment_any",
    "case4_bitset_join",
    "plan_cross_products",
    "edge_keys",
    "has_edge_batch",
    "case_codes",
]

#: Sentinel weight returned by :meth:`KeyedRowStore.lookup` for absent
#: edges.  Larger than any real weight *and* any budget (including
#: :data:`UNBOUNDED_BUDGET`), so ``weight <= budget`` is False for misses
#: without a separate mask.
MISSING_WEIGHT = np.int64(1) << 62

#: Budget standing in for "no hop bound" (the k=None modes).  Any stored
#: weight compares ``<=`` it; :data:`MISSING_WEIGHT` does not.
UNBOUNDED_BUDGET = np.int64(1) << 61


def as_pair_array(pairs: object, n: int) -> np.ndarray:
    """Validate a batch of (s, t) pairs as one ``(m, 2)`` int64 array.

    Accepts anything :func:`numpy.asarray` turns into an ``(m, 2)`` integer
    array (lists of tuples included).  Empty inputs yield a ``(0, 2)``
    array.  Raises :class:`ValueError` on non-integer ids, malformed
    shapes, or any vertex id outside ``[0, n)`` — same contract as the
    scalar queries.
    """
    arr = np.asarray(pairs)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.dtype.kind not in "iu":
        raise ValueError(
            f"pairs must be integer vertex ids, got dtype {arr.dtype}"
        )
    arr = arr.astype(np.int64, copy=False)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"pairs must be an (m, 2) array, got shape {arr.shape}")
    # One reduction checks both bounds: negative ids read as huge uint64.
    if int(arr.view(np.uint64).max()) >= n:
        raise ValueError(f"query vertex out of range [0, {n})")
    return arr


def as_vertex_pair(s: object, t: object, n: int) -> tuple[int, int]:
    """Validate one scalar (s, t) query as two Python ints in ``[0, n)``.

    Python and numpy integers (bools included) pass; any other type (a
    float, a string) or an id outside ``[0, n)`` raises
    :class:`ValueError` — :func:`as_pair_array`'s contract for one pair.
    """
    if not isinstance(s, (int, np.integer)) or not isinstance(t, (int, np.integer)):
        raise ValueError(
            f"query vertices must be integer ids, got {type(s).__name__} "
            f"and {type(t).__name__}"
        )
    s, t = int(s), int(t)
    if not 0 <= s < n or not 0 <= t < n:
        raise ValueError(f"query vertex out of range [0, {n})")
    return s, t


def as_pair_arrays(pairs: object, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate a batch of (s, t) pairs (see :func:`as_pair_array`) and
    split it into int64 columns; empty inputs yield two length-0 arrays."""
    arr = as_pair_array(pairs, n)
    return np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])


def coalesce_pairs(
    s: np.ndarray, t: np.ndarray, n: int, *, codes: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicate aligned (s, t) pair columns, optionally case-grouping.

    Returns ``(us, ut, inverse)`` where ``(us, ut)`` lists each distinct
    pair once and ``(s[i], t[i]) == (us[inverse[i]], ut[inverse[i]])`` —
    so a batch engine runs its kernels over the distinct pairs and
    scatters the verdicts back to input order with one fancy index.
    Repeated-pair-heavy workloads (the §1 celebrity crossfire, where the
    same hub×hub pairs recur constantly) stop paying the kernels once per
    occurrence.

    ``codes`` (per-pair small non-negative ints, e.g. the Algorithm-2
    case codes) additionally orders the distinct pairs by code first, so
    each downstream per-case kernel reads one contiguous, cache-friendly
    block; the grouping rides the same single sort as the dedup.  It is
    skipped when ``code * n²`` could overflow the fused int64 sort key
    (graphs beyond ~10⁹ vertices).

    >>> s = np.array([3, 0, 3]); t = np.array([1, 2, 1])
    >>> us, ut, inv = coalesce_pairs(s, t, 4)
    >>> us.tolist(), ut.tolist(), inv.tolist()
    ([0, 3], [2, 1], [1, 0, 1])
    """
    s = np.asarray(s, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    stride = np.int64(n) * np.int64(n)
    keys = s * np.int64(n) + t
    grouped = (
        codes is not None
        and len(s)
        and n
        and n * n * (int(np.max(codes)) + 1) < 2**63
    )
    if grouped:
        keys = np.asarray(codes, dtype=np.int64) * stride + keys
    uniq, inverse = np.unique(keys, return_inverse=True)
    if grouped:
        uniq = uniq % stride
    return uniq // np.int64(n), uniq % np.int64(n), inverse


class KeyedRowStore:
    """Sorted ``u * n + v`` key + weight arrays for bulk weight lookup.

    The canonical construction path is **zero-copy**: an
    :class:`~repro.core.index_graph.IndexGraph` hands its (already sorted)
    key and weight arrays straight in.  Unsorted inputs are argsorted
    once; :meth:`from_rows` converts legacy ``{u: {v: w}}`` mappings.

    Parameters
    ----------
    keys:
        int64 ``u * n + v`` edge keys.
    weights:
        int64 stored weights aligned with ``keys``.
    n:
        Vertex-id universe size (the key stride).

    Examples
    --------
    >>> store = KeyedRowStore.from_rows({0: {2: 1, 3: 2}, 3: {0: 1}}, n=4)
    >>> store.lookup(np.array([0, 0, 3]), np.array([3, 1, 0])).tolist()
    [2, 4611686018427387904, 1]
    """

    __slots__ = ("_keys", "_weights", "_n")

    def __init__(self, keys: np.ndarray, weights: np.ndarray, n: int) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        if len(keys) != len(weights):
            raise ValueError("keys and weights must be aligned")
        if len(keys) > 1 and not bool(np.all(keys[:-1] < keys[1:])):
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            weights = weights[order]
        self._keys = keys
        self._weights = weights
        self._n = n

    @classmethod
    def from_rows(
        cls, rows: Mapping[int, Mapping[int, int]], n: int
    ) -> "KeyedRowStore":
        """Conversion helper: flatten legacy ``{u: {v: weight}}`` rows.

        Rows flatten through chained ``fromiter`` columns, in ascending
        ``u``; the constructor sorts the keys if a row lists its targets
        out of order.
        """
        ordered = sorted(rows.items(), key=lambda item: item[0])
        counts = np.fromiter(
            (len(row) for _, row in ordered), dtype=np.int64, count=len(ordered)
        )
        total = int(counts.sum())
        targets = np.fromiter(
            chain.from_iterable(row.keys() for _, row in ordered),
            dtype=np.int64,
            count=total,
        )
        weights = np.fromiter(
            chain.from_iterable(row.values() for _, row in ordered),
            dtype=np.int64,
            count=total,
        )
        sources = np.repeat(
            np.fromiter((u for u, _ in ordered), dtype=np.int64, count=len(ordered)),
            counts,
        )
        return cls(sources * np.int64(n) + targets, weights, n)

    def __len__(self) -> int:
        return len(self._keys)

    def lookup(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Stored weights for aligned (u, v) arrays.

        Returns int64 weights with :data:`MISSING_WEIGHT` where the index
        has no (u, v) edge.  One binary search per element, no Python loop.
        """
        if len(u) == 0:
            return np.empty(0, dtype=np.int64)
        if faults.ENABLED:
            faults.fire("batch.kernel_slow")
        keys = self._keys
        if len(keys) == 0:
            return np.full(len(u), MISSING_WEIGHT, dtype=np.int64)
        return native.kernel("keyed_lookup")(
            keys,
            self._weights,
            np.asarray(u, dtype=np.int64),
            np.asarray(v, dtype=np.int64),
            np.int64(self._n),
            MISSING_WEIGHT,
        )


def gather_segments(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated adjacency lists of ``vertices`` with owner tags.

    Returns ``(neighbors, owner, counts)`` where ``neighbors[i]`` is a
    neighbor of ``vertices[owner[i]]`` and ``counts[j]`` is the degree of
    ``vertices[j]``.  Pure numpy: O(f + t) for f vertices with t adjacency
    entries in total.
    """
    starts = indptr[vertices].astype(np.int64)
    counts = (indptr[vertices + 1] - indptr[vertices]).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), counts
    offsets = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    positions = np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)
    owner = np.repeat(np.arange(len(vertices), dtype=np.int64), counts)
    return indices[positions].astype(np.int64), owner, counts


def segment_any(hits: np.ndarray, owner: np.ndarray, num_segments: int) -> np.ndarray:
    """Per-segment OR-reduction: ``out[j] = any(hits[owner == j])``."""
    out = np.zeros(num_segments, dtype=bool)
    if len(hits):
        out[:] = np.bincount(owner[hits], minlength=num_segments) > 0
    return out


def edge_keys(graph) -> np.ndarray:
    """The graph's edges flattened to sorted ``u * n + v`` int64 keys.

    Because ``out_indices`` is sorted within each vertex's CSR slice, the
    flattened keys are globally sorted with no extra sort.  O(n + m) to
    build — callers answering many edge batches against the same
    (immutable) graph should build once and pass the result to
    :func:`has_edge_batch`.
    """
    heads = np.repeat(
        np.arange(graph.n, dtype=np.int64),
        np.diff(graph.out_indptr).astype(np.int64),
    )
    return heads * graph.n + graph.out_indices.astype(np.int64)


def has_edge_batch(
    graph, s: np.ndarray, t: np.ndarray, *, keys: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized :meth:`~repro.graph.digraph.DiGraph.has_edge`.

    One binary search over the sorted edge keys per probe.  ``keys`` is
    the cached result of :func:`edge_keys`; omitted, it is rebuilt here.
    """
    if len(s) == 0:
        return np.zeros(0, dtype=bool)
    if keys is None:
        keys = edge_keys(graph)
    if len(keys) == 0:
        return np.zeros(len(s), dtype=bool)
    probe = s * np.int64(graph.n) + t
    pos = np.searchsorted(keys, probe)
    pos_c = np.minimum(pos, len(keys) - 1)
    return keys[pos_c] == probe


def case_codes(s_in: np.ndarray, t_in: np.ndarray) -> np.ndarray:
    """Algorithm-2/3 case numbers (1–4) from aligned cover-flag arrays."""
    case = np.full(len(s_in), 4, dtype=np.uint8)
    case[t_in] = 3
    case[s_in] = 2
    case[s_in & t_in] = 1
    return case


def case4_bitset_join(
    graph,
    s: np.ndarray,
    t: np.ndarray,
    matrix: np.ndarray,
    row_pos: np.ndarray,
    *,
    max_words: int = 1 << 23,
) -> np.ndarray:
    """Case-4 verdicts for aligned uncovered (s, t) arrays via bitset join.

    ``matrix`` is a cover-local link matrix (see
    :meth:`~repro.core.index_graph.IndexGraph.link_matrix`) already
    thresholded at the caller's budget, with the diagonal set iff the
    ``u == v`` handshake satisfies that budget; ``row_pos`` maps vertex
    ids to cover positions (-1 outside the cover).

    The identity this rides on: *some* out-neighbor ``u`` of ``s`` links
    to *some* in-neighbor ``v`` of ``t`` iff the union of the link rows
    of ``outNei(s)`` intersects the position set of ``inNei(t)`` — and
    both factors depend on one endpoint only, so they are computed once
    per **distinct** endpoint and shared across the batch.  Cost is
    O(deg) word operations per distinct endpoint plus one AND-any per
    pair; no cross product is ever materialized and no pair falls back
    to a scalar walk.  Self-loop neighbors of an uncovered endpoint are
    the only non-cover entries either list can contain and are skipped.
    """
    out = np.zeros(len(s), dtype=bool)
    words = matrix.shape[1] if matrix.ndim == 2 else 0
    if len(s) == 0 or words == 0:
        return out
    if faults.ENABLED:
        faults.fire("batch.kernel_slow")
    cover_size = matrix.shape[0]
    uniq_s, s_inv = np.unique(s, return_inverse=True)
    uniq_t, t_inv = np.unique(t, return_inverse=True)

    nbrs, owner, _ = gather_segments(graph.in_indptr, graph.in_indices, uniq_t)
    pos = row_pos[nbrs]
    keep = pos >= 0
    tbits = bit_matrix(owner[keep], pos[keep], len(uniq_t), cover_size)

    nbrs, owner, _ = gather_segments(graph.out_indptr, graph.out_indices, uniq_s)
    pos = row_pos[nbrs]
    keep = pos >= 0
    ubits = or_rows_segmented(
        matrix, pos[keep], owner[keep], len(uniq_s), max_words=max_words
    )

    fn, tier = native.resolve("gather_and_any")
    if tier != "numpy":
        return fn(
            ubits,
            tbits,
            s_inv.astype(np.int64, copy=False),
            t_inv.astype(np.int64, copy=False),
        )
    # numpy tier: chunk the gathered (pairs, words) temporaries to max_words.
    step = max(1, max_words // max(1, words))
    for start in range(0, len(s), step):
        stop = start + step
        out[start:stop] = and_any(ubits[s_inv[start:stop]], tbits[t_inv[start:stop]])
    return out


def plan_cross_products(
    graph, s: np.ndarray, t: np.ndarray, *, chunk: int = 1 << 21
) -> tuple[np.ndarray, "Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]"]:
    """Chunk the per-pair ``outNei(s) × inNei(t)`` cross products.

    Returns ``(big, chunks)``:

    * ``big`` — positions (into ``s``/``t``) of pairs whose *single* cross
      product exceeds ``chunk`` elements.  Materializing a hub×hub product
      can dwarf the whole batch, so those pairs are left for the caller's
      scalar path (which short-circuits and never builds the product).
    * ``chunks`` — an iterator of ``(sel, u, v, owner)`` blocks covering
      every other pair with a non-empty product, where ``sel`` are pair
      positions, ``(u[i], v[i])`` enumerates the products and
      ``owner[i]`` indexes into ``sel``.  Each block holds at most about
      ``chunk`` product elements.
    """
    out_counts = (graph.out_indptr[s + 1] - graph.out_indptr[s]).astype(np.int64)
    in_counts = (graph.in_indptr[t + 1] - graph.in_indptr[t]).astype(np.int64)
    cross = out_counts * in_counts
    big = np.flatnonzero(cross > chunk)
    normal = np.flatnonzero((cross > 0) & (cross <= chunk))

    def chunks() -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        sizes = cross[normal]
        cum = np.cumsum(sizes)
        start = 0
        while start < len(normal):
            base = int(cum[start - 1]) if start else 0
            stop = int(np.searchsorted(cum, base + chunk, side="left")) + 1
            stop = min(len(normal), max(stop, start + 1))
            sel = normal[start:stop]
            yield (sel, *_cross_block(graph, s[sel], t[sel]))
            start = stop

    return big, chunks()


def _cross_block(
    graph, s: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialize ``outNei(s[j]) × inNei(t[j])`` for every j, flattened.

    Every pair here is known to have a non-empty product.  For pair j with
    out-degree ``oc[j]`` and in-degree ``ic[j]``, the block lists each
    out-neighbor ``ic[j]`` times against the cycled in-neighbor list, so
    ``(u[i], v[i])`` ranges over the full product.
    """
    oc = (graph.out_indptr[s + 1] - graph.out_indptr[s]).astype(np.int64)
    ic = (graph.in_indptr[t + 1] - graph.in_indptr[t]).astype(np.int64)
    cross = oc * ic
    total = int(cross.sum())
    outs, _, _ = gather_segments(graph.out_indptr, graph.out_indices, s)
    u = np.repeat(outs, np.repeat(ic, oc))
    owner = np.repeat(np.arange(len(s), dtype=np.int64), cross)
    offsets = np.zeros(len(s), dtype=np.int64)
    np.cumsum(cross[:-1], out=offsets[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, cross)
    in_starts = graph.in_indptr[t].astype(np.int64)
    v = graph.in_indices[
        np.repeat(in_starts, cross) + within % np.repeat(ic, cross)
    ].astype(np.int64)
    return u, v, owner


# ----------------------------------------------------------------------
# Native-tier registration (see repro.native).
# ----------------------------------------------------------------------

def _gather_and_any_numpy(
    ubits: np.ndarray, tbits: np.ndarray, s_idx: np.ndarray, t_idx: np.ndarray
) -> np.ndarray:
    """Numpy twin of :func:`repro.native_kernels.gather_and_any`."""
    if len(s_idx) == 0 or ubits.shape[1] == 0:
        return np.zeros(len(s_idx), dtype=bool)
    return np.any(ubits[s_idx] & tbits[t_idx], axis=1)


def _keyed_lookup_numpy(keys, weights, u, v, n, missing):
    """Numpy twin of :func:`repro.native_kernels.keyed_lookup`."""
    probe = u * n + v
    pos = np.searchsorted(keys, probe)
    pos_c = np.minimum(pos, len(keys) - 1)
    found = keys[pos_c] == probe
    return np.where(found, weights[pos_c], missing)


def _gather_and_any_sample():
    ubits = np.array([[0b0110, 0], [0, 1 << 9]], dtype=np.uint64)
    tbits = np.array([[0b0100, 0], [0b0001, 0], [0, 1 << 9]], dtype=np.uint64)
    s_idx = np.array([0, 0, 1, 1], dtype=np.int64)
    t_idx = np.array([0, 1, 1, 2], dtype=np.int64)  # hit, miss, miss, hit
    return ubits, tbits, s_idx, t_idx


def _keyed_lookup_sample():
    keys = np.array([2, 7, 11, 30], dtype=np.int64)  # u*n+v with n=6
    weights = np.array([1, 3, 2, 5], dtype=np.int64)
    u = np.array([0, 1, 1, 5, 3], dtype=np.int64)
    v = np.array([2, 1, 5, 0, 3], dtype=np.int64)  # hit, hit, hit, hit, miss
    return keys, weights, u, v, np.int64(6), MISSING_WEIGHT


native.register(
    "gather_and_any",
    numpy_impl=_gather_and_any_numpy,
    python_impl=_nk.gather_and_any,
    parallel=True,
    sample=_gather_and_any_sample,
)
native.register(
    "keyed_lookup",
    numpy_impl=_keyed_lookup_numpy,
    python_impl=_nk.keyed_lookup,
    parallel=True,
    sample=_keyed_lookup_sample,
)
