"""Breadth-first traversal kernels.

Every index in this package is built from (possibly bounded) BFS sweeps, and
the online baselines in :mod:`repro.baselines.bfs` answer queries with
bounded BFS directly, so these kernels are the hot path of the whole
reproduction.  Two implementations are provided:

* :func:`bfs_distances` — level-synchronous, vectorized over numpy frontier
  arrays.  Used for index construction, where each sweep may touch a large
  fraction of the graph.
* :func:`reaches_within_bfs` / :func:`bounded_neighborhood` — scalar,
  early-exiting deque versions.  Used at query time, where the expected
  frontier is tiny and numpy call overhead would dominate.

All functions take ``direction='out'`` (follow edges forward) or
``direction='in'`` (follow edges backward, i.e. BFS on the transpose).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro import native
from repro import native_kernels as _nk
from repro.graph.digraph import DiGraph

__all__ = [
    "gather_neighbors",
    "bfs_distances",
    "bfs_distances_blocked",
    "bfs_distances_scalar",
    "blocked_reach_planes",
    "blocked_ball_probe",
    "bulk_reaches_within",
    "reachable_set",
    "reaches_within_bfs",
    "reaches_within_small",
    "bidirectional_reaches_within",
    "bounded_neighborhood",
]

UNREACHED = -1


def _csr(g: DiGraph, direction: str) -> tuple[np.ndarray, np.ndarray]:
    """The (indptr, indices) pair for the requested direction."""
    if direction == "out":
        return g.out_indptr, g.out_indices
    if direction == "in":
        return g.in_indptr, g.in_indices
    raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")


def gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """All neighbors of the vertices in ``frontier``, concatenated.

    Vectorized gather: for CSR ``(indptr, indices)`` and a frontier of ``f``
    vertices whose adjacency lists hold ``t`` entries in total, this runs in
    O(f + t) numpy work with no Python-level loop.
    """
    starts = indptr[frontier]
    counts = (indptr[frontier + 1] - starts).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    # positions[i] = starts[j] + (i - cum_counts[j]) for the j-th frontier vertex
    cum = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=cum[1:])
    positions = np.repeat(starts - cum, counts) + np.arange(total, dtype=np.int64)
    return indices[positions]


def bfs_distances(
    g: DiGraph,
    source: int,
    *,
    k: int | None = None,
    direction: str = "out",
) -> np.ndarray:
    """Vectorized BFS distances from ``source``.

    Returns an ``int32`` array ``dist`` of length ``g.n`` with
    ``dist[v] = d(source, v)`` for vertices within ``k`` hops (all reachable
    vertices when ``k`` is None) and :data:`UNREACHED` (-1) elsewhere.
    ``dist[source]`` is 0.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range [0, {g.n})")
    if k is not None and k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    indptr, indices = _csr(g, direction)
    dist = np.full(g.n, UNREACHED, dtype=np.int32)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while len(frontier):
        if k is not None and level >= k:
            break
        nxt = gather_neighbors(indptr, indices, frontier)
        if not len(nxt):
            break
        nxt = nxt[dist[nxt] == UNREACHED]
        if not len(nxt):
            break
        nxt = np.unique(nxt)
        level += 1
        dist[nxt] = level
        frontier = nxt.astype(np.int64)
    return dist


#: A level that traverses at least ``n / _SCATTER_SHARE`` edges merges
#: its frontier by scatter-OR into the vertex-indexed scratch (its O(n)
#: ``flatnonzero`` is then cheaper than sorting every traversed edge);
#: smaller levels keep the sort merge.  Calibrated on uniform random
#: neighbor streams, numpy 2.4, 2-vCPU host: at F = n/8 the two merges
#: tie for n = 3 000–10 000 and the scatter wins 1.5–2.1x for n = 10^5
#: to 10^6; at F = n the scatter wins 4–6x.  End to end the sort side
#: pays on large sparse graphs: a 6-reach build of a 90 000-vertex road
#: lattice (every level below n/32) took 2.9 s, against 4.8 s with
#: scatter only.
_SCATTER_SHARE = 8


def _or_group(vertices: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """OR the uint64 masks of duplicate vertices together.

    Returns ``(unique_vertices, ored_masks)`` with vertices ascending:
    one argsort plus one ``bitwise_or.reduceat`` (the sort merge of
    :func:`_expand_frontier_numpy`).
    """
    order = np.argsort(vertices, kind="stable")
    sv = vertices[order]
    sm = masks[order]
    new_group = np.empty(len(sv), dtype=bool)
    new_group[0] = True
    np.not_equal(sv[1:], sv[:-1], out=new_group[1:])
    bounds = np.flatnonzero(new_group)
    return sv[bounds], np.bitwise_or.reduceat(sm, bounds)


def _expand_frontier_numpy(
    indptr: np.ndarray,
    indices: np.ndarray,
    front_v: np.ndarray,
    front_m: np.ndarray,
    visited: np.ndarray,
    next_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One level of blocked MS-BFS: gather, OR-merge, novelty filter.

    Numpy twin of :func:`repro.native_kernels.expand_frontier`: returns
    the newly reached ``(nv, nm)`` with ``nv`` ascending and ``visited``
    untouched (the caller commits after emitting).  A level traversing
    at least ``n / _SCATTER_SHARE`` edges merges as the native kernel
    does: ``bitwise_or.at`` into the all-zeros vertex-indexed scratch
    ``next_mask``, whose nonzero entries are the reached vertices, then
    zeroed again.  A smaller level sorts its edges instead
    (:func:`_or_group`), which costs no O(n) scan.
    """
    starts = indptr[front_v].astype(np.int64)
    counts = (indptr[front_v + 1] - indptr[front_v]).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=np.uint64)
    offsets = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    positions = (
        np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)
    )
    nbrs = indices[positions].astype(np.int64)
    masks = np.repeat(front_m, counts)
    if total * _SCATTER_SHARE < len(next_mask):
        nv, nm = _or_group(nbrs, masks)
    else:
        np.bitwise_or.at(next_mask, nbrs, masks)
        nv = np.flatnonzero(next_mask)
        nm = next_mask[nv]
        next_mask[nv] = 0
    nm &= ~visited[nv]
    fresh = nm != 0
    return nv[fresh], nm[fresh]


def _resolve_expand(n: int):
    """The active frontier-expansion kernel plus its scratch buffer: a
    vertex-indexed all-zeros uint64 accumulator, allocated once per
    public call (not per level), which every tier's kernel restores to
    zeros before returning."""
    fn, _ = native.resolve("expand_frontier")
    return fn, np.zeros(n, dtype=np.uint64)


def bfs_distances_blocked(
    g: DiGraph,
    sources: np.ndarray,
    *,
    k: int | None = None,
    direction: str = "out",
    emit: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bit-parallel multi-source BFS emitting ``(src, dst, dist)`` triples.

    MS-BFS-style blocked traversal: sources are processed 64 per sweep,
    each owning one bit of a uint64 mask.  ``visited`` is a single uint64
    per vertex and a whole block's frontier expands through the CSR in a
    few vectorized numpy operations per level (gather, OR-merge,
    novelty mask) — the per-sweep cost is shared by all 64 sources, which
    is what makes Algorithm-1 construction scale with the hardware instead
    of with ``|S|`` Python-level BFS runs.

    Returns three aligned int64 arrays ``(src, dst, dist)`` with one
    triple per (source, reached vertex) pair where ``1 <= dist <= k``
    (``k=None`` means unbounded).  Duplicate sources are collapsed — each
    distinct source yields its triples exactly once.  ``emit`` optionally
    restricts the *reported* vertices to a boolean mask over vertex ids
    (traversal still crosses non-emitted vertices); index construction
    passes the cover membership mask here.  A source never reports
    itself.

    Triples come back in strictly ascending ``(src, dst)`` order — the
    row order of :meth:`IndexGraph.from_triples
    <repro.core.index_graph.IndexGraph.from_triples>`, which then sorts
    nothing.  Each block keeps its levels' hits, sorts them by vertex
    once (the levels are already-ascending runs) and decodes the masks
    source-major, so the sort follows the block's output size.
    """
    sources = np.unique(np.asarray(sources, dtype=np.int64))
    if len(sources) and (int(sources.min()) < 0 or int(sources.max()) >= g.n):
        raise ValueError(f"source out of range [0, {g.n})")
    if k is not None and k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    indptr, indices = _csr(g, direction)
    if emit is not None:
        emit = np.asarray(emit, dtype=bool)
        if len(emit) != g.n:
            raise ValueError(f"emit mask must have length {g.n}, got {len(emit)}")
    counts = np.zeros(len(sources), dtype=np.int64)  # triples per source
    out_dst: list[np.ndarray] = []
    out_dist: list[np.ndarray] = []
    expand, scratch = _resolve_expand(g.n)
    visited = np.zeros(g.n, dtype=np.uint64)
    for start in range(0, len(sources), 64):
        block = sources[start : start + 64]
        width = len(block)
        bit = np.uint64(1) << np.arange(width, dtype=np.uint64)
        if start:
            visited[:] = 0
        visited[block] = bit  # sources are unique, so plain assignment
        front_v, front_m = block, bit
        level = 0
        hits: list[np.ndarray] = []
        masks: list[np.ndarray] = []
        levels: list[int] = []
        while len(front_v) and (k is None or level < k):
            nv, nm = expand(indptr, indices, front_v, front_m, visited, scratch)
            if not len(nv):
                break
            visited[nv] |= nm
            level += 1
            if emit is None:
                hit_v, hit_m = nv, nm
            else:
                sel = emit[nv]
                hit_v, hit_m = nv[sel], nm[sel]
            if len(hit_v):
                hits.append(hit_v)
                masks.append(hit_m)
                levels.append(level)
            front_v, front_m = nv, nm
        if not hits:
            continue
        # A vertex reached at several levels carries disjoint source bits
        # in each, so once the hits are sorted by vertex every source
        # sees its targets strictly ascending.
        hit_v = np.concatenate(hits)
        order = np.argsort(hit_v, kind="stable")
        hit_v = hit_v[order]
        hit_m = np.concatenate(masks)[order]
        hit_d = np.repeat(np.asarray(levels, dtype=np.int64), [len(h) for h in hits])
        hit_d = hit_d[order]
        # The masks' bytes transposed to (8, hits) unpack along axis 0
        # into (64, hits), row b holding source bit b, so the flat
        # nonzero walks source-major.
        bits = np.unpackbits(
            np.ascontiguousarray(hit_m.view(np.uint8).reshape(-1, 8).T),
            axis=0,
            bitorder="little",
        )[:width].view(bool)
        block_counts = counts[start : start + width]
        block_counts[:] = np.count_nonzero(bits, axis=1)
        rows = np.flatnonzero(bits)
        rows -= np.repeat(np.arange(0, bits.size, len(hit_v)), block_counts)
        out_dst.append(hit_v[rows])
        out_dist.append(hit_d[rows])
    if not out_dst:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    return (
        np.repeat(sources, counts),
        np.concatenate(out_dst),
        np.concatenate(out_dist),
    )


def blocked_reach_planes(
    g: DiGraph, sources: np.ndarray, depths: list[int | None]
) -> list[np.ndarray]:
    """Source-to-source reachability bit matrices at several hop depths.

    ``sources`` must be strictly ascending.  Plane ``p`` is a
    ``(len(sources), ceil(len(sources) / 64))`` uint64 matrix whose row
    ``i`` has bit ``j`` set iff ``sources[j]`` is within ``depths[p]``
    hops of ``sources[i]`` (``None``: reachable at all).  Distance 0
    counts, so every plane of depth ``>= 0`` holds the diagonal; a
    negative depth gives an empty plane.

    One blocked MS-BFS over **in-edges**, 64 sources per sweep: after
    level ``L``, bit ``b`` of ``visited[v]`` says ``v`` reaches source
    ``64 * block + b`` within ``L`` hops, so the gather
    ``visited[sources]`` is word ``block`` of every row of the ``≤ L``
    plane.  Each plane is that gather taken after its level (after
    exhaustion for ``None``); no ``(src, dst)`` pair is materialized.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if len(sources) > 1 and not bool(np.all(sources[:-1] < sources[1:])):
        raise ValueError("sources must be strictly increasing and unique")
    if len(sources) and (int(sources[0]) < 0 or int(sources[-1]) >= g.n):
        raise ValueError(f"source out of range [0, {g.n})")
    size = len(sources)
    planes = [
        np.zeros((size, (size + 63) >> 6), dtype=np.uint64) for _ in depths
    ]
    finite = [d for d in depths if d is not None]
    max_depth = None if len(finite) < len(depths) else max(finite, default=-1)
    if max_depth is not None and max_depth < 0:
        return planes
    indptr, indices = _csr(g, "in")
    expand, scratch = _resolve_expand(g.n)
    visited = np.zeros(g.n, dtype=np.uint64)

    def snapshot(word: int, taken) -> None:
        due = [plane for plane, depth in zip(planes, depths) if taken(depth)]
        if due:
            column = visited[sources]
            for plane in due:
                plane[:, word] = column

    for word, start in enumerate(range(0, size, 64)):
        block = sources[start : start + 64]
        front_m = np.uint64(1) << np.arange(len(block), dtype=np.uint64)
        if start:
            visited[:] = 0
        visited[block] = front_m
        front_v = block
        level = 0
        snapshot(word, lambda depth: depth == 0)
        while max_depth is None or level < max_depth:
            front_v, front_m = expand(
                indptr, indices, front_v, front_m, visited, scratch
            )
            if not len(front_v):
                break
            visited[front_v] |= front_m
            level += 1
            snapshot(word, lambda depth: depth == level)
        # The ball stopped growing at ``level``: every deeper plane
        # holds its final state.
        snapshot(word, lambda depth: depth is None or depth > level)
    return planes


def blocked_ball_probe(
    g: DiGraph,
    sources: np.ndarray,
    probe_src: np.ndarray,
    probe_dst: np.ndarray,
    probe_depth: np.ndarray,
    *,
    depths: np.ndarray | None = None,
    direction: str = "out",
    emit: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Bit-parallel bounded ball expansion with distance-checkpoint probes.

    The query-side sibling of :func:`bfs_distances_blocked`: 64 sources
    share each sweep, and on top of the level expansion it answers
    per-pair *probes* — "is ``probe_dst[i]`` within ``probe_depth[i]``
    hops of ``sources[probe_src[i]]``?" — by testing the destination's
    visited bit at exactly the probe's checkpoint level.  This is what
    replaces the per-pair scalar contact walks of the online BFS
    baselines and the (h,k)-reach batch engine.

    Parameters
    ----------
    sources:
        Strictly increasing int64 vertex ids (``np.unique`` output).
    probe_src / probe_dst / probe_depth:
        Aligned probe arrays: index into ``sources``, target vertex id,
        and hop checkpoint (use any value ``>= g.n`` for "unbounded").
    depths:
        Optional per-source expansion bound; each 64-source block expands
        to the max bound in the block (probe verdicts still honor their
        own checkpoints exactly).  ``None`` expands to exhaustion.  Every
        probe's checkpoint must be covered by its source's bound.
    emit:
        Optional bool mask over vertex ids; when given, the kernel also
        returns ``(src_pos, dst, dist)`` triples — ``src_pos`` **indexes
        into** ``sources`` — for every emitted vertex reached within the
        block's depth, exactly like :func:`bfs_distances_blocked` (a
        source never reports itself).  ``None`` emits nothing and lets a
        block stop early once all its probes are resolved.

    Returns ``(hits, (src_pos, dst, dist))`` with ``hits`` aligned to the
    probe arrays.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if len(sources) > 1 and not bool(np.all(sources[:-1] < sources[1:])):
        raise ValueError("sources must be strictly increasing and unique")
    if len(sources) and (int(sources[0]) < 0 or int(sources[-1]) >= g.n):
        raise ValueError(f"source out of range [0, {g.n})")
    indptr, indices = _csr(g, direction)
    probe_src = np.asarray(probe_src, dtype=np.int64)
    probe_dst = np.asarray(probe_dst, dtype=np.int64)
    probe_depth = np.asarray(probe_depth, dtype=np.int64)
    if emit is not None:
        emit = np.asarray(emit, dtype=bool)

    hits = np.zeros(len(probe_src), dtype=bool)
    out_src: list[np.ndarray] = []
    out_dst: list[np.ndarray] = []
    out_dist: list[np.ndarray] = []
    # Probes grouped by source block: one argsort, then per-block slices.
    probe_order = np.argsort(probe_src, kind="stable")
    sorted_src = probe_src[probe_order]
    expand, scratch = _resolve_expand(g.n)
    visited = np.zeros(g.n, dtype=np.uint64)

    for start in range(0, len(sources), 64):
        block = sources[start : start + 64]
        width = len(block)
        bit = np.uint64(1) << np.arange(width, dtype=np.uint64)
        if start:
            visited[:] = 0
        visited[block] = bit  # sources are unique, so plain assignment
        lo = int(np.searchsorted(sorted_src, start))
        hi = int(np.searchsorted(sorted_src, start + width))
        bp = probe_order[lo:hi]  # this block's probe positions
        shifts = (probe_src[bp] - start).astype(np.uint64)
        dsts = probe_dst[bp]
        budgets = probe_depth[bp]
        active = np.ones(len(bp), dtype=bool)
        if depths is None:
            block_depth = None
        else:
            block_depth = int(depths[start : start + width].max()) if width else 0

        def probe_pass(level: int) -> None:
            nonlocal active
            if not active.any():
                return
            idx = np.flatnonzero(active)
            got = (visited[dsts[idx]] >> shifts[idx]) & np.uint64(1) != 0
            within = got & (level <= budgets[idx])
            hits[bp[idx[within]]] = True
            done = within | (budgets[idx] <= level)
            active[idx[done]] = False

        probe_pass(0)
        front_v, front_m = block, bit
        level = 0
        while len(front_v) and (block_depth is None or level < block_depth):
            if emit is None and not active.any():
                break
            nv, nm = expand(indptr, indices, front_v, front_m, visited, scratch)
            if not len(nv):
                break
            visited[nv] |= nm
            level += 1
            if emit is not None:
                sel = emit[nv]
                hit_v, hit_m = nv[sel], nm[sel]
                if len(hit_v):
                    bits = np.unpackbits(
                        np.ascontiguousarray(hit_m).view(np.uint8).reshape(-1, 8),
                        axis=1,
                        bitorder="little",
                    )[:, :width]
                    rows, cols = np.nonzero(bits)
                    out_src.append(start + cols.astype(np.int64))
                    out_dst.append(hit_v[rows])
                    out_dist.append(np.full(len(rows), level, dtype=np.int64))
            probe_pass(level)
            front_v, front_m = nv, nm
        # The ball is exhausted (or depth-capped past every unresolved
        # checkpoint): remaining probes resolve against the final visited.
        if active.any():
            budgets[:] = level  # force resolution at the current level
            probe_pass(level)

    if not out_src:
        empty = np.empty(0, dtype=np.int64)
        triples = (empty, empty.copy(), empty.copy())
    else:
        triples = (
            np.concatenate(out_src),
            np.concatenate(out_dst),
            np.concatenate(out_dist),
        )
    return hits, triples


def bulk_reaches_within(
    g: DiGraph, s: np.ndarray, t: np.ndarray, k: int | None
) -> np.ndarray:
    """Vectorized ``d(s[i], t[i]) <= k`` over aligned pair arrays.

    The blocked-MS-BFS replacement for looping
    :func:`reaches_within_bfs`: pairs sharing a source share its ball
    expansion, 64 distinct sources share each sweep, and a block stops as
    soon as all its probes are resolved.  ``k=None`` means unbounded
    reachability.  Answers are bit-identical to the scalar loop.
    """
    out = s == t
    if k is not None and k <= 0:
        return out if k == 0 else np.zeros(len(s), dtype=bool)
    rest = np.flatnonzero(~out)
    if not len(rest):
        return out
    uniq, inv = np.unique(s[rest], return_inverse=True)
    cap = np.int64(g.n if k is None else k)
    depth = None if k is None else np.full(len(uniq), cap, dtype=np.int64)
    hits, _ = blocked_ball_probe(
        g,
        uniq,
        inv,
        t[rest],
        np.full(len(rest), cap, dtype=np.int64),
        depths=depth,
    )
    out[rest[hits]] = True
    return out


def bfs_distances_scalar(
    g: DiGraph,
    source: int,
    *,
    k: int | None = None,
    direction: str = "out",
) -> dict[int, int]:
    """Scalar BFS distances, returned sparsely as ``{vertex: distance}``.

    Preferable to :func:`bfs_distances` when the k-hop ball around
    ``source`` is expected to be much smaller than the graph, because it
    allocates proportionally to the ball rather than to ``g.n``.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range [0, {g.n})")
    if k is not None and k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    indptr, indices = _csr(g, direction)
    dist = {source: 0}
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if k is not None and du >= k:
            continue
        for v in indices[indptr[u] : indptr[u + 1]]:
            v = int(v)
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return dist


def reachable_set(g: DiGraph, source: int, *, direction: str = "out") -> set[int]:
    """All vertices reachable from ``source`` (including itself)."""
    dist = bfs_distances(g, source, direction=direction)
    return set(int(v) for v in np.flatnonzero(dist != UNREACHED))


def reaches_within_bfs(g: DiGraph, s: int, t: int, k: int | None) -> bool:
    """Ground-truth k-hop reachability by early-exiting BFS.

    This is the paper's "k-hop BFS" online baseline (µ-BFS in Table 7) and
    doubles as the oracle against which every index is tested.  ``k=None``
    means classic (unbounded) reachability.
    """
    if not 0 <= s < g.n or not 0 <= t < g.n:
        raise ValueError("query vertex out of range")
    if s == t:
        return k is None or k >= 0
    if k is not None and k <= 0:
        return False
    indptr, indices = g.out_indptr, g.out_indices
    seen = {s}
    frontier = [s]
    level = 0
    while frontier:
        if k is not None and level >= k:
            return False
        nxt: list[int] = []
        for u in frontier:
            for v in indices[indptr[u] : indptr[u + 1]]:
                v = int(v)
                if v == t:
                    return True
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
        level += 1
    return False


def bidirectional_reaches_within(g: DiGraph, s: int, t: int, k: int | None) -> bool:
    """k-hop reachability by meet-in-the-middle BFS.

    Expands the smaller of the forward ball around ``s`` and the backward
    ball around ``t`` one level at a time until the level budgets add up to
    ``k`` or the frontiers intersect.  Exponentially cheaper than one-sided
    BFS on expander-like graphs; used as an ablation baseline.
    """
    if not 0 <= s < g.n or not 0 <= t < g.n:
        raise ValueError("query vertex out of range")
    if s == t:
        return k is None or k >= 0
    if k is not None and k <= 0:
        return False
    if k is None:
        k = g.n  # a simple path never exceeds n-1 edges

    fwd_seen = {s}
    bwd_seen = {t}
    fwd_frontier = {s}
    bwd_frontier = {t}
    fwd_depth = 0
    bwd_depth = 0

    while fwd_frontier and bwd_frontier and fwd_depth + bwd_depth < k:
        # Expand the cheaper side (by current frontier adjacency volume).
        if len(fwd_frontier) <= len(bwd_frontier):
            nxt: set[int] = set()
            for u in fwd_frontier:
                for v in g.out_neighbors(u):
                    v = int(v)
                    if v in bwd_seen:
                        return True
                    if v not in fwd_seen:
                        fwd_seen.add(v)
                        nxt.add(v)
            fwd_frontier = nxt
            fwd_depth += 1
        else:
            nxt = set()
            for u in bwd_frontier:
                for v in g.in_neighbors(u):
                    v = int(v)
                    if v in fwd_seen:
                        return True
                    if v not in bwd_seen:
                        bwd_seen.add(v)
                        nxt.add(v)
            bwd_frontier = nxt
            bwd_depth += 1
    return False


def reaches_within_small(g: DiGraph, s: int, t: int, k: int) -> bool:
    """Specialized ``dist(s, t) <= k`` for tiny hop budgets (k <= 3).

    Pure neighbor-set algebra — never materializes a radius-2 ball:

    * k = 1: edge test;
    * k = 2: edge test or ``out(s) ∩ in(t)``;
    * k = 3: additionally, an edge between ``out(s)`` and ``in(t)``.

    On hub graphs this is the difference between O(deg) and an
    O(hub-ball) expansion: a hub's 2-hop ball can cover most of the
    graph, while its neighbor list is just its degree.
    """
    if s == t:
        return True
    if k <= 0:
        return False
    out_s = g.out_lists()[s]
    if t in out_s:
        return True
    if k == 1 or not out_s:
        return False
    in_t = g.in_lists()[t]
    if not in_t:
        return False
    in_t_set = set(in_t)
    if not in_t_set.isdisjoint(out_s):
        return True
    if k == 2:
        return False
    # k == 3: some edge (a, b) with a in out(s), b in in(t).  Probe the
    # smaller side's adjacency against the other side's set.
    out_lists = g.out_lists()
    if len(out_s) <= len(in_t):
        for a in out_s:
            row = out_lists[a]
            if len(row) < len(in_t_set):
                if any(b in in_t_set for b in row):
                    return True
            elif not in_t_set.isdisjoint(row):
                return True
        return False
    in_lists = g.in_lists()
    out_s_set = set(out_s)
    for b in in_t:
        row = in_lists[b]
        if len(row) < len(out_s_set):
            if any(a in out_s_set for a in row):
                return True
        elif not out_s_set.isdisjoint(row):
            return True
    return False


def bounded_neighborhood(
    g: DiGraph, v: int, h: int, *, direction: str = "out"
) -> dict[int, int]:
    """Vertices within ``h`` hops of ``v`` with their exact distances.

    ``direction='out'`` gives ``{u: d(v, u)}`` (the paper's ``outNei_i``),
    ``direction='in'`` gives ``{u: d(u, v)}`` (``inNei_i``).  ``v`` itself is
    included with distance 0.  Scalar implementation tuned for the tiny
    ``h`` used at query time.
    """
    return bfs_distances_scalar(g, v, k=h, direction=direction)


def _expand_frontier_sample():
    # A 5-vertex diamond-with-tail CSR: 0->{1,2}, 1->3, 2->3, 3->4.
    indptr = np.array([0, 2, 3, 4, 5, 5], dtype=np.int64)
    indices = np.array([1, 2, 3, 3, 4], dtype=np.int64)
    front_v = np.array([1, 2], dtype=np.int64)
    front_m = np.array([1, 2], dtype=np.uint64)
    visited = np.array([1, 1, 2, 2, 0], dtype=np.uint64)  # 3 seen by src 1 only
    return indptr, indices, front_v, front_m, visited, np.zeros(5, dtype=np.uint64)


native.register(
    "expand_frontier",
    numpy_impl=_expand_frontier_numpy,
    python_impl=_nk.expand_frontier,
    sample=_expand_frontier_sample,
)
