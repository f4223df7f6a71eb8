"""Vertex covers and h-hop (path) vertex covers.

The k-reach index (§4.1) rests on a small vertex cover ``S`` of the input
graph: every edge has an endpoint in ``S``, hence every vertex is within one
hop of ``S``.  The (h,k)-reach variant (§5.1) generalizes this to an *h-hop
vertex cover*: every directed simple path of length ``h`` meets ``S``, hence
every vertex lies within ``h`` hops of ``S`` along any sufficiently long
path.

Implemented algorithms:

* :func:`vertex_cover_2approx` — the classic matching-based 2-approximation
  (§4.1.1), with the paper's §4.3 twist: edges incident to high-degree
  vertices are picked first, so "celebrity" vertices land in the cover.
* :func:`greedy_vertex_cover` — the max-degree greedy heuristic, used as an
  ablation (usually smaller covers, no approximation guarantee).
* :func:`hhop_vertex_cover` — the (h+1)-approximate minimum h-hop vertex
  cover of §5.1.1: repeatedly find a simple directed path of length ``h``,
  take all its vertices, delete them.
* :func:`is_vertex_cover` / :func:`is_hhop_vertex_cover` — verifiers used by
  the test suite.

Direction is ignored for the 1-hop cover (the paper notes this explicitly);
the h-hop cover covers *directed* paths, matching Definition 2's usage.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.graph.digraph import DiGraph

__all__ = [
    "vertex_cover_2approx",
    "greedy_vertex_cover",
    "hhop_vertex_cover",
    "is_vertex_cover",
    "is_hhop_vertex_cover",
    "cover_from_strategy",
    "COVER_STRATEGIES",
]


def vertex_cover_2approx(
    g: DiGraph,
    *,
    order: str = "degree",
    rng: np.random.Generator | None = None,
    include_degree_at_least: int | None = None,
) -> frozenset[int]:
    """A 2-approximate minimum vertex cover by maximal matching (§4.1.1).

    Picks edges one by one, adds both endpoints to the cover, and discards
    all edges they cover, until no edge remains.  Whatever the edge order,
    the picked edges form a matching, so the result is at most twice the
    minimum cover.

    Parameters
    ----------
    order:
        ``'degree'`` (default) processes edges by decreasing maximum
        endpoint degree — the §4.3 strategy that pulls high-degree
        ("celebrity") vertices into the cover and empirically shrinks it.
        ``'random'`` is the paper's baseline random pick.  ``'input'``
        follows CSR order (deterministic, for tests).
    rng:
        Randomness source for ``order='random'``.
    include_degree_at_least:
        If given, *all* vertices with ``in+out`` degree at least this
        threshold are seeded into the cover before the matching runs
        (§4.3: "we can easily include all such vertices in the vertex
        cover").  The threshold is typically the graph's h-index.
    """
    if order not in ("degree", "random", "input"):
        raise ValueError(f"unknown edge order {order!r}")

    edges = g.edge_array()
    if len(edges) == 0:
        return frozenset()

    covered = np.zeros(g.n, dtype=bool)
    cover: list[int] = []

    if include_degree_at_least is not None:
        degrees = g.degrees()
        seeded = np.flatnonzero(degrees >= include_degree_at_least)
        covered[seeded] = True
        cover.extend(int(v) for v in seeded)

    if order == "degree":
        degrees = g.degrees()
        key = np.maximum(degrees[edges[:, 0]], degrees[edges[:, 1]])
        edge_order = np.argsort(-key, kind="stable")
    elif order == "random":
        rng = rng or np.random.default_rng(0)
        edge_order = rng.permutation(len(edges))
    else:
        edge_order = np.arange(len(edges))

    # The greedy pass is inherently sequential; it walks Python ints and a
    # bytearray, since per-item numpy indexing costs several times more.
    flags = bytearray(covered.tobytes())
    ordered = edges[edge_order]
    for u, v in zip(ordered[:, 0].tolist(), ordered[:, 1].tolist()):
        if flags[u] or flags[v]:
            continue
        flags[u] = flags[v] = 1
        cover.append(u)
        cover.append(v)
    return frozenset(cover)


def _symmetric_adjacency(g: DiGraph) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated undirected CSR (self-loops dropped), fully vectorized.

    Both edge directions are merged via one ``np.unique`` over flattened
    ``u * n + v`` keys — no Python-level edge loop and no dict-of-sets.
    """
    heads = np.repeat(
        np.arange(g.n, dtype=np.int64), np.diff(g.out_indptr).astype(np.int64)
    )
    tails = g.out_indices.astype(np.int64)
    u = np.concatenate([heads, tails])
    v = np.concatenate([tails, heads])
    keep = u != v
    keys = np.unique(u[keep] * np.int64(g.n) + v[keep])
    adj_indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // g.n, minlength=g.n), out=adj_indptr[1:])
    return adj_indptr, keys % g.n


def greedy_vertex_cover(g: DiGraph) -> frozenset[int]:
    """Greedy max-degree vertex cover (ablation baseline).

    Repeatedly adds a vertex covering the most remaining edges.  Often
    smaller than the 2-approximation in practice but its worst-case ratio is
    Θ(log n); the paper uses the matching algorithm for its guarantee.

    The adjacency is built vectorized (:func:`_symmetric_adjacency`) and
    the selection runs on array-backed degree buckets — per-degree stacks
    with lazily invalidated entries, O(n + m) pushes in total — instead
    of the former dict-of-sets residual graph.  Output is deterministic:
    ties on residual degree break toward the vertex most recently moved
    into the bucket (initially the highest vertex id).
    """
    if g.n == 0:
        return frozenset()
    adj_indptr, adj_indices = _symmetric_adjacency(g)
    indptr = adj_indptr.tolist()
    neighbors = adj_indices.tolist()
    degree = np.diff(adj_indptr).tolist()
    max_deg = max(degree, default=0)
    if max_deg == 0:
        return frozenset()
    buckets: list[list[int]] = [[] for _ in range(max_deg + 1)]
    for vertex in range(g.n):
        if degree[vertex]:
            buckets[degree[vertex]].append(vertex)
    cover: list[int] = []
    current = max_deg
    while current > 0:
        bucket = buckets[current]
        if not bucket:
            current -= 1
            continue
        u = bucket.pop()
        if degree[u] != current:
            continue  # stale entry: u moved to a lower bucket
        cover.append(u)
        degree[u] = 0
        for w in neighbors[indptr[u] : indptr[u + 1]]:
            dw = degree[w]
            if dw:  # edge (u, w) was uncovered until now
                dw -= 1
                degree[w] = dw
                if dw:
                    buckets[dw].append(w)
    return frozenset(cover)


def hhop_vertex_cover(
    g: DiGraph,
    h: int,
    *,
    order: str = "degree",
    prune: bool = True,
    rng: np.random.Generator | None = None,
) -> frozenset[int]:
    """An (h+1)-approximate minimum h-hop vertex cover (§5.1.1).

    Repeatedly finds a simple directed path ``⟨v0, …, vh⟩`` of length ``h``
    in the residual graph, adds all ``h+1`` vertices to the cover, and
    deletes them.  Any minimum h-hop cover must contain at least one vertex
    of each picked (vertex-disjoint) path, giving the (h+1) ratio.

    ``h=1`` delegates to :func:`vertex_cover_2approx` (a 1-hop vertex cover
    *is* a vertex cover).

    Parameters
    ----------
    order:
        Start-vertex priority: ``'degree'`` tries high-degree vertices
        first (the §4.3 preference carried over), ``'random'`` shuffles,
        ``'input'`` is id order.
    prune:
        Run a redundancy-elimination pass after the greedy collection
        (default).  The naive pick keeps all ``h+1`` vertices of every
        path even when one of them covers everything the others do — on
        hub/star structures that wastes a factor ``h+1``.  Pruning drops
        any vertex with no uncovered length-h path through it; the result
        is still an h-hop cover (checked property in the tests) and never
        larger, so the (h+1) guarantee is preserved.  The paper's Table 9
        cover sizes (20-45% below the vertex cover) are only reachable
        with this pass.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if order not in ("degree", "random", "input"):
        raise ValueError(f"unknown start order {order!r}")
    if h == 1:
        cover = vertex_cover_2approx(g, order=order, rng=rng)
        return _prune_hhop_cover(g, cover, h) if prune else cover

    alive = np.ones(g.n, dtype=bool)
    cover_list: list[int] = []

    if order == "degree":
        starts = list(np.argsort(-g.degrees(), kind="stable"))
    elif order == "random":
        rng = rng or np.random.default_rng(0)
        starts = list(rng.permutation(g.n))
    else:
        starts = list(range(g.n))

    # A vertex that cannot start a length-h simple path now never can later
    # (removals only destroy paths), so each failed start is final.
    for start in starts:
        start = int(start)
        while alive[start]:
            path = _find_simple_path(g, alive, start, h)
            if path is None:
                break
            for v in path:
                alive[v] = False
                cover_list.append(v)
    cover = frozenset(cover_list)
    return _prune_hhop_cover(g, cover, h) if prune else cover


def _prune_hhop_cover(g: DiGraph, cover: frozenset[int], h: int) -> frozenset[int]:
    """Drop cover vertices with no uncovered length-h path through them.

    Processes candidates in ascending degree order (cheap, peripheral
    vertices first) so that structural centers — which many paths route
    through — are retained.  Each removal keeps the invariant "every
    length-h simple path meets the cover", so the result is a valid h-hop
    cover of possibly smaller size.
    """
    kept = set(cover)
    candidates = sorted(cover, key=lambda v: g.degree(v))
    for v in candidates:
        kept.discard(v)
        if _exists_uncovered_path_through(g, kept, v, h):
            kept.add(v)
    return frozenset(kept)


def _exists_uncovered_path_through(
    g: DiGraph, covered: set[int], v: int, h: int
) -> bool:
    """Whether some simple length-h path contains ``v`` and avoids ``covered``.

    Splits the path at ``v``: a backward simple path of length ``p`` into
    ``v`` plus a forward simple path of length ``h - p`` out of ``v``,
    vertex-disjoint, for some ``0 ≤ p ≤ h``.  All path vertices (other than
    ``v`` itself) must be uncovered.  Early-exits on the first witness.
    """
    for back_len in range(h + 1):
        fwd_len = h - back_len
        for back_path in _simple_paths(g, covered, v, back_len, direction="in"):
            used = set(back_path)
            for fwd_path in _simple_paths(
                g, covered, v, fwd_len, direction="out", blocked=used
            ):
                return True
    return False


def _simple_paths(
    g: DiGraph,
    covered: set[int],
    start: int,
    length: int,
    *,
    direction: str,
    blocked: set[int] | None = None,
):
    """Yield simple paths of exactly ``length`` edges from ``start``
    (following ``direction``), avoiding covered and blocked vertices.

    Paths are yielded as vertex lists excluding ``start``.
    """
    if length == 0:
        yield []
        return
    neighbors = g.out_neighbors if direction == "out" else g.in_neighbors
    blocked = blocked or set()
    path: list[int] = []
    on_path = {start} | blocked

    def extend(u: int, remaining: int):
        for w in neighbors(u):
            w = int(w)
            if w in on_path or w in covered:
                continue
            path.append(w)
            on_path.add(w)
            if remaining == 1:
                yield list(path)
            else:
                yield from extend(w, remaining - 1)
            on_path.discard(w)
            path.pop()

    yield from extend(start, length)


def _find_simple_path(
    g: DiGraph, alive: np.ndarray, start: int, h: int
) -> list[int] | None:
    """A simple directed path of exactly ``h`` edges from ``start`` within
    the alive subgraph, or None.  Iterative DFS with on-path marking."""
    if not alive[start]:
        return None
    on_path = {start}
    path = [start]
    iters = [iter(g.out_neighbors(start))]
    while iters:
        if len(path) == h + 1:
            return path
        found_child = False
        for v in iters[-1]:
            v = int(v)
            if alive[v] and v not in on_path:
                on_path.add(v)
                path.append(v)
                iters.append(iter(g.out_neighbors(v)))
                found_child = True
                break
        if not found_child:
            iters.pop()
            on_path.discard(path.pop())
    return None


def is_vertex_cover(g: DiGraph, cover: Iterable[int]) -> bool:
    """Whether every edge of ``g`` has an endpoint in ``cover``.

    Vectorized over the CSR: one flag gather per edge endpoint — this
    runs on every externally-supplied cover, so it must not cost a Python
    loop over the edges.
    """
    flags = np.zeros(g.n, dtype=bool)
    ids = np.fromiter((int(v) for v in cover), dtype=np.int64)
    if len(ids):
        if int(ids.min()) < 0 or int(ids.max()) >= g.n:
            return False
        flags[ids] = True
    heads = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.out_indptr))
    tails = g.out_indices
    keep = heads != tails  # self-loops never need covering
    return bool(np.all(flags[heads[keep]] | flags[tails[keep]]))


def is_hhop_vertex_cover(g: DiGraph, cover: Iterable[int], h: int) -> bool:
    """Whether every simple directed path of length ``h`` meets ``cover``.

    Exhaustive check (exponential in ``h``); intended for the test suite on
    small graphs only.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    s = set(cover)
    alive = np.array([v not in s for v in range(g.n)], dtype=bool)
    for start in range(g.n):
        if alive[start] and _find_simple_path(g, alive, start, h) is not None:
            return False
    return True


#: Named cover strategies accepted by the index constructors.
COVER_STRATEGIES = ("degree", "random", "input", "greedy")


def cover_from_strategy(
    g: DiGraph,
    strategy: str,
    *,
    rng: np.random.Generator | None = None,
    include_degree_at_least: int | None = None,
) -> frozenset[int]:
    """Dispatch helper mapping a strategy name to a 1-hop cover."""
    if strategy == "greedy":
        return greedy_vertex_cover(g)
    if strategy in ("degree", "random", "input"):
        return vertex_cover_2approx(
            g,
            order=strategy,
            rng=rng,
            include_degree_at_least=include_degree_at_least,
        )
    raise ValueError(f"unknown cover strategy {strategy!r}; choose from {COVER_STRATEGIES}")
