"""Parallel k-reach construction (§4.1.3).

The paper notes that Algorithm 1 "is straightforward to parallelize if
more machines or CPU cores are available": the BFS sweeps from the cover
vertices are independent.  :func:`parallel_khop_triples` fans contiguous
chunks of the sorted cover out over a process pool; each worker runs the
bit-parallel blocked multi-source BFS over its chunk and sends back plain
``(src, dst, dist)`` numpy arrays in ascending ``(src, dst)`` order.  The
chunks are contiguous and ascending, so the parent's one concatenate is
already in the row order
:meth:`IndexGraph.from_triples <repro.core.index_graph.IndexGraph.from_triples>`
takes without sorting — no per-entry dict merging anywhere.

On fork-capable platforms the graph is shared copy-on-write through a
module-level global, so workers pay no serialization cost for the CSR
arrays; on spawn platforms the graph is pickled once per worker.  The
result is bit-identical to both single-process builders (asserted in the
differential tests), so :func:`build_kreach_parallel` is a drop-in
constructor.

This pool is a **one-shot construction** tool: it spins up, sweeps, and
tears down, so a per-start pickle (on spawn) is immaterial.  Query
*serving* has the opposite profile — a long-lived pool answering many
batches — and lives in :class:`repro.core.serve.QueryServer`, where
workers share a :func:`~repro.core.serialize.save_mmap` file zero-copy
and nothing graph-sized ever crosses a process boundary.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Iterable

import numpy as np

from repro.core.index_graph import IndexGraph
from repro.core.kreach import KReachIndex
from repro.graph.digraph import DiGraph
from repro.graph.traversal import bfs_distances_blocked

__all__ = ["parallel_khop_triples", "build_kreach_parallel"]

# Worker-global state, installed by the pool initializer: the shared
# graph, the full-cover emit mask, and the hop budget.
_worker_graph: DiGraph | None = None
_worker_emit: np.ndarray | None = None
_worker_k: int | None = None


def _init_worker(graph: DiGraph, emit: np.ndarray, k: int | None) -> None:
    global _worker_graph, _worker_emit, _worker_k
    _worker_graph = graph
    _worker_emit = emit
    _worker_k = k


def _chunk_task(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One worker's share of Algorithm 1's sweeps, as triple arrays.

    Sources are this chunk only; the emit mask is the *full* cover, so
    targets span every cover vertex.
    """
    assert _worker_graph is not None and _worker_emit is not None
    return bfs_distances_blocked(
        _worker_graph, chunk, k=_worker_k, emit=_worker_emit
    )


def parallel_khop_triples(
    graph: DiGraph,
    cover: Iterable[int],
    k: int | None,
    *,
    workers: int = 2,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute the Algorithm-1 ``(src, dst, dist)`` triples with a pool.

    Equivalent to the single-process builders; raises for ``workers < 1``.
    ``workers=1`` runs inline (useful for tests and as a spawn-cost-free
    fallback).  Triples come back in strictly ascending ``(src, dst)``
    order, as :func:`~repro.graph.traversal.bfs_distances_blocked` emits
    them, ready for :meth:`IndexGraph.from_triples
    <repro.core.index_graph.IndexGraph.from_triples>`.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cover_arr = np.unique(np.fromiter((int(v) for v in cover), dtype=np.int64))
    in_cover = np.zeros(graph.n, dtype=bool)
    if len(cover_arr):
        in_cover[cover_arr] = True

    if workers == 1 or len(cover_arr) < 2 * workers:
        return bfs_distances_blocked(graph, cover_arr, k=k, emit=in_cover)

    # Contiguous chunks keep each worker's 64-source blocks dense, and
    # pool.map keeps their order, so the concatenation stays ascending.
    chunks = [c for c in np.array_split(cover_arr, workers) if len(c)]
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
    with ctx.Pool(
        processes=workers,
        initializer=_init_worker,
        initargs=(graph, in_cover, k),
    ) as pool:
        results = pool.map(_chunk_task, chunks)
    if not results:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    return (
        np.concatenate([r[0] for r in results]),
        np.concatenate([r[1] for r in results]),
        np.concatenate([r[2] for r in results]),
    )


def build_kreach_parallel(
    graph: DiGraph,
    k: int | None,
    *,
    workers: int = 2,
    cover: frozenset[int] | None = None,
    cover_strategy: str = "degree",
) -> KReachIndex:
    """Build a :class:`KReachIndex` with parallel blocked-BFS sweeps.

    The cover is computed serially (it is a linear-time pass), the triples
    in parallel, and the resulting :class:`IndexGraph` is bit-identical to
    the single-process builders'.
    """
    from repro.core.vertex_cover import cover_from_strategy

    if cover is None:
        cover = cover_from_strategy(graph, cover_strategy)
    cover = frozenset(int(v) for v in cover)
    src, dst, dist = parallel_khop_triples(graph, cover, k, workers=workers)
    ig = IndexGraph.for_kreach(graph.n, cover, src, dst, dist, k)
    return KReachIndex.from_index_graph(graph, k, cover=cover, index_graph=ig)
