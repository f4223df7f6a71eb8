"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from repro.core.index_graph import IndexGraph, cover_triples_serial
from repro.core.kreach import KReachIndex
from repro.core.partition import ShardedKReach, partition_kreach
from repro.core.vertex_cover import cover_from_strategy, vertex_cover_2approx
from repro.core.serialize import _MMAP_PROLOGUE
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    cycle_graph,
    gnp_digraph,
    paper_example_graph,
    path_graph,
    random_dag,
)
from repro.graph.traversal import reaches_within_bfs


@pytest.fixture
def paper_graph() -> DiGraph:
    """The Figure-1/Figure-3 worked-example graph."""
    return paper_example_graph()


@pytest.fixture
def paper_ids(paper_graph) -> dict[str, int]:
    """Label -> dense id for the paper graph."""
    return {lab: paper_graph.vertex_id(lab) for lab in "abcdefghij"}


@pytest.fixture
def diamond() -> DiGraph:
    """0 -> {1, 2} -> 3 (the smallest multi-path DAG)."""
    return DiGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def two_cycle() -> DiGraph:
    """0 <-> 1 plus a tail 1 -> 2."""
    return DiGraph(3, [(0, 1), (1, 0), (1, 2)])


@pytest.fixture(params=[0, 1, 2, 3])
def random_graph(request) -> DiGraph:
    """A small random digraph (one per seed parameter)."""
    rng = np.random.default_rng(request.param)
    n = int(rng.integers(5, 30))
    p = float(rng.uniform(0.02, 0.25))
    return gnp_digraph(n, p, seed=request.param)


def graph_corpus() -> list[DiGraph]:
    """A deterministic corpus of structurally diverse small graphs."""
    return [
        DiGraph(1),
        DiGraph(2, [(0, 1)]),
        path_graph(6),
        cycle_graph(5),
        DiGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
        random_dag(12, 20, seed=1),
        gnp_digraph(15, 0.12, seed=2),
        gnp_digraph(25, 0.06, seed=3),
        paper_example_graph(),
        DiGraph(3, [(0, 1), (1, 0), (1, 2)]),
        DiGraph(7),  # edgeless
    ]


def brute_force_khop(g: DiGraph, s: int, t: int, k: int | None) -> bool:
    """Ground truth used across all index tests."""
    return reaches_within_bfs(g, s, t, k)


def all_pairs(g: DiGraph):
    """Iterate every (s, t) pair of a small graph."""
    for s in range(g.n):
        for t in range(g.n):
            yield s, t


def serial_index(g: DiGraph, k: int | None, cover=None) -> KReachIndex:
    """The per-source twin of ``KReachIndex(g, k, cover=cover)``: one
    BFS per cover vertex (``cover_triples_serial``) into the CSR, the
    oracle the blocked builds must match bit for bit.  ``cover``
    defaults to the §4.3 degree-first pick (the index's own default
    past the memory gate; inside it the index covers V)."""
    cover = frozenset(
        cover_from_strategy(g, "degree") if cover is None else map(int, cover)
    )
    ig = IndexGraph.for_kreach(g.n, cover, *cover_triples_serial(g, cover, k), k)
    return KReachIndex.from_index_graph(g, k, cover=cover, index_graph=ig)


def split_index(g: DiGraph, k: int | None, **options) -> KReachIndex:
    """``KReachIndex(g, k, **options)`` on the §4.3 2-approximate cover.

    A test graph's level planes fit the memory gate, so its default
    cover is all of V and every pair is Algorithm 2's Case 1.  A test
    of a query path (serving, mmap pages, sharding, a dynamic base)
    builds here instead, so pairs reach Cases 2-4 too; it checks that
    with :func:`assert_every_case`."""
    return KReachIndex(g, k, cover=vertex_cover_2approx(g), **options)


def assert_every_case(index, pairs) -> None:
    """``pairs`` fall into each of Algorithm 2's four cases on
    ``index``'s cover (``query_case_batch`` returns 1, 2, 3 and 4)."""
    cases = np.unique(index.query_case_batch(pairs)).tolist()
    assert cases == [1, 2, 3, 4], f"the pairs reach only cases {cases}"


def split_shards(g: DiGraph, k: int | None, num_shards: int) -> ShardedKReach:
    """``partition_kreach(g, k, num_shards)`` on the §4.3 cover (see
    :func:`split_index`), checked so that the shards' own pairs reach
    all four cases between them (a small shard may be all cover: the
    replicated boundary is in every shard's cover)."""
    sharded = partition_kreach(g, k, num_shards, cover=vertex_cover_2approx(g))
    cases = set()
    for shard in sharded.shards:
        size = len(shard.vertex_map)
        local = np.stack(np.divmod(np.arange(size * size), size), axis=1)
        cases.update(np.unique(shard.index.query_case_batch(local)).tolist())
    assert cases == {1, 2, 3, 4}, f"the shards reach only cases {cases}"
    return sharded


def scalar_batch(index, pairs) -> np.ndarray:
    """The per-pair reference for any answerer's ``query_batch``: its
    scalar ``query`` over each pair, as an aligned bool array."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.fromiter(
        (index.query(s, t) for s, t in pairs.tolist()), dtype=bool, count=len(pairs)
    )


def vector_gate(index: KReachIndex, path: str) -> int:
    """The ``bitset_matrix_bytes`` that steers ``query_batch`` over
    ``index``'s cover off the level stack: ``'bitset'`` keeps the
    one-view Case-4 bitset join under keyed probes (for n-reach the
    stack *is* one view, so it stays), ``'chunked'`` takes the chunked
    cross products and the hub spill.  The default gate keeps the
    stack whenever it fits."""
    return {"bitset": index.index_graph.link_matrix_bytes(), "chunked": 0}[path]


def gated_twin(index: KReachIndex, path: str) -> KReachIndex:
    """``index`` rebuilt over the same cover, gated onto ``path`` (see
    :func:`vector_gate`)."""
    return KReachIndex(
        index.graph,
        index.k,
        cover=index.cover,
        bitset_matrix_bytes=vector_gate(index, path),
    )


def tampered_header(path, out_path, mutate):
    """Rewrite an index file with its JSON header replaced by
    ``mutate(header)``, which may edit the header in place and return
    it, or return any other JSON value (a list, ``None``, ...).

    Section offsets are relative to the aligned payload base, so the
    payload bytes are copied verbatim behind the (possibly resized)
    header and remain addressable.  The prologue's header CRC is
    recomputed — callers target the *structural* checks, not the
    checksum, which gets its own tests.
    """
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[_MMAP_PROLOGUE : _MMAP_PROLOGUE + hlen])
    blob = json.dumps(mutate(header), separators=(",", ":")).encode()
    old_base = (_MMAP_PROLOGUE + hlen + 63) // 64 * 64
    new_base = (_MMAP_PROLOGUE + len(blob) + 63) // 64 * 64
    out_path.write_bytes(
        raw[:8]
        + len(blob).to_bytes(8, "little")
        + zlib.crc32(blob).to_bytes(4, "little")
        + blob
        + b"\x00" * (new_base - _MMAP_PROLOGUE - len(blob))
        + raw[old_base:]
    )
    return out_path


def tampered_section(path, out_path, name, transform):
    """Rewrite an index file with section ``name``'s payload replaced by
    ``transform(array)`` (same length; header and checksums untouched)."""
    raw = bytearray(path.read_bytes())
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[_MMAP_PROLOGUE : _MMAP_PROLOGUE + hlen])
    sec = header["sections"][name]
    dtype = np.dtype(sec["dtype"])
    start = (_MMAP_PROLOGUE + hlen + 63) // 64 * 64 + sec["offset"]
    stop = start + sec["count"] * dtype.itemsize
    arr = np.frombuffer(bytes(raw[start:stop]), dtype=dtype).copy()
    raw[start:stop] = np.ascontiguousarray(transform(arr), dtype=dtype).tobytes()
    out_path.write_bytes(bytes(raw))
    return out_path
