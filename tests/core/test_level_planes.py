"""The plane form of the k-reach index against the triple-built CSR.

Inside the memory gate ``KReachIndex`` stores the distinct views of
``level_specs(k)`` straight from one reverse blocked MS-BFS
(``cover_planes_blocked``) and derives its CSR only on demand.  Pinned
here, over every ``graph_corpus()`` graph plus a hub-stress and a
Watts–Strogatz graph at k in {0, 1, 2, 3, 6, None}:

* the planes equal ``IndexGraph.for_kreach(*cover_triples_blocked(...))
  .link_matrices(level_specs(k))`` word for word;
* the derived CSR equals the triple-built ``IndexGraph``;
* ``query_batch`` and scalar ``query`` match the BFS oracle on every
  pair, and the scalar surface (``query``, ``weight``, ``edge_count``,
  ``storage_bytes``) reads the planes without deriving the CSR;
* ``bitset_matrix_bytes=0`` and the per-source serial twin
  (``tests.conftest.serial_index``) still build the CSR.
"""

import numpy as np
import pytest

from repro.core.index_graph import (
    IndexGraph,
    cover_planes_blocked,
    cover_triples_blocked,
    level_specs,
)
from repro.core.kreach import KReachIndex
from repro.graph.digraph import DiGraph
from repro.graph.generators import celebrity_crossfire_digraph
from repro.graph.traversal import blocked_reach_planes, reaches_within_bfs
from tests.conftest import graph_corpus, serial_index

KS = [0, 1, 2, 3, 6, None]


def watts_strogatz(n: int, near: int, beta: float, seed: int) -> DiGraph:
    """A directed Watts–Strogatz small world: each vertex links to its
    ``near`` clockwise ring successors, each link rewired to a uniform
    target with probability ``beta``."""
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(n), near)
    dst = (src + np.tile(np.arange(1, near + 1), n)) % n
    rewire = rng.random(len(src)) < beta
    dst[rewire] = rng.integers(0, n, size=int(rewire.sum()))
    keep = src != dst
    return DiGraph(n, np.stack([src[keep], dst[keep]], axis=1))


GRAPHS = graph_corpus() + [
    celebrity_crossfire_digraph(70, 8, 25, p_broker=0.04, seed=5),
    watts_strogatz(90, 3, 0.15, seed=7),
]
CASES = [(i, k) for i in range(len(GRAPHS)) for k in KS]


def triple_graph(g: DiGraph, cover, k) -> IndexGraph:
    return IndexGraph.for_kreach(g.n, cover, *cover_triples_blocked(g, cover, k), k)


def all_pairs(n: int) -> np.ndarray:
    s, t = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.stack([s.ravel(), t.ravel()], axis=1)


@pytest.mark.parametrize("gi,k", CASES)
def test_planes_equal_triple_views(gi, k):
    g = GRAPHS[gi]
    index = KReachIndex(g, k)
    ig = index.index_graph
    assert ig.levels is not None  # small covers always fit the gate
    reference = triple_graph(g, index.cover, k)
    specs = level_specs(k)
    for got, want in zip(ig.link_matrices(specs), reference.link_matrices(specs)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert ig.edge_count == reference.edge_count
    ig.validate()


@pytest.mark.parametrize("gi,k", CASES)
def test_derived_csr_equals_triple_build(gi, k):
    g = GRAPHS[gi]
    index = KReachIndex(g, k)
    ig = index.index_graph
    reference = triple_graph(g, index.cover, k)
    assert ig == reference
    assert ig.indptr.dtype == ig.targets.dtype == np.int64
    assert np.array_equal(ig.packed.words, reference.packed.words)
    assert ig.packed.bits == reference.packed.bits
    assert ig.weight_base == reference.weight_base
    assert index.weighted_edges() == reference.weighted_edges()


@pytest.mark.parametrize("gi,k", CASES)
def test_answers_match_bfs_oracle(gi, k):
    g = GRAPHS[gi]
    index = KReachIndex(g, k)
    pairs = all_pairs(g.n)
    truth = np.array(
        [reaches_within_bfs(g, s, t, k) for s, t in pairs.tolist()], dtype=bool
    )
    assert np.array_equal(index.query_batch(pairs), truth)
    scalar = np.array([index.query(s, t) for s, t in pairs.tolist()], dtype=bool)
    assert np.array_equal(scalar, truth)


@pytest.mark.parametrize("gi,k", CASES)
def test_scalar_surface_reads_the_planes(gi, k):
    """``query``, ``weight``, ``edge_count`` and ``storage_bytes`` answer
    from the planes: the CSR is never derived."""
    g = GRAPHS[gi]
    index = KReachIndex(g, k)
    reference = KReachIndex(g, k, cover=index.cover, bitset_matrix_bytes=0)
    # An empty cover's views take no bytes, so they fit even a zero gate.
    assert (reference.index_graph.levels is None) == bool(index.cover)
    for s, t in all_pairs(g.n).tolist():
        assert index.query(s, t) == reference.query(s, t)
        assert index.weight(s, t) == reference.weight(s, t)
    assert index.weight(0, g.n) is None
    assert index.edge_count == reference.edge_count
    assert index.storage_bytes() == reference.storage_bytes()
    ig = index.index_graph
    assert ig._targets is None and ig._flat is None and ig._keys is None


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize(
    "build",
    [lambda g, k: KReachIndex(g, k, bitset_matrix_bytes=0), serial_index],
    ids=["over-gate", "serial"],
)
def test_csr_builds_stay(k, build):
    g = GRAPHS[-1]
    index = build(g, k)
    assert index.index_graph.levels is None
    assert index.index_graph == triple_graph(g, index.cover, k)
    planes = KReachIndex(g, k, cover=index.cover)
    pairs = all_pairs(g.n)
    assert np.array_equal(index.query_batch(pairs), planes.query_batch(pairs))


def test_cover_planes_blocked_depths():
    """Plane p holds d(cover_i, cover_j) <= depth; negative depths are
    empty, None means reachable at all."""
    g = DiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])  # a 5-cycle
    cover = np.arange(5)
    near, far, empty, whole = blocked_reach_planes(g, cover, [1, 3, -1, None])
    rows = [int(w) for w in near[:, 0]]
    assert rows == [0b00011, 0b00110, 0b01100, 0b11000, 0b10001]
    assert [int(w) for w in far[:, 0]] == [0b01111, 0b11110, 0b11101, 0b11011, 0b10111]
    assert not empty.any()
    assert all(int(w) == 0b11111 for w in whole[:, 0])
    cover_ids, planes = cover_planes_blocked(g, cover.tolist(), 3)
    assert np.array_equal(cover_ids, cover) and len(planes) == 3
    assert len(cover_planes_blocked(g, cover.tolist(), None)[1]) == 1


def test_multi_word_rows():
    """Covers past 64 vertices span several words per row and blocks."""
    g = watts_strogatz(300, 2, 0.05, seed=3)
    index = KReachIndex(g, 4, cover=frozenset(range(0, 300, 2)) | {
        v for u, v in g.edges() if u % 2
    })
    ig = index.index_graph
    assert ig.levels[0].shape[1] > 2
    reference = triple_graph(g, index.cover, 4)
    specs = level_specs(4)
    for got, want in zip(ig.link_matrices(specs), reference.link_matrices(specs)):
        assert np.array_equal(got, want)
    assert ig == reference


def test_from_levels_checks_shapes():
    cover = np.arange(3)
    plane = np.zeros((3, 1), dtype=np.uint64)
    with pytest.raises(ValueError, match="level planes"):
        IndexGraph.from_levels(3, cover, 2, [plane, plane])
    with pytest.raises(ValueError, match="level planes"):
        IndexGraph.from_levels(3, cover, None, [np.zeros((3, 2), np.uint64)])


@pytest.mark.parametrize("k", [2, 3, None])
def test_dynamic_base_derives_its_csr_only_when_rows_are_read(k):
    """A dynamic index over a plane-form base serves batches from the
    base planes; only the first flush after a write derives the CSR."""
    from repro.core.dynamic import DynamicKReachIndex

    g = GRAPHS[-1]
    dyn = DynamicKReachIndex(g, k).prepare_batch()
    ig = dyn.base.index_graph
    pairs = all_pairs(g.n)
    before = dyn.query_batch(pairs)
    assert ig.levels is not None and ig._targets is None
    assert np.array_equal(before, KReachIndex(g, k).query_batch(pairs))
    dyn.insert_edge(0, g.n // 2)
    dyn.delete_edge(*next(iter(g.edges())))
    got = dyn.query_batch(pairs)
    truth = np.array(
        [reaches_within_bfs(dyn.to_digraph(), s, t, k) for s, t in pairs.tolist()]
    )
    assert np.array_equal(got, truth)
    assert dyn.freeze().index_graph == KReachIndex(
        dyn.to_digraph(), k, cover=dyn.base.cover, bitset_matrix_bytes=0
    ).index_graph
