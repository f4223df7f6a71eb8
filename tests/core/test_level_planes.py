"""The plane form of all three index families against the triple-built CSR.

Inside the memory gate ``KReachIndex`` stores the distinct views of
``level_specs(k)`` straight from one reverse blocked MS-BFS
(``cover_planes_blocked``) and derives its CSR only on demand;
``HKReachIndex`` stores the planes ≤max(k-2h, 0) … ≤k the same way, and
``CoverDistanceOracle`` scatters its exact distances into ≤0 … ≤d.
Pinned here, over every ``graph_corpus()`` graph plus a hub-stress and a
Watts–Strogatz graph at k in {0, 1, 2, 3, 6, None}:

* the planes equal the views of the triple-built ``IndexGraph`` (the CSR
  each family keeps past its gate) word for word, at every budget;
* the derived CSR equals the triple-built ``IndexGraph``;
* ``query_batch`` and scalar ``query`` match the BFS oracle on every
  pair, and the scalar and batch surfaces read the planes without
  deriving the CSR, the keys or any cached view;
* a first scalar call allocates no per-link Python objects;
* ``bitset_matrix_bytes=0`` and the per-source serial twin
  (``tests.conftest.serial_index``) still build the CSR.
"""

import tracemalloc

import numpy as np
import pytest

from repro.bitsets.ops import matrix_bytes
from repro.core.general_k import CoverDistanceOracle
from repro.core.hkreach import HKReachIndex
from repro.core.index_graph import (
    IndexGraph,
    cover_planes_blocked,
    cover_triples_blocked,
    level_specs,
)
from repro.core.kreach import KReachIndex
from repro.core.vertex_cover import vertex_cover_2approx
from repro.graph.digraph import DiGraph
from repro.graph.generators import celebrity_crossfire_digraph, gnp_digraph
from repro.graph.traversal import (
    UNREACHED,
    bfs_distances,
    blocked_reach_planes,
    reaches_within_bfs,
)
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
    """On the default cover (V) and on the §4.3 cover (Cases 1-4)."""
    g = GRAPHS[gi]
    pairs = all_pairs(g.n)
    truth = np.array(
        [reaches_within_bfs(g, s, t, k) for s, t in pairs.tolist()], dtype=bool
    )
    for index in (KReachIndex(g, k), KReachIndex(g, k, cover=vertex_cover_2approx(g))):
        assert index.index_graph.levels is not None
        assert np.array_equal(index.query_batch(pairs), truth)
        scalar = [index.query(s, t) for s, t in pairs.tolist()]
        assert np.array_equal(np.array(scalar, dtype=bool), truth)


@pytest.mark.parametrize("gi,k", CASES)
def test_lookup_reads_the_planes(gi, k):
    """``IndexGraph.lookup`` over the planes returns the CSR's stored
    weights on every pair (MISSING_WEIGHT off the links and on the
    diagonal) without deriving the CSR."""
    g = GRAPHS[gi]
    ig = KReachIndex(g, k, cover=vertex_cover_2approx(g)).index_graph
    reference = triple_graph(g, ig.cover_ids.tolist(), k)
    u, v = all_pairs(g.n).T
    assert np.array_equal(ig.lookup(u, v), reference.lookup(u, v))
    assert_untouched(ig)


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
    assert ig._targets is None and ig._keys is None and not ig._matrices


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
    cover_ids, planes = cover_planes_blocked(g, cover.tolist(), 1, 3)
    assert np.array_equal(cover_ids, cover) and len(planes) == 3
    assert np.array_equal(planes[0], near) and np.array_equal(planes[2], far)
    assert len(cover_planes_blocked(g, cover.tolist(), 0, None)[1]) == 1
    assert len(cover_planes_blocked(g, cover.tolist(), -2, 0)[1]) == 3


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
    """Planes of the cover's shape and dtype, up to a budget >= 0."""
    cover = np.arange(3)
    plane = np.zeros((3, 1), dtype=np.uint64)
    with pytest.raises(ValueError, match="level planes"):
        IndexGraph.from_levels(3, cover, 0, [plane, np.zeros((3, 2), np.uint64)])
    with pytest.raises(ValueError, match="level planes"):
        IndexGraph.from_levels(3, cover, 0, [plane.astype(np.int64)])
    with pytest.raises(ValueError, match="level planes"):
        IndexGraph.from_levels(3, cover, -2, [plane, plane])
    with pytest.raises(ValueError, match="level planes"):
        IndexGraph.from_levels(3, cover, 0, [])
    assert IndexGraph.from_levels(3, cover, -2, [plane] * 3).weight_bits == 2


@pytest.mark.parametrize("k", [2, 3, None])
def test_dynamic_base_derives_its_csr_only_when_rows_are_read(k):
    """A dynamic index over a plane-form base serves batches, and the
    flush after a write, from the base planes; only a compaction, which
    merges the base rows, derives the CSR."""
    from repro.core.dynamic import DynamicKReachIndex

    g = GRAPHS[-1]
    dyn = DynamicKReachIndex(g, k, auto_compact=False).prepare_batch()
    ig = dyn.base.index_graph
    pairs = all_pairs(g.n)
    before = dyn.query_batch(pairs)
    assert ig.levels is not None and ig._targets is None
    assert np.array_equal(before, KReachIndex(g, k).query_batch(pairs))
    dyn.insert_edge(0, g.n // 2)
    dyn.delete_edge(*next(iter(g.edges())))
    got = dyn.query_batch(pairs)
    assert dyn.overlay_rows and ig._targets is None
    truth = np.array(
        [reaches_within_bfs(dyn.to_digraph(), s, t, k) for s, t in pairs.tolist()]
    )
    assert np.array_equal(got, truth)
    assert dyn.freeze().index_graph == KReachIndex(
        dyn.to_digraph(), k, cover=dyn.base.cover, bitset_matrix_bytes=0
    ).index_graph


HK_PARAMS = [(1, 0), (1, 3), (2, 2), (2, 5), (3, 7), (2, None)]


def assert_untouched(ig: IndexGraph) -> None:
    """No CSR, no keys and no cached view were built on ``ig``."""
    assert ig._targets is None and ig._keys is None and not ig._matrices


@pytest.mark.parametrize("h,k", HK_PARAMS)
@pytest.mark.parametrize("gi", range(len(GRAPHS)))
def test_hk_planes_equal_triple_views(gi, h, k):
    """(h,k)-reach planes ≤max(k-2h, 0) … ≤k are the CSR scatter of the
    floored triples at every budget, and the derived CSR is that CSR."""
    g = GRAPHS[gi]
    index = HKReachIndex(g, h, k, strict=False)
    ig = index.index_graph
    assert ig.levels is not None
    base = 0 if k is None else max(k - 2 * h, 0)
    reference = IndexGraph.from_triples(
        g.n,
        index.cover,
        *cover_triples_blocked(g, index.cover, k),
        floor=base,
        zero_weights=k is None,
        weight_bits=ig.weight_bits,
    )
    budgets = [None] if k is None else list(range(base, k + 1))
    assert len(ig.levels) == len(budgets) and ig.weight_base == base
    for plane, budget in zip(ig.levels, budgets):
        assert np.array_equal(plane, reference.link_matrix(budget, diagonal=True))
    ig.validate()
    assert ig == reference
    assert np.array_equal(ig.packed.words, reference.packed.words)


@pytest.mark.parametrize("gi", range(len(GRAPHS)))
def test_oracle_planes_equal_triple_views(gi):
    """The oracle's planes ≤0 … ≤d are the CSR scatter of its exact BFS
    distances, and the derived CSR holds those distances."""
    g = GRAPHS[gi]
    oracle = CoverDistanceOracle(g)
    ig = oracle.index_graph
    reference = IndexGraph.from_triples(
        g.n, oracle.cover, *cover_triples_blocked(g, oracle.cover, None)
    )
    d = oracle.max_distance
    assert d == int(reference.weights64().max(initial=0))
    assert ig.levels is not None and len(ig.levels) == d + 1
    for budget, plane in enumerate(ig.levels):
        assert np.array_equal(plane, reference.link_matrix(budget, diagonal=True))
    ig.validate()
    assert ig == reference


@pytest.mark.parametrize("gi", range(len(GRAPHS)))
def test_plane_form_answers_touch_no_csr(gi):
    """Over every pair and on covers reaching Cases 1-4, the scalar and
    batch answers of all three families read only the planes, and equal
    BFS; the oracle's ``distance_batch`` may derive the CSR once."""
    g = GRAPHS[gi]
    pairs = all_pairs(g.n)
    dist = np.array([bfs_distances(g, s) for s in range(g.n)], dtype=np.int64)
    dist = dist.reshape(-1)

    def truth(k):
        reached = dist != UNREACHED
        return reached if k is None else reached & (dist <= k)

    for k in (2, 6, None):
        for index in (
            KReachIndex(g, k, cover=vertex_cover_2approx(g)),
            HKReachIndex(g, 2, k, strict=False),
        ):
            assert index.index_graph.levels is not None
            assert np.array_equal(index.query_batch(pairs), truth(k))
            scalar = [index.query(s, t) for s, t in pairs.tolist()]
            assert scalar == truth(k).tolist()
            assert_untouched(index.index_graph)
    oracle = CoverDistanceOracle(g)
    for k in (0, 1, 2, 3, 6, None):
        assert np.array_equal(oracle.reaches_within_batch(pairs, k), truth(k))
        scalar = [oracle.reaches_within(s, t, k) for s, t in pairs.tolist()]
        assert scalar == truth(k).tolist()
    distances = [oracle.distance(s, t) for s, t in pairs.tolist()]
    assert_untouched(oracle.index_graph)
    expected = np.where(dist == UNREACHED, np.inf, dist)
    assert np.array_equal(np.array(distances, dtype=float), expected)
    assert np.array_equal(oracle.distance_batch(pairs), expected)


def test_oracle_k_cycle_never_scatters(monkeypatch):
    """A plane-form oracle serves every hop budget from its stored planes:
    cycling k = 2…20 never runs the CSR view scatter."""
    g = GRAPHS[-1]
    oracle = CoverDistanceOracle(g)
    assert oracle.index_graph.levels is not None and oracle.max_distance < 20

    def scatter(*args, **kwargs):  # pragma: no cover - guard
        raise AssertionError("a plane-form oracle scattered a view")

    monkeypatch.setattr(IndexGraph, "_build_link_matrices", scatter)
    pairs = all_pairs(g.n)
    for k in [*range(2, 21), None, 0, 1]:
        expected = [reaches_within_bfs(g, s, t, k) for s, t in pairs.tolist()]
        assert oracle.reaches_within_batch(pairs, k).tolist() == expected, k
    assert_untouched(oracle.index_graph)


def test_hk_gate_charges_every_plane():
    """The (h,k)-reach gate charges all k - max(k-2h, 0) + 1 planes, one
    more than the 2h views its batch joins against: at h = 2 and the
    64 MiB default that moves covers of 10 357-11 584 vertices to the
    memoized walk, counted here at a test-sized gate."""
    g = GRAPHS[-1]
    cover = HKReachIndex(g, 2, 6).cover
    view = matrix_bytes(len(cover), len(cover))
    fits = HKReachIndex(g, 2, 6, cover=cover, bitset_matrix_bytes=5 * view)
    walk = HKReachIndex(g, 2, 6, cover=cover, bitset_matrix_bytes=4 * view)
    assert len(fits.index_graph.levels) == 5
    assert walk.index_graph.levels is None and not walk._bitset_ready()
    pairs = all_pairs(g.n)
    assert np.array_equal(fits.query_batch(pairs), walk.query_batch(pairs))
    assert 5 * matrix_bytes(10_356, 10_356) <= 64 << 20 < 5 * matrix_bytes(
        10_357, 10_357
    )
    assert 4 * matrix_bytes(11_584, 11_584) <= 64 << 20 < 4 * matrix_bytes(
        11_585, 11_585
    )


def _first_call_peak(call) -> int:
    """Peak bytes traced while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _dict_bytes(ig: IndexGraph) -> int:
    """Bytes held by a ``{u * n + v: w}`` dict over every stored link, the
    per-link Python copy a first scalar call must not build."""
    keys, weights = ig.keys().tolist(), ig.weights64().tolist()
    tracemalloc.start()
    table = dict(zip(keys, weights))
    size = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    del table
    return size


def test_first_scalar_calls_allocate_no_per_link_copy():
    """The first scalar ``query`` of a CSR-form k-reach index and the
    first oracle ``reaches_within`` and ``distance`` (plane and CSR form)
    allocate under 5 % of a per-link dict of the same index."""
    g = gnp_digraph(300, 0.02, seed=4)
    cover = vertex_cover_2approx(g)
    u, v = sorted(cover)[:2]

    def csr_index():
        return KReachIndex(g, 6, cover=cover, bitset_matrix_bytes=0)

    index = csr_index()
    assert index.index_graph.edge_count > 20 * g.n
    budget = 0.05 * _dict_bytes(csr_index().index_graph)
    assert _first_call_peak(lambda: index.query(u, v)) < budget
    budget = 0.05 * _dict_bytes(
        CoverDistanceOracle(g, cover=cover, bitset_matrix_bytes=0).index_graph
    )
    for gate in (None, 0):
        kwargs = {} if gate is None else {"bitset_matrix_bytes": gate}
        for call in (
            lambda o: o.reaches_within(u, v, 4),
            lambda o: o.distance(u, v),
        ):
            oracle = CoverDistanceOracle(g, cover=cover, **kwargs)
            assert (oracle.index_graph.levels is None) == (gate == 0)
            assert _first_call_peak(lambda: call(oracle)) < budget
