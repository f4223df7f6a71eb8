"""General-k tests (§4.4): the cover-distance oracle, the one answerer
for hop budgets an index was not built for.

The conformance grid checks, for every k ∈ {0, 1, …, d+1, None} on every
pair of the shared corpus plus a power-law celebrity graph, that batch ≡
scalar ≡ BFS on each path the memory gate picks: the level stack, keyed
probes with the one-view Case-4 join, and chunked cross products (with
and without the hub×hub spill to the scalar answer).
"""

import numpy as np
import pytest

import repro.core.kreach as kreach_module
from repro.core.batch import plan_cross_products
from repro.core.general_k import INFINITE_DISTANCE, CoverDistanceOracle
from repro.core.kreach import KReachIndex, batch_views
from repro.graph.digraph import DiGraph
from repro.graph.generators import cycle_graph, path_graph
from repro.graph.traversal import UNREACHED, bfs_distances

from tests.conftest import graph_corpus
from tests.core.test_bitset_join import celebrity_graph

CONFORMANCE_GRAPHS = [*graph_corpus(), celebrity_graph(1)]


def gated_oracle(g: DiGraph, path: str) -> CoverDistanceOracle:
    """An oracle on ``g`` whose memory gate admits the level stack
    (``'stack'``), one view but not three (``'one view'``), or no view
    (``'chunked'``)."""
    oracle = CoverDistanceOracle(g)
    gate = {
        "stack": oracle.bitset_matrix_bytes,
        "one view": oracle.index_graph.link_matrix_bytes(),
        "chunked": 0,
    }[path]
    return CoverDistanceOracle(g, cover=oracle.cover, bitset_matrix_bytes=gate)


def bfs_truth(g: DiGraph) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(s, t)`` pair of ``g`` and its BFS distance (UNREACHED if none)."""
    pairs = np.array(
        [(s, t) for s in range(g.n) for t in range(g.n)], dtype=np.int64
    ).reshape(-1, 2)
    dist = np.array([bfs_distances(g, s) for s in range(g.n)], dtype=np.int64)
    return pairs, dist.reshape(-1)


def budgets(dist: np.ndarray) -> list[int | None]:
    """k ∈ {0, 1, …, d+1, None} for the diameter d of ``dist``."""
    return [*range(int(dist.max(initial=0)) + 2), None]


def within(dist: np.ndarray, k: int | None) -> np.ndarray:
    reached = dist != UNREACHED
    return reached if k is None else reached & (dist <= k)


@pytest.mark.parametrize("path", ["stack", "one view", "chunked"])
@pytest.mark.parametrize("g", CONFORMANCE_GRAPHS, ids=repr)
def test_batch_equals_scalar_equals_bfs(g, path):
    oracle = gated_oracle(g, path)
    ig = oracle.index_graph
    if ig.cover_size:
        stack, matrix = batch_views(
            ig.link_matrices,
            [(0, True), (1, True), (2, True)],
            ig.cover_size,
            oracle.bitset_matrix_bytes,
        )
        assert (stack is not None, matrix is not None) == {
            "stack": (True, True),
            "one view": (False, True),
            "chunked": (False, False),
        }[path]
    pairs, dist = bfs_truth(g)
    for k in budgets(dist):
        truth = within(dist, k)
        batch = oracle.reaches_within_batch(pairs, k)
        assert batch.dtype == bool and np.array_equal(batch, truth), (path, k)
        scalar = [oracle.reaches_within(s, t, k) for s, t in pairs.tolist()]
        assert np.array_equal(np.array(scalar, dtype=bool), truth), (path, k)
    reached = within(dist, None)
    assert np.array_equal(oracle.reaches_batch(pairs), reached)
    assert [oracle.reaches(s, t) for s, t in pairs.tolist()] == reached.tolist()


@pytest.mark.parametrize("g", CONFORMANCE_GRAPHS, ids=repr)
def test_plane_distance_batch_reads_the_planes(g):
    """A plane-form oracle's ``distance_batch`` probes its planes: it
    derives no CSR or keyed store, and answers as the CSR-form oracle
    and BFS do."""
    oracle = CoverDistanceOracle(g)
    ig = oracle.index_graph
    assert ig.levels is not None
    pairs, dist = bfs_truth(g)
    got = oracle.distance_batch(pairs)
    assert ig._targets is None and ig._keys is None
    csr = CoverDistanceOracle(g, cover=oracle.cover, bitset_matrix_bytes=0)
    assert csr.index_graph.levels is None or not ig.cover_size
    assert np.array_equal(got, csr.distance_batch(pairs))
    want = np.where(dist == UNREACHED, INFINITE_DISTANCE, dist)
    assert np.array_equal(got, want)


def test_hub_spill_answers_exactly(monkeypatch):
    """Past every view, hub×hub Case-4 pairs go to the scalar answer: a
    one-element chunk budget sends every larger cross product there."""
    g = celebrity_graph(1)
    oracle = gated_oracle(g, "chunked")
    spilled = []

    def tiny_chunks(graph, s, t):
        big, chunks = plan_cross_products(graph, s, t, chunk=1)
        spilled.append(len(big))
        return big, chunks

    monkeypatch.setattr(kreach_module, "plan_cross_products", tiny_chunks)
    pairs, dist = bfs_truth(g)
    for k in budgets(dist):
        assert np.array_equal(
            oracle.reaches_within_batch(pairs, k), within(dist, k)
        ), k
    assert sum(spilled) > 0


class TestScalarIds:
    """Scalar ids go through the one index-wide check: floats are a
    typed error, and a bool is the vertex it equals (as in KReachIndex)."""

    CALLS = {
        "distance": lambda o, s, t: o.distance(s, t),
        "reaches_within": lambda o, s, t: o.reaches_within(s, t, 2),
        "reaches": lambda o, s, t: o.reaches(s, t),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_float_id_is_a_value_error(self, name):
        oracle = CoverDistanceOracle(cycle_graph(5))
        with pytest.raises(ValueError, match="integer ids"):
            self.CALLS[name](oracle, 0, 1.7)
        with pytest.raises(ValueError, match="integer ids"):
            KReachIndex(cycle_graph(5), 2).query(0, 1.7)

    @pytest.mark.parametrize("name", CALLS)
    def test_bool_id_is_that_vertex(self, name):
        g = cycle_graph(5)
        oracle = CoverDistanceOracle(g)
        call = self.CALLS[name]
        for t in range(g.n):
            assert call(oracle, True, t) == call(oracle, 1, t), t
            assert call(oracle, t, False) == call(oracle, t, 0), t
        assert KReachIndex(g, 2).query(True, 3) == oracle.reaches_within(True, 3, 2)


class TestCoverDistanceOracle:
    def test_distances_match_bfs_on_corpus(self):
        for g in graph_corpus():
            oracle = CoverDistanceOracle(g)
            for s in range(g.n):
                dist = bfs_distances(g, s)
                for t in range(g.n):
                    expected = (
                        INFINITE_DISTANCE if dist[t] == UNREACHED else int(dist[t])
                    )
                    assert oracle.distance(s, t) == expected, (g, s, t)

    def test_reaches_within_any_k(self):
        g = path_graph(6)
        oracle = CoverDistanceOracle(g)
        assert oracle.reaches_within(0, 4, 4)
        assert not oracle.reaches_within(0, 4, 3)
        with pytest.raises(ValueError):
            oracle.reaches_within(0, 4, -1)
        with pytest.raises(ValueError):
            oracle.reaches_within_batch([(0, 4)], -1)

    def test_reaches(self):
        g = DiGraph(4, [(0, 1), (2, 3)])
        oracle = CoverDistanceOracle(g)
        assert oracle.reaches(0, 1) and not oracle.reaches(0, 3)

    def test_invalid_cover(self):
        with pytest.raises(ValueError):
            CoverDistanceOracle(path_graph(4), cover=frozenset({0}))

    def test_query_out_of_range(self):
        oracle = CoverDistanceOracle(path_graph(3))
        with pytest.raises(ValueError):
            oracle.distance(0, 7)

    def test_weight_bits_reflects_diameter(self):
        oracle = CoverDistanceOracle(path_graph(40))
        # distances up to ~39 need 6 bits
        assert oracle.weight_bits() >= 5

    def test_storage_positive(self):
        oracle = CoverDistanceOracle(path_graph(10))
        assert oracle.storage_bytes() > 0
        assert oracle.cover_size > 0
        assert oracle.edge_count >= 0
