"""Unit and cross-validation tests for the traversal kernels."""

import networkx as nx
import numpy as np
import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import cycle_graph, gnp_digraph, path_graph
from repro.graph.traversal import (
    UNREACHED,
    bfs_distances,
    bfs_distances_scalar,
    bidirectional_reaches_within,
    bounded_neighborhood,
    gather_neighbors,
    reachable_set,
    reaches_within_bfs,
)


def to_nx(g: DiGraph) -> nx.DiGraph:
    h = nx.DiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestGatherNeighbors:
    def test_empty_frontier(self):
        g = path_graph(4)
        out = gather_neighbors(g.out_indptr, g.out_indices, np.array([], dtype=np.int64))
        assert len(out) == 0

    def test_multi_vertex_frontier(self):
        g = DiGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        out = gather_neighbors(g.out_indptr, g.out_indices, np.array([0, 1]))
        assert sorted(out.tolist()) == [1, 2, 3]

    def test_vertices_without_neighbors(self):
        g = DiGraph(3, [(0, 1)])
        out = gather_neighbors(g.out_indptr, g.out_indices, np.array([1, 2]))
        assert len(out) == 0


class TestBfsDistances:
    def test_path_graph(self):
        g = path_graph(5)
        assert bfs_distances(g, 0).tolist() == [0, 1, 2, 3, 4]
        assert bfs_distances(g, 4).tolist() == [UNREACHED] * 4 + [0]

    def test_k_truncation(self):
        g = path_graph(5)
        assert bfs_distances(g, 0, k=2).tolist() == [0, 1, 2, UNREACHED, UNREACHED]

    def test_k_zero(self):
        g = path_graph(3)
        d = bfs_distances(g, 1, k=0)
        assert d[1] == 0 and d[0] == UNREACHED and d[2] == UNREACHED

    def test_in_direction(self):
        g = path_graph(4)
        d = bfs_distances(g, 3, direction="in")
        assert d.tolist() == [3, 2, 1, 0]

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            bfs_distances(path_graph(3), 5)

    def test_negative_k(self):
        with pytest.raises(ValueError):
            bfs_distances(path_graph(3), 0, k=-1)

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            bfs_distances(path_graph(3), 0, direction="sideways")

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_networkx(self, seed):
        g = gnp_digraph(25, 0.1, seed=seed)
        truth = nx.single_source_shortest_path_length(to_nx(g), 0)
        dist = bfs_distances(g, 0)
        for v in range(g.n):
            if v in truth:
                assert dist[v] == truth[v]
            else:
                assert dist[v] == UNREACHED

    @pytest.mark.parametrize("seed", range(5))
    def test_scalar_matches_vectorized(self, seed):
        g = gnp_digraph(20, 0.15, seed=seed)
        for k in (None, 0, 1, 2, 4):
            dense = bfs_distances(g, 0, k=k)
            sparse = bfs_distances_scalar(g, 0, k=k)
            expected = {v: int(dense[v]) for v in range(g.n) if dense[v] != UNREACHED}
            assert sparse == expected


class TestReachesWithin:
    def test_self_reachable_any_k(self):
        g = path_graph(3)
        assert reaches_within_bfs(g, 1, 1, 0)
        assert reaches_within_bfs(g, 1, 1, None)

    def test_k_zero_distinct(self):
        g = path_graph(3)
        assert not reaches_within_bfs(g, 0, 1, 0)

    def test_exact_boundary(self):
        g = path_graph(5)
        assert reaches_within_bfs(g, 0, 3, 3)
        assert not reaches_within_bfs(g, 0, 3, 2)

    def test_unbounded(self):
        g = path_graph(5)
        assert reaches_within_bfs(g, 0, 4, None)
        assert not reaches_within_bfs(g, 4, 0, None)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            reaches_within_bfs(path_graph(3), 0, 9, 2)

    def test_cycle_wraps(self):
        g = cycle_graph(4)
        assert reaches_within_bfs(g, 2, 1, 3)
        assert not reaches_within_bfs(g, 2, 1, 2)


class TestBidirectional:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_unidirectional(self, seed):
        rng = np.random.default_rng(seed)
        g = gnp_digraph(22, 0.12, seed=seed)
        for _ in range(60):
            s, t = int(rng.integers(0, g.n)), int(rng.integers(0, g.n))
            k = [0, 1, 2, 3, 5, None][int(rng.integers(0, 6))]
            assert bidirectional_reaches_within(g, s, t, k) == reaches_within_bfs(
                g, s, t, k
            ), (s, t, k)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bidirectional_reaches_within(path_graph(3), -1, 0, 2)


class TestNeighborhoods:
    def test_bounded_neighborhood_out(self):
        g = path_graph(5)
        assert bounded_neighborhood(g, 0, 2) == {0: 0, 1: 1, 2: 2}

    def test_bounded_neighborhood_in(self):
        g = path_graph(5)
        assert bounded_neighborhood(g, 4, 2, direction="in") == {4: 0, 3: 1, 2: 2}


class TestReachableSet:
    def test_forward(self):
        g = DiGraph(4, [(0, 1), (1, 2)])
        assert reachable_set(g, 0) == {0, 1, 2}

    def test_backward(self):
        g = DiGraph(4, [(0, 1), (1, 2)])
        assert reachable_set(g, 2, direction="in") == {0, 1, 2}


class TestReachesWithinSmall:
    def test_k_zero_and_self(self):
        from repro.graph.traversal import reaches_within_small

        g = path_graph(4)
        assert reaches_within_small(g, 2, 2, 0)
        assert not reaches_within_small(g, 0, 1, 0)

    def test_exact_hop_boundaries(self):
        from repro.graph.traversal import reaches_within_small

        g = path_graph(5)
        assert reaches_within_small(g, 0, 1, 1)
        assert not reaches_within_small(g, 0, 2, 1)
        assert reaches_within_small(g, 0, 2, 2)
        assert not reaches_within_small(g, 0, 3, 2)
        assert reaches_within_small(g, 0, 3, 3)
        assert not reaches_within_small(g, 0, 4, 3)

    def test_no_neighbors(self):
        from repro.graph.traversal import reaches_within_small

        g = DiGraph(3, [(0, 1)])
        assert not reaches_within_small(g, 2, 0, 3)
        assert not reaches_within_small(g, 1, 2, 3)

    def test_hub_graph_stays_cheap_and_correct(self):
        from repro.graph.traversal import reaches_within_small
        from repro.graph.generators import star_graph

        g = star_graph(500)
        # spoke -> spoke via the hub would need hub->spoke: out-star only
        assert reaches_within_small(g, 0, 499, 1)
        assert not reaches_within_small(g, 1, 2, 3)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bfs(self, seed):
        from repro.graph.traversal import reaches_within_small

        rng = np.random.default_rng(seed)
        g = gnp_digraph(30, 0.15, seed=40 + seed)
        for _ in range(120):
            s, t = int(rng.integers(0, g.n)), int(rng.integers(0, g.n))
            k = int(rng.integers(0, 4))
            assert reaches_within_small(g, s, t, k) == reaches_within_bfs(
                g, s, t, k
            ), (s, t, k)


class TestBfsDistancesBlocked:
    """The bit-parallel multi-source kernel vs per-source ground truth."""

    @pytest.mark.parametrize("k", [0, 1, 3, None])
    @pytest.mark.parametrize("direction", ["out", "in"])
    def test_matches_per_source(self, k, direction):
        from repro.graph.traversal import bfs_distances_blocked

        g = gnp_digraph(120, 0.04, seed=21)
        sources = np.arange(0, g.n, 3, dtype=np.int64)
        src, dst, dist = bfs_distances_blocked(g, sources, k=k, direction=direction)
        got = dict(zip(zip(src.tolist(), dst.tolist()), dist.tolist()))
        assert len(got) == len(src)  # no duplicate (src, dst) pairs
        want = {}
        for u in sources.tolist():
            d = bfs_distances(g, u, k=k, direction=direction)
            for v in np.flatnonzero(d != UNREACHED).tolist():
                if v != u:
                    want[(u, v)] = int(d[v])
        assert got == want

    @pytest.mark.parametrize("k", [0, 1, 2, 6, None])
    @pytest.mark.parametrize("direction", ["out", "in"])
    @pytest.mark.parametrize("with_emit", [False, True])
    def test_triples_ascend_by_source_then_target(self, k, direction, with_emit):
        """The (src, dst) order IndexGraph.from_triples builds from
        without sorting: fused keys strictly ascend, even for unsorted,
        duplicated sources spanning several 64-source blocks."""
        from repro.graph.traversal import bfs_distances_blocked

        g = gnp_digraph(200, 0.02, seed=23)
        rng = np.random.default_rng(23)
        sources = rng.permutation(np.repeat(np.arange(0, g.n, 2), 2))  # 100 distinct
        emit = rng.random(g.n) < 0.6 if with_emit else None
        src, dst, dist = bfs_distances_blocked(
            g, sources, k=k, direction=direction, emit=emit
        )
        keys = src * g.n + dst
        assert bool(np.all(keys[1:] > keys[:-1]))
        want = set()
        for u in np.unique(sources).tolist():
            d = bfs_distances(g, u, k=k, direction=direction)
            for v in np.flatnonzero(d != UNREACHED).tolist():
                if v != u and (emit is None or emit[v]):
                    want.add((u, v, int(d[v])))
        assert set(zip(src.tolist(), dst.tolist(), dist.tolist())) == want

    def test_more_than_64_sources(self):
        from repro.graph.traversal import bfs_distances_blocked

        g = gnp_digraph(150, 0.03, seed=22)
        sources = np.arange(g.n, dtype=np.int64)  # 3 blocks
        src, dst, dist = bfs_distances_blocked(g, sources, k=2)
        for u, v, d in zip(src.tolist()[:500], dst.tolist()[:500], dist.tolist()[:500]):
            assert int(bfs_distances(g, u, k=2)[v]) == d

    def test_emit_mask_filters_reports_not_traversal(self):
        from repro.graph.traversal import bfs_distances_blocked

        g = path_graph(5)  # 0 -> 1 -> 2 -> 3 -> 4
        emit = np.zeros(g.n, dtype=bool)
        emit[4] = True  # only the far endpoint is reportable
        src, dst, dist = bfs_distances_blocked(
            g, np.array([0], dtype=np.int64), emit=emit
        )
        # The walk crossed 1..3 (not emitted) to reach 4 at distance 4.
        assert list(zip(src.tolist(), dst.tolist(), dist.tolist())) == [(0, 4, 4)]

    def test_source_never_reports_itself(self):
        from repro.graph.traversal import bfs_distances_blocked

        g = cycle_graph(6)  # every vertex reaches itself around the cycle
        src, dst, _ = bfs_distances_blocked(g, np.arange(6, dtype=np.int64))
        assert not np.any(src == dst)

    def test_empty_sources(self):
        from repro.graph.traversal import bfs_distances_blocked

        g = path_graph(4)
        src, dst, dist = bfs_distances_blocked(g, np.empty(0, dtype=np.int64))
        assert len(src) == len(dst) == len(dist) == 0

    def test_validation(self):
        from repro.graph.traversal import bfs_distances_blocked

        g = path_graph(4)
        with pytest.raises(ValueError):
            bfs_distances_blocked(g, np.array([9]))
        with pytest.raises(ValueError):
            bfs_distances_blocked(g, np.array([0]), k=-1)
        with pytest.raises(ValueError):
            bfs_distances_blocked(g, np.array([0]), emit=np.zeros(2, dtype=bool))

    def test_duplicate_sources_collapsed(self):
        from repro.graph.traversal import bfs_distances_blocked

        g = path_graph(5)
        src, dst, dist = bfs_distances_blocked(
            g, np.array([1, 1, 1, 3], dtype=np.int64), k=2
        )
        triples = sorted(zip(src.tolist(), dst.tolist(), dist.tolist()))
        assert triples == [(1, 2, 1), (1, 3, 2), (3, 4, 1)]
