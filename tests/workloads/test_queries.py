"""Workload generator tests."""

import numpy as np
import pytest

from repro.core.kreach import KReachIndex
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnp_digraph, path_graph, star_graph
from repro.graph.traversal import reaches_within_bfs
from repro.workloads import (
    case_distribution,
    celebrity_pairs,
    positive_pairs,
    random_pairs,
)
from tests.conftest import scalar_batch


class TestRandomPairs:
    def test_shape_and_bounds(self):
        pairs = random_pairs(50, 200, rng=np.random.default_rng(1))
        assert pairs.shape == (200, 2)
        assert pairs.min() >= 0 and pairs.max() < 50

    def test_deterministic_with_rng(self):
        a = random_pairs(50, 100, rng=np.random.default_rng(3))
        b = random_pairs(50, 100, rng=np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_pairs(0, 10)
        with pytest.raises(ValueError):
            random_pairs(5, -1)

    def test_zero_count(self):
        assert random_pairs(5, 0).shape == (0, 2)


class TestCelebrityPairs:
    def test_one_endpoint_is_celebrity(self):
        g = star_graph(100)
        pairs = celebrity_pairs(g, 50, top_fraction=0.01, rng=np.random.default_rng(2))
        # the only high-degree vertex is the hub 0
        assert all(s == 0 or t == 0 for s, t in pairs)

    def test_both_sides_used(self):
        g = star_graph(100)
        pairs = celebrity_pairs(g, 200, top_fraction=0.01, rng=np.random.default_rng(3))
        assert any(s == 0 for s, t in pairs)
        assert any(t == 0 for s, t in pairs)

    def test_empty_graph(self):
        with pytest.raises(ValueError):
            celebrity_pairs(DiGraph(0), 5)


class TestPositivePairs:
    def test_all_positive_unbounded(self):
        g = gnp_digraph(30, 0.15, seed=1)
        pairs = positive_pairs(g, 40, rng=np.random.default_rng(1))
        for s, t in pairs:
            assert reaches_within_bfs(g, int(s), int(t), None)

    def test_all_positive_with_k(self):
        g = gnp_digraph(30, 0.15, seed=2)
        pairs = positive_pairs(g, 40, k=2, rng=np.random.default_rng(2))
        for s, t in pairs:
            assert reaches_within_bfs(g, int(s), int(t), 2)

    def test_impossible_sampling_raises(self):
        g = DiGraph(5)  # no edges at all: no positives exist
        with pytest.raises(RuntimeError, match="positive pairs"):
            positive_pairs(g, 5, max_attempts_factor=3)

    def test_dead_sources_bfs_once(self, monkeypatch):
        """Rejection sampling memoizes empty-ball sources: each dead
        vertex pays at most one BFS no matter how often it is redrawn."""
        import repro.workloads.queries as queries

        g = DiGraph(21, [(0, 1)])  # one live source, twenty dead ones
        calls: list[int] = []
        real = queries.bfs_distances_scalar

        def counting(graph, s, **kwargs):
            calls.append(s)
            return real(graph, s, **kwargs)

        monkeypatch.setattr(queries, "bfs_distances_scalar", counting)
        pairs = positive_pairs(g, 10, rng=np.random.default_rng(6))
        assert all((int(s), int(t)) == (0, 1) for s, t in pairs)
        dead_calls = [s for s in calls if s != 0]
        assert len(dead_calls) == len(set(dead_calls))

    def test_all_dead_fails_fast(self):
        """A graph whose every ball is empty raises as soon as all
        sources are known dead, instead of burning the attempt budget."""
        g = DiGraph(4)
        with pytest.raises(RuntimeError, match="positive pairs"):
            positive_pairs(g, 3, max_attempts_factor=10_000)


class TestCaseDistribution:
    def test_sums_to_one(self):
        g = gnp_digraph(40, 0.1, seed=4)
        idx = KReachIndex(g, 3)
        pairs = random_pairs(g.n, 500, rng=np.random.default_rng(4))
        dist = case_distribution(idx, pairs)
        assert set(dist) == {1, 2, 3, 4}
        assert abs(sum(dist.values()) - 1.0) < 1e-9

    def test_full_cover_is_all_case1(self):
        g = path_graph(6)
        idx = KReachIndex(g, 2, cover=frozenset(range(6)))
        pairs = random_pairs(6, 100, rng=np.random.default_rng(5))
        dist = case_distribution(idx, pairs)
        assert dist[1] == 1.0


class TestChurnTrace:
    def _graph(self):
        return gnp_digraph(30, 0.08, seed=5)

    def test_deterministic_with_rng(self):
        from repro.workloads import churn_trace

        g = self._graph()
        a = churn_trace(g, 40, rng=np.random.default_rng(4))
        b = churn_trace(g, 40, rng=np.random.default_rng(4))
        assert len(a) == len(b)
        for op_a, op_b in zip(a, b):
            assert op_a[0] == op_b[0]
            if op_a[0] == "query":
                assert np.array_equal(op_a[1], op_b[1])
            else:
                assert op_a[1:] == op_b[1:]

    def test_fixed_read_mix_and_batch_shape(self):
        from repro.workloads import churn_trace

        g = self._graph()
        trace = churn_trace(
            g, 40, read_fraction=0.75, batch_size=17,
            rng=np.random.default_rng(1),
        )
        queries = [op for op in trace if op[0] == "query"]
        assert len(queries) == 30  # exactly round(40 * 0.75), any seed
        for _, pairs in queries:
            assert pairs.shape == (17, 2)
            assert pairs.min() >= 0 and pairs.max() < g.n

    def test_writes_track_live_edges(self):
        from repro.workloads import churn_trace

        g = self._graph()
        trace = churn_trace(
            g, 60, read_fraction=0.3, rng=np.random.default_rng(2)
        )
        live = {(int(u), int(v)) for u, v in g.edges()}
        for op in trace:
            if op[0] == "insert":
                assert op[1] != op[2]
                assert (op[1], op[2]) not in live
                live.add((op[1], op[2]))
            elif op[0] == "delete":
                assert (op[1], op[2]) in live
                live.discard((op[1], op[2]))

    def test_write_burst_multiplies_writes(self):
        from repro.workloads import churn_trace

        g = self._graph()
        trace = churn_trace(
            g, 24, read_fraction=0.5, write_burst=4,
            rng=np.random.default_rng(3),
        )
        writes = sum(1 for op in trace if op[0] != "query")
        assert writes == 12 * 4  # every write event expands into a burst

    def test_validation(self):
        from repro.workloads import churn_trace

        g = self._graph()
        with pytest.raises(ValueError):
            churn_trace(g, -1)
        with pytest.raises(ValueError):
            churn_trace(g, 5, read_fraction=1.5)
        with pytest.raises(ValueError):
            churn_trace(g, 5, insert_fraction=-0.1)
        with pytest.raises(ValueError):
            churn_trace(g, 5, batch_size=0)
        with pytest.raises(ValueError):
            churn_trace(g, 5, write_burst=0)

    def test_trace_drives_dynamic_index(self):
        from repro.core import DynamicKReachIndex
        from repro.workloads import churn_trace

        g = self._graph()
        trace = churn_trace(
            g, 30, read_fraction=0.5, batch_size=32,
            rng=np.random.default_rng(6),
        )
        dyn = DynamicKReachIndex(g, 3)
        for op in trace:
            if op[0] == "query":
                answers = dyn.query_batch(op[1])
                assert np.array_equal(answers, scalar_batch(dyn, op[1]))
            elif op[0] == "insert":
                dyn.insert_edge(op[1], op[2])
            else:
                dyn.delete_edge(op[1], op[2])
