"""HKReachIndex unit and oracle tests."""

import numpy as np
import pytest

from repro.bitsets.ops import DEFAULT_MATRIX_BYTES
from repro.core.hkreach import HKReachIndex
from repro.core.kreach import KReachIndex
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnp_digraph, path_graph

from tests.conftest import all_pairs, brute_force_khop, graph_corpus


class TestValidation:
    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            HKReachIndex(path_graph(4), 0, 5)

    def test_negative_k(self):
        with pytest.raises(ValueError):
            HKReachIndex(path_graph(4), 1, -2)

    def test_definition2_constraint(self):
        with pytest.raises(ValueError, match="h < k/2"):
            HKReachIndex(path_graph(6), 2, 4)

    def test_strict_false_allows_small_k(self):
        idx = HKReachIndex(path_graph(6), 2, 4, strict=False)
        assert idx.h == 2 and idx.k == 4

    def test_unbounded_k_needs_no_constraint(self):
        idx = HKReachIndex(path_graph(6), 3, None)
        assert idx.k is None

    def test_invalid_cover_rejected_on_small_graph(self):
        g = path_graph(6)
        with pytest.raises(ValueError, match="hop vertex cover"):
            HKReachIndex(g, 2, 5, cover=frozenset())

    def test_query_out_of_range(self):
        idx = HKReachIndex(path_graph(4), 1, 3)
        with pytest.raises(ValueError):
            idx.query(0, 9)


class TestCoverFreePathFix:
    """Regression tests for the paper's missing boundary case: paths
    shorter than h can avoid the h-hop cover entirely."""

    def test_single_edge_with_empty_2hop_cover(self):
        # h=2 on a single edge: the cover is empty, yet s ->k t holds.
        g = DiGraph(2, [(0, 1)])
        idx = HKReachIndex(g, 2, 5)
        assert idx.cover == frozenset()
        assert idx.query(0, 1) is True
        assert idx.query(1, 0) is False

    def test_two_disjoint_edges_h3(self):
        g = DiGraph(4, [(0, 1), (2, 3)])
        idx = HKReachIndex(g, 3, 7)
        assert idx.query(0, 1) and idx.query(2, 3)
        assert not idx.query(0, 3)

    def test_length2_path_with_h3(self):
        # path of length 2 < h=3: cover may be empty; both hops work
        g = path_graph(3)
        idx = HKReachIndex(g, 3, 7)
        assert idx.query(0, 2) is True
        assert idx.query(2, 0) is False

    def test_direct_contact_respects_k(self):
        # dist(s, t) = 2 <= h, but k bounds the answer... k >= 2h+1 by
        # Definition 2, so use the non-strict mode to pin the boundary.
        g = path_graph(3)
        idx = HKReachIndex(g, 2, 1, strict=False)
        assert idx.query(0, 1) is True  # distance 1 <= k=1
        assert idx.query(0, 2) is False  # distance 2 > k=1


class TestAgainstKReach:
    def test_h1_matches_kreach_answers(self):
        for g in graph_corpus():
            if g.n == 0:
                continue
            for k in (5, None):
                hk = HKReachIndex(g, 1, k)
                kr = KReachIndex(g, k, cover=hk.cover)
                for s, t in all_pairs(g):
                    assert hk.query(s, t) == kr.query(s, t), (g, k, s, t)


class TestOracle:
    @pytest.mark.parametrize("h,k", [(1, 3), (1, None), (2, 5), (2, 7), (3, 7), (2, None)])
    def test_matches_bfs_on_corpus(self, h, k):
        """On the planes (default gate) and on the CSR (gate 0)."""
        for g in graph_corpus():
            for gate in (DEFAULT_MATRIX_BYTES, 0):
                idx = HKReachIndex(g, h, k, bitset_matrix_bytes=gate)
                assert (idx.index_graph.levels is None) == (gate == 0 < idx.cover_size)
                for s, t in all_pairs(g):
                    assert idx.query(s, t) == brute_force_khop(g, s, t, k), (
                        g, h, k, gate, s, t
                    )

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_bfs_random_nonstrict(self, seed):
        rng = np.random.default_rng(seed)
        g = gnp_digraph(int(rng.integers(8, 30)), 0.12, seed=seed)
        for h, k in ((2, 2), (2, 3), (3, 4), (4, 2)):
            for gate in (DEFAULT_MATRIX_BYTES, 0):
                idx = HKReachIndex(g, h, k, strict=False, bitset_matrix_bytes=gate)
                for _ in range(80):
                    s, t = int(rng.integers(0, g.n)), int(rng.integers(0, g.n))
                    assert idx.query(s, t) == brute_force_khop(g, s, t, k), (
                        h, k, gate, s, t
                    )

    def test_self_query(self):
        idx = HKReachIndex(path_graph(4), 2, 5)
        assert idx.query(2, 2)

    def test_reaches_alias(self):
        g = path_graph(5)
        idx = HKReachIndex(g, 2, None)
        assert idx.reaches(0, 4) and not idx.reaches(4, 0)


class TestQueryCase:
    def test_cases(self, paper_graph, paper_ids):
        idx = HKReachIndex(
            paper_graph, 2, 5, cover=frozenset(paper_ids[x] for x in "deg")
        )
        assert idx.query_case(paper_ids["e"], paper_ids["g"]) == 1
        assert idx.query_case(paper_ids["d"], paper_ids["h"]) == 2
        assert idx.query_case(paper_ids["a"], paper_ids["g"]) == 3
        assert idx.query_case(paper_ids["a"], paper_ids["j"]) == 4

    def test_out_of_range(self):
        idx = HKReachIndex(path_graph(3), 1, 3)
        with pytest.raises(ValueError):
            idx.query_case(5, 0)


class TestStorage:
    def test_weight_bits_strict(self):
        # 2h+1 = 5 distinct values -> 3 bits
        idx = HKReachIndex(path_graph(10), 2, 5)
        assert idx.weight_bits() == 3

    def test_weight_bits_unbounded(self):
        assert HKReachIndex(path_graph(6), 2, None).weight_bits() == 0

    @pytest.mark.parametrize("gate", [None, 0])
    def test_unbounded_stores_presence_only(self, gate):
        """k = None stores no distance: every stored link weighs 0, as in
        ``KReachIndex(g, None)``, on the planes and past the gate."""
        g = gnp_digraph(30, 0.1, seed=3)
        kwargs = {} if gate is None else {"bitset_matrix_bytes": gate}
        idx = HKReachIndex(g, 1, None, **kwargs)
        assert (idx.index_graph.levels is None) == (gate == 0)
        kr = KReachIndex(g, None, cover=idx.cover)
        assert idx.weighted_edges() == kr.weighted_edges()
        assert idx.weighted_edges() and {w for _, _, w in idx.weighted_edges()} == {0}
        for u, v, _ in idx.weighted_edges():
            assert idx.weight(u, v) == 0

    def test_weight_floor(self):
        # k=5, h=2: weights live in {1..5}, floored at k-2h = 1
        idx = HKReachIndex(path_graph(10), 2, 5, cover=frozenset(range(10)))
        weights = {w for _, _, w in idx.weighted_edges()}
        assert weights <= {1, 2, 3, 4, 5}

    def test_packed_weights(self):
        idx = HKReachIndex(path_graph(10), 2, 5, cover=frozenset(range(10)))
        floor = 5 - 4
        expected = [w - floor for _, _, w in idx.weighted_edges()]
        assert idx.packed_weights().to_list() == expected

    def test_packed_weights_rejected_unbounded(self):
        with pytest.raises(ValueError):
            HKReachIndex(path_graph(4), 1, None).packed_weights()

    def test_smaller_cover_than_kreach(self):
        # Corollary 1's practical effect: the 2-hop cover index is no
        # larger than the 1-hop cover index on a long path.
        g = path_graph(50)
        one = HKReachIndex(g, 1, 11)
        two = HKReachIndex(g, 2, 11)
        assert two.cover_size <= one.cover_size

    def test_storage_bytes_positive(self):
        idx = HKReachIndex(path_graph(20), 2, 7)
        assert idx.storage_bytes() > 0
        assert idx.edge_count >= 0 and idx.cover_size >= 0
