"""KReachIndex unit and oracle tests."""

import numpy as np
import pytest

from repro.core.kreach import KReachIndex
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    cycle_graph,
    gnp_digraph,
    paper_example_graph,
    path_graph,
    star_graph,
)

from tests.conftest import all_pairs, brute_force_khop, graph_corpus


class TestConstruction:
    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            KReachIndex(path_graph(3), -1)

    def test_invalid_cover_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="not a vertex cover"):
            KReachIndex(g, 2, cover=frozenset({0}))

    def test_cover_is_validated_and_stored(self):
        g = path_graph(4)
        idx = KReachIndex(g, 2, cover=frozenset({1, 2}))
        assert idx.cover == frozenset({1, 2})
        assert idx.contains(1) and not idx.contains(0)

    def test_weights_quantized_to_three_values(self):
        g = path_graph(12)
        idx = KReachIndex(g, 6)
        weights = {w for _, _, w in idx.weighted_edges()}
        assert weights <= {4, 5, 6}

    def test_weight_lookup(self):
        g = path_graph(5)
        idx = KReachIndex(g, 3, cover=frozenset(range(5)))
        assert idx.weight(0, 1) == 1
        assert idx.weight(0, 3) == 3
        assert idx.weight(0, 4) is None  # distance 4 > k
        assert idx.weight(3, 0) is None

    def test_k_zero_index_is_empty(self):
        idx = KReachIndex(path_graph(5), 0)
        assert idx.edge_count == 0

    def test_k_one_only_direct_edges(self):
        g = DiGraph(3, [(0, 1), (1, 2)])
        idx = KReachIndex(g, 1, cover=frozenset({0, 1, 2}))
        assert idx.weight(0, 1) == 1
        assert idx.weight(0, 2) is None

    def test_unbounded_mode_matches_bfs_built_index(self):
        # the TC-based n-reach build must equal a brute-force BFS build
        for g in graph_corpus():
            idx = KReachIndex(g, None)
            big_k = KReachIndex(g, g.n + 1, cover=idx.cover)
            assert {(u, v) for u, v, _ in idx.weighted_edges()} == {
                (u, v) for u, v, _ in big_k.weighted_edges()
            }, g

    def test_cover_strategies_accepted(self):
        g = gnp_digraph(12, 0.2, seed=0)
        for strategy in ("degree", "random", "input", "greedy"):
            idx = KReachIndex(g, 3, cover_strategy=strategy)
            assert idx.cover_size >= 0

    def test_include_degree_at_least(self):
        g = star_graph(20)
        idx = KReachIndex(g, 2, include_degree_at_least=5)
        assert idx.contains(0)


class TestQueryCases:
    def test_case_classification(self, paper_graph, paper_ids):
        idx = KReachIndex(
            paper_graph, 3, cover=frozenset(paper_ids[x] for x in "bdgi")
        )
        assert idx.query_case(paper_ids["b"], paper_ids["g"]) == 1
        assert idx.query_case(paper_ids["d"], paper_ids["h"]) == 2
        assert idx.query_case(paper_ids["a"], paper_ids["d"]) == 3
        assert idx.query_case(paper_ids["c"], paper_ids["f"]) == 4

    def test_case_out_of_range(self):
        idx = KReachIndex(path_graph(3), 2)
        with pytest.raises(ValueError):
            idx.query_case(0, 5)

    def test_self_query_true_even_for_k0(self):
        idx = KReachIndex(path_graph(3), 0)
        assert idx.query(1, 1)

    def test_query_out_of_range(self):
        idx = KReachIndex(path_graph(3), 2)
        with pytest.raises(ValueError):
            idx.query(0, 3)
        with pytest.raises(ValueError):
            idx.query(-1, 0)

    @pytest.mark.parametrize(
        "pair", [(-1, 0), (0, 5), (0, 1.7)], ids=["negative", "past-n", "float"]
    )
    def test_invalid_ids_raise_value_error(self, pair):
        """The scalar paths share the batch path's id contract."""
        idx = KReachIndex(cycle_graph(5), 2)
        with pytest.raises(ValueError):
            idx.query_batch([pair])
        with pytest.raises(ValueError, match="out of range|integer ids"):
            idx.query(*pair)
        with pytest.raises(ValueError, match="out of range|integer ids"):
            idx.query_case(*pair)

    def test_numpy_and_bool_ids_accepted(self):
        idx = KReachIndex(cycle_graph(5), 2)
        assert idx.query(np.int64(0), np.uint8(2)) == idx.query(0, 2)
        assert idx.query(False, True) == idx.query(0, 1)
        assert idx.query_case(np.int32(1), 3) == idx.query_case(1, 3)

    def test_case2_direct_edge_self_handshake(self):
        # s in cover, t not; path is the single edge s -> t.  The covering
        # in-neighbor of t is s itself — the paper's implicit self-loop.
        g = DiGraph(3, [(0, 1), (0, 2)])
        idx = KReachIndex(g, 1, cover=frozenset({0}))
        assert idx.query_case(0, 1) == 2
        assert idx.query(0, 1) is True

    def test_case3_direct_edge_self_handshake(self):
        g = DiGraph(3, [(1, 0), (2, 0)])
        idx = KReachIndex(g, 1, cover=frozenset({0}))
        assert idx.query_case(1, 0) == 3
        assert idx.query(1, 0) is True

    def test_case4_two_hop_self_handshake(self):
        # s -> u -> t with only u covered: out-neighbor of s equals the
        # in-neighbor of t.
        g = DiGraph(3, [(0, 1), (1, 2)])
        idx = KReachIndex(g, 2, cover=frozenset({1}))
        assert idx.query_case(0, 2) == 4
        assert idx.query(0, 2) is True
        # but k=1 must say no (the path has length 2)
        idx1 = KReachIndex(g, 1, cover=frozenset({1}))
        assert idx1.query(0, 2) is False

    def test_case4_no_predecessors(self):
        g = DiGraph(4, [(0, 1), (1, 2)])
        idx = KReachIndex(g, 3, cover=frozenset({1}))
        # vertex 3 has no in-neighbors; query into it is trivially false
        assert idx.query(0, 3) is False


class TestOracle:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 7, None])
    def test_matches_bfs_on_corpus(self, k):
        for g in graph_corpus():
            idx = KReachIndex(g, k)
            for s, t in all_pairs(g):
                assert idx.query(s, t) == brute_force_khop(g, s, t, k), (g, k, s, t)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bfs_random(self, seed):
        rng = np.random.default_rng(seed)
        g = gnp_digraph(int(rng.integers(10, 40)), 0.1, seed=seed)
        for k in (2, 5, None):
            idx = KReachIndex(g, k)
            for _ in range(100):
                s, t = int(rng.integers(0, g.n)), int(rng.integers(0, g.n))
                assert idx.query(s, t) == brute_force_khop(g, s, t, k)

    def test_cycle_graph_wraparound(self):
        g = cycle_graph(5)
        idx = KReachIndex(g, 3)
        assert idx.query(0, 3)
        assert not idx.query(0, 4)
        full = KReachIndex(g, None)
        assert full.query(0, 4)

    def test_reaches_alias(self):
        g = path_graph(4)
        idx = KReachIndex(g, None)
        assert idx.reaches(0, 3) and not idx.reaches(3, 0)


class TestStorage:
    def test_weight_bits(self):
        assert KReachIndex(path_graph(4), 3).weight_bits() == 2
        assert KReachIndex(path_graph(4), None).weight_bits() == 0

    def test_storage_bytes_grows_with_edges(self):
        small = KReachIndex(path_graph(4), 2)
        large = KReachIndex(path_graph(40), 10)
        assert large.storage_bytes() > small.storage_bytes()

    def test_packed_weights_round_trip(self):
        g = path_graph(12)
        idx = KReachIndex(g, 6)
        packed = idx.packed_weights()
        floor = 6 - 2
        expected = [w - floor for _, _, w in idx.weighted_edges()]
        assert packed.to_list() == expected

    def test_packed_weights_rejected_for_nreach(self):
        with pytest.raises(ValueError):
            KReachIndex(path_graph(4), None).packed_weights()

    def test_counts(self):
        g = paper_example_graph()
        ids = {lab: g.vertex_id(lab) for lab in "abcdefghij"}
        idx = KReachIndex(g, 3, cover=frozenset(ids[x] for x in "bdgi"))
        assert idx.cover_size == 4
        assert idx.edge_count == 5  # Figure 2: bd, bg, dg, di, gi

    def test_row_storage_knobs_removed(self, tmp_path):
        """The CSR (level stack in the memory gate, keyed rows past it) is
        the one row store: the WAH row knobs are gone from every entry
        point that took them."""
        from repro.core.condensed import CondensedKReach
        from repro.core.serialize import load_mmap, save_mmap

        g = gnp_digraph(20, 0.15, seed=3)
        path = tmp_path / "index.kr6"
        save_mmap(KReachIndex(g, 3), path)
        for build in (
            lambda: KReachIndex(g, 3, storage="wah"),
            lambda: KReachIndex(g, 3, compress_rows_at=32),
            lambda: load_mmap(path, compress_rows_at=2),
            lambda: CondensedKReach(g, None, storage="wah"),
        ):
            with pytest.raises(TypeError):
                build()
