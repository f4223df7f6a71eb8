"""SCC-condensation preprocessing tests.

Semantics under test (documented on :class:`CondensedKReach`):

* ``k=None`` — exact: condensing cannot change plain reachability, so
  the wrapper must agree with a direct build and with the BFS oracle on
  every pair of every graph, cyclic or not.
* finite ``k`` — refused with ValueError: condensing shortens paths
  through an SCC, so hop budgets are not preserved.
"""

import numpy as np
import pytest

from repro.core import CondensedKReach, KReachIndex
from repro.core.condensed import CondensedKReach as CondensedKReachDirect
from repro.graph.digraph import DiGraph
from repro.graph.generators import cycle_graph, gnp_digraph, random_dag
from repro.graph.scc import condensation
from tests.conftest import all_pairs, brute_force_khop, graph_corpus


def cyclic_corpus():
    return [
        cycle_graph(5),
        DiGraph(3, [(0, 1), (1, 0), (1, 2)]),
        gnp_digraph(18, 0.15, seed=4),  # dense enough for a big SCC
        gnp_digraph(30, 0.08, seed=5),
        DiGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (2, 3)]),
    ]


class TestExactUnboundedSemantics:
    def test_matches_direct_and_bfs_on_corpus(self):
        for g in graph_corpus() + cyclic_corpus():
            cond = CondensedKReach(g, None)
            direct = KReachIndex(g, None)
            for s, t in all_pairs(g):
                expect = brute_force_khop(g, s, t, None)
                assert cond.query(s, t) == expect, (g, s, t)
                assert direct.query(s, t) == expect, (g, s, t)

    def test_batch_matches_scalar(self):
        g = gnp_digraph(40, 0.07, seed=6)
        cond = CondensedKReach(g, None).prepare_batch()
        pairs = np.random.default_rng(0).integers(0, g.n, size=(600, 2))
        out = cond.query_batch(pairs)
        for (s, t), got in zip(pairs.tolist(), out.tolist()):
            assert got == cond.query(s, t)

    def test_same_component_is_always_reachable(self):
        g = cycle_graph(7)
        cond = CondensedKReach(g, None)
        assert cond.num_components == 1
        for s, t in all_pairs(g):
            assert cond.query(s, t)


class TestFiniteKSemantics:
    @pytest.mark.parametrize("k", [0, 2, 6])
    def test_finite_k_raises(self, k):
        """A finite k is refused on cyclic graphs and DAGs alike, before
        any condensation or index build."""
        for g in (cycle_graph(5), random_dag(15, 40, seed=7)):
            with pytest.raises(ValueError, match="k=None only"):
                CondensedKReach(g, k)
        # KReachIndex is the finite-k answerer: on a 5-cycle, 0 -> 3
        # takes 3 hops, which the condensation would have collapsed.
        assert not KReachIndex(cycle_graph(5), 2).query(0, 3)


class TestWiring:
    def test_reexported_from_core(self):
        assert CondensedKReach is CondensedKReachDirect

    def test_prebuilt_condensation_reused(self):
        g = gnp_digraph(20, 0.1, seed=9)
        c = condensation(g)
        cond = CondensedKReach(g, None, cond=c)
        assert cond.cond is c

    def test_mismatched_condensation_rejected(self):
        g = gnp_digraph(20, 0.1, seed=9)
        other = condensation(gnp_digraph(10, 0.2, seed=10))
        with pytest.raises(ValueError):
            CondensedKReach(g, None, cond=other)

    def test_kwargs_forwarded_to_index(self):
        g = gnp_digraph(25, 0.1, seed=11)
        cond = CondensedKReach(g, None, bitset_matrix_bytes=0)
        assert cond.index.bitset_matrix_bytes == 0
        direct = KReachIndex(g, None)
        pairs = np.random.default_rng(1).integers(0, g.n, size=(300, 2))
        assert np.array_equal(cond.query_batch(pairs), direct.query_batch(pairs))

    def test_storage_bytes_counts_component_map(self):
        g = gnp_digraph(30, 0.1, seed=12)
        cond = CondensedKReach(g, None)
        assert cond.storage_bytes() >= cond.index.storage_bytes()

    def test_query_out_of_range(self):
        cond = CondensedKReach(gnp_digraph(5, 0.3, seed=13), None)
        with pytest.raises(ValueError, match="out of range"):
            cond.query(0, 99)

    @pytest.mark.parametrize(
        "pair", [(-1, 0), (0, 5), (0, 1.7)], ids=["negative", "past-n", "float"]
    )
    def test_invalid_ids_raise_value_error(self, pair):
        """Ids are checked on the original graph, before the component
        map could wrap -1 to the last vertex or truncate a float."""
        cond = CondensedKReach(cycle_graph(5), None)
        with pytest.raises(ValueError):
            cond.query_batch([pair])
        with pytest.raises(ValueError, match="out of range|integer ids"):
            cond.query(*pair)
