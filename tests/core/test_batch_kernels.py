"""Unit tests for the batch-engine kernels in repro.core.batch.

The differential suite pins end-to-end equivalence; these tests target
the kernels' edge cases directly — chunk splitting, the big-pair
spill-over, empty stores/probes — which small test graphs never reach
through the index APIs.
"""

import numpy as np
import pytest

from repro.core.batch import (
    MISSING_WEIGHT,
    KeyedRowStore,
    as_pair_arrays,
    gather_segments,
    has_edge_batch,
    plan_cross_products,
    segment_any,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnp_digraph


class TestAsPairArrays:
    def test_splits_columns(self):
        s, t = as_pair_arrays([(1, 2), (3, 4)], n=5)
        assert s.tolist() == [1, 3] and t.tolist() == [2, 4]

    def test_empty(self):
        for empty in ([], np.empty((0, 2), dtype=int)):
            s, t = as_pair_arrays(empty, n=3)
            assert len(s) == 0 and len(t) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            as_pair_arrays([(0, 3)], n=3)
        with pytest.raises(ValueError):
            as_pair_arrays([(-1, 0)], n=3)
        with pytest.raises(ValueError):
            as_pair_arrays([(0, 1, 2)], n=3)

    def test_float_pairs_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="integer"):
            as_pair_arrays(np.array([[0.9, 1.2]]), n=3)


class TestKeyedRowStore:
    def test_empty_store(self):
        store = KeyedRowStore.from_rows({}, n=4)
        assert len(store) == 0
        got = store.lookup(np.array([0, 1]), np.array([1, 2]))
        assert (got == MISSING_WEIGHT).all()

    def test_empty_probe(self):
        store = KeyedRowStore.from_rows({0: {1: 2}}, n=4)
        assert store.lookup(np.empty(0, np.int64), np.empty(0, np.int64)).shape == (0,)

    def test_unsorted_insertion_order(self):
        """Rows inserted with descending targets still look up correctly
        (the sortedness fast path must not skip a needed argsort)."""
        row = dict(zip(range(9, -1, -1), range(10)))  # 9->0, 8->1, ...
        store = KeyedRowStore.from_rows({3: row, 1: {5: 7}}, n=10)
        got = store.lookup(np.array([3, 3, 1]), np.array([9, 0, 5]))
        assert got.tolist() == [0, 9, 7]


class TestGatherSegments:
    def test_matches_adjacency(self):
        g = gnp_digraph(20, 0.15, seed=51)
        vertices = np.array([3, 7, 3, 0], dtype=np.int64)
        nbrs, owner, counts = gather_segments(g.out_indptr, g.out_indices, vertices)
        for j, v in enumerate(vertices):
            mine = nbrs[owner == j].tolist()
            assert mine == [int(x) for x in g.out_neighbors(int(v))]
            assert counts[j] == g.out_degree(int(v))

    def test_empty_frontier(self):
        g = gnp_digraph(5, 0.2, seed=52)
        nbrs, owner, counts = gather_segments(
            g.out_indptr, g.out_indices, np.empty(0, dtype=np.int64)
        )
        assert len(nbrs) == 0 and len(owner) == 0 and len(counts) == 0


class TestSegmentAny:
    def test_reduction(self):
        hits = np.array([False, True, False, False, True])
        owner = np.array([0, 0, 1, 2, 2])
        assert segment_any(hits, owner, 4).tolist() == [True, False, True, False]

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert segment_any(empty.astype(bool), empty, 3).tolist() == [False] * 3


class TestPlanCrossProducts:
    def _brute(self, g, s, t):
        product = set()
        for j, (a, b) in enumerate(zip(s.tolist(), t.tolist())):
            for u in g.out_neighbors(a):
                for v in g.in_neighbors(b):
                    product.add((j, int(u), int(v)))
        return product

    @pytest.mark.parametrize("chunk", [1, 3, 7, 1 << 21])
    def test_chunks_cover_full_product(self, chunk):
        g = gnp_digraph(15, 0.2, seed=53)
        rng = np.random.default_rng(53)
        s = rng.integers(0, g.n, size=12)
        t = rng.integers(0, g.n, size=12)
        big, chunks = plan_cross_products(g, s, t, chunk=chunk)
        seen = set()
        for sel, u, v, owner in chunks:
            assert len(u) == len(v) == len(owner)
            for uu, vv, oo in zip(u.tolist(), v.tolist(), owner.tolist()):
                seen.add((int(sel[oo]), uu, vv))
        brute = self._brute(g, s, t)
        covered = {j for j, _, _ in brute}
        spilled = set(big.tolist())
        # Chunked blocks + spilled-big pairs partition the full product.
        assert {j for j, _, _ in seen}.isdisjoint(spilled)
        assert seen == {x for x in brute if x[0] not in spilled}
        for j in spilled:
            assert j in covered  # only non-empty products spill

    def test_big_pairs_exceed_chunk(self):
        g = gnp_digraph(15, 0.3, seed=54)
        s = np.arange(10, dtype=np.int64)
        t = np.arange(10, dtype=np.int64)
        oc = (g.out_indptr[s + 1] - g.out_indptr[s]).astype(int)
        ic = (g.in_indptr[t + 1] - g.in_indptr[t]).astype(int)
        big, chunks = plan_cross_products(g, s, t, chunk=2)
        list(chunks)
        assert set(big.tolist()) == {j for j in range(10) if oc[j] * ic[j] > 2}


class TestHasEdgeBatch:
    def test_matches_scalar(self):
        g = gnp_digraph(25, 0.1, seed=55)
        rng = np.random.default_rng(55)
        s = rng.integers(0, g.n, size=300)
        t = rng.integers(0, g.n, size=300)
        got = has_edge_batch(g, s, t)
        for i in range(len(s)):
            assert got[i] == g.has_edge(int(s[i]), int(t[i]))

    def test_edgeless_graph(self):
        g = DiGraph(4)
        assert not has_edge_batch(g, np.array([0, 1]), np.array([1, 2])).any()


class TestCoalescePairs:
    def test_dedup_and_inverse(self):
        from repro.core.batch import coalesce_pairs

        s = np.array([3, 0, 3, 0, 1])
        t = np.array([1, 2, 1, 2, 1])
        us, ut, inv = coalesce_pairs(s, t, 4)
        assert len(us) == 3
        assert np.array_equal(us[inv], s)
        assert np.array_equal(ut[inv], t)

    def test_no_duplicates_identity_coverage(self):
        from repro.core.batch import coalesce_pairs

        s = np.array([0, 1, 2])
        t = np.array([2, 1, 0])
        us, ut, inv = coalesce_pairs(s, t, 3)
        assert len(us) == 3
        assert np.array_equal(us[inv], s) and np.array_equal(ut[inv], t)

    def test_case_grouping_orders_by_code(self):
        from repro.core.batch import coalesce_pairs, case_codes

        rng = np.random.default_rng(7)
        n = 50
        s = rng.integers(0, n, 300)
        t = rng.integers(0, n, 300)
        flags = np.zeros(n, dtype=bool)
        flags[::3] = True
        codes = case_codes(flags[s], flags[t])
        us, ut, inv = coalesce_pairs(s, t, n, codes=codes)
        assert np.array_equal(us[inv], s) and np.array_equal(ut[inv], t)
        ucodes = case_codes(flags[us], flags[ut])
        assert np.all(np.diff(ucodes) >= 0)  # grouped: codes non-decreasing

    def test_empty(self):
        from repro.core.batch import coalesce_pairs

        empty = np.empty(0, dtype=np.int64)
        us, ut, inv = coalesce_pairs(empty, empty, 5, codes=empty)
        assert len(us) == 0 and len(ut) == 0 and len(inv) == 0
