"""IndexGraph substrate tests.

The central invariant of the CSR-native refactor: the **serial**
per-source sweep (``tests.conftest.serial_index``, the oracle) and the
**blocked** bit-parallel MS-BFS builder produce bit-identical
:class:`~repro.core.index_graph.IndexGraph` contents for every ``k``
(k=None included), on randomized graphs.  Plus unit coverage for the
structure's views and conversion helpers.
"""

import numpy as np
import pytest

from repro.core.general_k import CoverDistanceOracle
from repro.core.hkreach import HKReachIndex
from repro.core.index_graph import (
    IndexGraph,
    cover_triples_blocked,
    cover_triples_serial,
)
from repro.core.kreach import KReachIndex
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnp_digraph, paper_example_graph, path_graph
from tests.conftest import serial_index


class TestIndexGraphUnit:
    def test_from_rows_round_trip(self):
        rows = {1: {4: 2, 2: 1}, 4: {1: 3}}
        ig = IndexGraph.from_rows(6, [1, 4, 5], rows)
        assert ig.cover_size == 3  # cover vertex 5 keeps an (empty) row
        assert ig.edge_count == 3
        assert ig.rows_dict() == rows
        assert ig.weighted_edges() == [(1, 2, 1), (1, 4, 2), (4, 1, 3)]

    def test_weight_of(self):
        ig = IndexGraph.from_rows(8, [0, 3], {0: {3: 2, 5: 1}})
        assert ig.weight_of(0, 3) == 2
        assert ig.weight_of(0, 4) is None
        assert ig.weight_of(3, 0) is None  # empty row
        assert ig.weight_of(7, 0) is None  # not in cover
        assert ig.weight_of(-1, 0) is None

    def test_keys_sorted_and_flat_agree(self):
        rng = np.random.default_rng(5)
        g = gnp_digraph(40, 0.1, seed=5)
        idx = KReachIndex(g, 4)
        ig = idx.index_graph
        keys = ig.keys()
        assert bool(np.all(keys[:-1] < keys[1:]))
        flat = ig.flat()
        for u, v, w in ig.weighted_edges():
            assert flat[u * g.n + v] == w
        assert len(flat) == ig.edge_count

    def test_quantization_floor(self):
        src = np.array([0, 0, 0])
        dst = np.array([1, 2, 3])
        dist = np.array([1, 4, 5])
        ig = IndexGraph.from_triples(
            4, [0, 1, 2, 3], src, dst, dist, floor=3, weight_bits=2
        )
        assert [w for _, _, w in ig.weighted_edges()] == [3, 4, 5]
        assert ig.packed.to_list() == [0, 1, 2]  # stored as w - floor

    def test_zero_weights(self):
        ig = IndexGraph.from_triples(
            3,
            [0, 1],
            np.array([0]),
            np.array([1]),
            np.array([7]),
            zero_weights=True,
            weight_bits=1,
        )
        assert ig.weighted_edges() == [(0, 1, 0)]

    def test_source_outside_cover_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            IndexGraph.from_triples(
                4, [0], np.array([2]), np.array([0]), np.array([1])
            )

    def test_target_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            IndexGraph.from_triples(
                4, [0], np.array([0]), np.array([9]), np.array([1])
            )

    def test_empty(self):
        ig = IndexGraph.from_rows(5, [], {})
        assert ig.cover_size == 0 and ig.edge_count == 0
        assert ig.weighted_edges() == []
        assert ig.flat() == {}

    def test_equality(self):
        a = IndexGraph.from_rows(6, [1, 4], {1: {4: 2}})
        b = IndexGraph.from_rows(6, [1, 4], {1: {4: 2}})
        c = IndexGraph.from_rows(6, [1, 4], {1: {4: 3}})
        assert a == b
        assert a != c


class TestTripleProducersAgree:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, None])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_serial_equals_blocked(self, k, seed):
        g = gnp_digraph(70, 0.06, seed=seed)
        idx = KReachIndex(g, 2)  # any cover works; reuse its pick
        cover = idx.cover
        s1 = sorted(zip(*(a.tolist() for a in cover_triples_serial(g, cover, k))))
        s2 = sorted(zip(*(a.tolist() for a in cover_triples_blocked(g, cover, k))))
        assert s1 == s2

    def test_wide_cover_crosses_block_boundary(self):
        # >64 sources forces multiple uint64 blocks through the kernel.
        g = gnp_digraph(200, 0.03, seed=9)
        cover = frozenset(range(0, 200, 2))  # 100 sources
        s1 = sorted(zip(*(a.tolist() for a in cover_triples_serial(g, cover, 4))))
        s2 = sorted(zip(*(a.tolist() for a in cover_triples_blocked(g, cover, 4))))
        assert s1 == s2


class TestBuilderDifferential:
    """Serial and blocked builders: identical IndexGraphs."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, None])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_randomized_graphs(self, k, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 90))
        g = gnp_digraph(n, float(rng.uniform(0.02, 0.12)), seed=100 + seed)
        serial = serial_index(g, k)
        blocked = KReachIndex(g, k, cover=serial.cover)
        assert serial.index_graph == blocked.index_graph, (k, seed)
        # And the assembled indexes answer identically.
        pairs = rng.integers(0, g.n, size=(200, 2))
        assert np.array_equal(
            serial.query_batch(pairs), blocked.query_batch(pairs)
        )

    def test_paper_example(self):
        g = paper_example_graph()
        ids = {lab: g.vertex_id(lab) for lab in "abcdefghij"}
        cover = frozenset(ids[x] for x in "bdgi")
        for k in (3, None):
            serial = serial_index(g, k, cover)
            blocked = KReachIndex(g, k, cover=cover)
            assert serial.index_graph == blocked.index_graph

    def test_path_graph_edges(self):
        g = path_graph(6)
        serial = serial_index(g, 2)
        blocked = KReachIndex(g, 2, cover=serial.cover)
        assert serial.weighted_edges() == blocked.weighted_edges()

    def test_unknown_builder_rejected(self):
        # The per-source sweep lives in the tests only (serial_index);
        # the index has one construction path and no builder knob.
        for builder in ("serial", "blocked"):
            with pytest.raises(TypeError, match="builder"):
                KReachIndex(path_graph(3), 2, builder=builder)

    def test_disconnected_and_empty(self):
        g = DiGraph(5)  # no edges: empty cover, empty index
        for idx in (serial_index(g, 3), KReachIndex(g, 3)):
            assert idx.edge_count == 0
            assert idx.query(0, 0) and not idx.query(0, 1)


class TestSharedStorageConsumers:
    def test_keyed_store_zero_copy_view(self):
        g = gnp_digraph(50, 0.08, seed=11)
        idx = KReachIndex(g, 3).prepare_batch()
        store = idx.index_graph.keyed()
        assert store._keys is idx.index_graph.keys()

    def test_one_storage_model(self):
        """Every index's ``storage_bytes()`` is the one §4.3 model,
        :meth:`IndexGraph.csr_storage_bytes`, at its own weight width;
        the pinned values were read before the model was shared."""
        g = gnp_digraph(60, 0.06, seed=5)
        planes = KReachIndex(g, 6)
        assert planes.storage_bytes() == 12140
        assert planes.index_graph._targets is None  # no CSR derived
        assert KReachIndex(g, 6, bitset_matrix_bytes=0).storage_bytes() == 12140
        assert KReachIndex(g, None).storage_bytes() == 11472
        assert HKReachIndex(g, 2, 6).storage_bytes() == 4608
        oracle = CoverDistanceOracle(g)
        assert oracle.storage_bytes() == 12506
        assert oracle.storage_bytes() == oracle.index_graph.csr_storage_bytes(
            oracle.weight_bits()
        )


class TestDuplicateTriples:
    def test_duplicate_src_dst_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            IndexGraph.from_triples(
                5, [0], np.array([0, 0]), np.array([1, 1]), np.array([1, 2])
            )

    def test_for_kreach_goes_through_same_guard(self):
        with pytest.raises(ValueError, match="duplicate"):
            IndexGraph.for_kreach(
                4, [0], np.array([0, 0]), np.array([2, 2]), np.array([1, 1]), 3
            )


class TestSortedInput:
    """from_triples takes (src, dst)-ascending input without sorting;
    any other order is sorted first, with the same result."""

    @pytest.fixture(scope="class")
    def triples(self):
        g = gnp_digraph(120, 0.05, seed=31)
        cover = KReachIndex(g, 3).cover
        return g.n, cover, cover_triples_blocked(g, cover, 4)

    @pytest.mark.parametrize("floor", [None, 2])
    def test_shuffled_input_builds_the_same_graph(self, triples, floor):
        n, cover, (src, dst, dist) = triples
        perm = np.random.default_rng(31).permutation(len(src))
        want = IndexGraph.from_triples(n, cover, src, dst, dist, floor=floor)
        got = IndexGraph.from_triples(
            n, cover, src[perm], dst[perm], dist[perm], floor=floor
        )
        assert got == want
        assert np.array_equal(got.packed.words, want.packed.words)

    def test_sorted_input_with_duplicate_rejected(self, triples):
        n, cover, (src, dst, dist) = triples
        i = len(src) // 2
        src, dst, dist = (np.insert(a, i, a[i]) for a in (src, dst, dist))
        with pytest.raises(ValueError, match="duplicate"):
            IndexGraph.from_triples(n, cover, src, dst, dist)

    def test_sorted_input_with_source_outside_cover_rejected(self, triples):
        n, cover, (src, dst, dist) = triples
        outside = min(set(range(n)) - set(cover))
        i = int(np.searchsorted(src * n + dst, outside * n))
        src, dst, dist = (
            np.insert(a, i, v) for a, v in ((src, outside), (dst, 0), (dist, 1))
        )
        keys = src * n + dst
        assert bool(np.all(keys[1:] > keys[:-1]))
        with pytest.raises(ValueError, match="cover"):
            IndexGraph.from_triples(n, cover, src, dst, dist)

    @pytest.mark.parametrize("floor", [None, 2])
    def test_result_does_not_alias_caller_arrays(self, triples, floor):
        n, cover, (src, dst, dist) = triples
        src, dst, dist = src.copy(), dst.copy(), dist.copy()
        ig = IndexGraph.from_triples(n, cover, src, dst, dist, floor=floor)
        want = IndexGraph.from_triples(
            n, cover, src.copy(), dst.copy(), dist.copy(), floor=floor
        )
        src[:] = 0
        dst[:] = 0
        dist[:] = 3
        assert ig == want
