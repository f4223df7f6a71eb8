"""Unit tests for the CSR DiGraph."""

import numpy as np
import pytest

from repro.graph.digraph import DiGraph


class TestConstruction:
    def test_empty_graph(self):
        g = DiGraph(0)
        assert g.n == 0 and g.m == 0

    def test_vertices_without_edges(self):
        g = DiGraph(5)
        assert g.n == 5 and g.m == 0
        assert list(g.out_neighbors(3)) == []

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DiGraph(-1)

    def test_basic_edges(self):
        g = DiGraph(3, [(0, 1), (1, 2)])
        assert g.m == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 2)
        assert not g.has_edge(1, 0)

    def test_duplicate_edges_collapsed(self):
        g = DiGraph(3, [(0, 1), (0, 1), (0, 1)])
        assert g.m == 1

    def test_self_loops_dropped_by_default(self):
        g = DiGraph(2, [(0, 0), (0, 1)])
        assert g.m == 1
        assert not g.has_edge(0, 0)

    def test_self_loops_kept_when_allowed(self):
        g = DiGraph(2, [(0, 0), (0, 1)], allow_self_loops=True)
        assert g.m == 2
        assert g.has_edge(0, 0)

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            DiGraph(2, [(0, 5)])
        with pytest.raises(ValueError, match="out of range"):
            DiGraph(2, [(-1, 0)])

    def test_malformed_edges_rejected(self):
        with pytest.raises(ValueError):
            DiGraph(3, [(0, 1, 2)])  # type: ignore[list-item]

    def test_neighbors_sorted(self):
        g = DiGraph(4, [(0, 3), (0, 1), (0, 2)])
        assert list(g.out_neighbors(0)) == [1, 2, 3]

    def test_from_csr_round_trip(self):
        g = DiGraph(4, [(0, 1), (0, 2), (2, 3)])
        h = DiGraph.from_csr(g.out_indptr, g.out_indices)
        assert g == h


CSR_FIELDS = ("out_indptr", "out_indices", "in_indptr", "in_indices")


def assert_same_csr(a: DiGraph, b: DiGraph) -> None:
    assert a.n == b.n and a.m == b.m
    for name in CSR_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


class TestArrayInput:
    """An ``(m, 2)`` array builds the same CSR as the list it holds."""

    @pytest.mark.parametrize("allow_self_loops", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_array_matches_list_of_tuples(self, seed, allow_self_loops):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 80))
        arr = rng.integers(0, n, size=(int(rng.integers(1, 500)), 2))
        loops = np.repeat(rng.integers(0, n, size=(4, 1)), 2, axis=1)
        arr = rng.permutation(np.concatenate([arr, arr[: len(arr) // 3], loops]))
        edges = [tuple(e) for e in arr.tolist()]
        from_list = DiGraph(n, edges, allow_self_loops=allow_self_loops)
        # An independent reference: per-vertex sorted neighbor sets.
        kept = {(u, v) for u, v in edges if allow_self_loops or u != v}
        assert from_list.to_dict() == {
            u: sorted(v for x, v in kept if x == u) for u in range(n)
        }
        for u in range(n):
            assert from_list.in_neighbors(u).tolist() == sorted(
                x for x, v in kept if v == u
            )
        for dtype in (np.int64, np.int32, np.uint16):
            assert_same_csr(
                DiGraph(n, arr.astype(dtype), allow_self_loops=allow_self_loops),
                from_list,
            )

    def test_empty_array(self):
        g = DiGraph(5, np.empty((0, 2), dtype=np.int64))
        assert_same_csr(g, DiGraph(5, []))
        assert g.m == 0

    def test_wrong_shape_array_rejected(self):
        for bad in (np.zeros((3, 3), dtype=np.int64), np.zeros(4, dtype=np.int64)):
            with pytest.raises(ValueError):
                DiGraph(4, bad)

    def test_out_of_range_array_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            DiGraph(2, np.array([[0, 5]]))


class TestLabels:
    def test_from_labeled(self):
        g = DiGraph.from_labeled([("x", "y"), ("y", "z")])
        assert g.n == 3 and g.m == 2
        assert g.vertex_id("x") == 0
        assert g.vertex_label(2) == "z"
        assert g.has_labels

    def test_unlabeled_graph_rejects_label_lookup(self):
        g = DiGraph(2, [(0, 1)])
        assert not g.has_labels
        with pytest.raises(ValueError, match="labels"):
            g.vertex_id("x")
        with pytest.raises(ValueError, match="labels"):
            g.vertex_label(0)


class TestDegrees:
    def test_in_out_degrees(self):
        g = DiGraph(4, [(0, 1), (0, 2), (1, 2), (3, 2)])
        assert g.out_degree(0) == 2
        assert g.in_degree(2) == 3
        assert g.in_degree(0) == 0

    def test_degree_union_semantics(self):
        # reciprocal edge: neighbor counted once in Deg (paper Table 1)
        g = DiGraph(2, [(0, 1), (1, 0)])
        assert g.degree(0) == 1
        assert g.degrees()[0] == 2  # cheap in+out version counts both

    def test_degree_vectors(self):
        g = DiGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert list(g.out_degrees()) == [2, 1, 0]
        assert list(g.in_degrees()) == [0, 1, 2]
        assert list(g.degrees()) == [2, 2, 2]


class TestViews:
    def test_edges_iteration(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        g = DiGraph(3, edges)
        assert sorted(g.edges()) == sorted(edges)

    def test_edge_array_matches_edges(self):
        g = DiGraph(5, [(0, 4), (2, 1), (3, 3), (4, 0)])
        arr = g.edge_array()
        assert sorted(map(tuple, arr.tolist())) == sorted(g.edges())

    def test_reverse(self):
        g = DiGraph(3, [(0, 1), (1, 2)])
        r = g.reverse()
        assert r.has_edge(1, 0) and r.has_edge(2, 1)
        assert not r.has_edge(0, 1)
        assert r.m == g.m

    def test_reverse_of_reverse_is_original(self):
        g = DiGraph(4, [(0, 1), (2, 3), (1, 3)])
        assert g.reverse().reverse() == g

    def test_subgraph(self):
        g = DiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, mapping = g.subgraph([1, 2, 3])
        assert sub.n == 2 + 1
        assert sub.m == 2  # 1->2 and 2->3 survive
        assert list(mapping) == [1, 2, 3]

    def test_subgraph_out_of_range(self):
        g = DiGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.subgraph([5])

    def test_undirected_edges(self):
        g = DiGraph(3, [(0, 1), (1, 0), (1, 2)])
        assert g.undirected_edges() == {frozenset((0, 1)), frozenset((1, 2))}

    def test_to_dict(self):
        g = DiGraph(3, [(0, 1), (0, 2)])
        assert g.to_dict() == {0: [1, 2], 1: [], 2: []}

    def test_adjacency_lists_cached_and_correct(self):
        g = DiGraph(4, [(0, 1), (0, 3), (2, 1)])
        out = g.out_lists()
        assert out == [[1, 3], [], [1], []]
        assert g.out_lists() is out  # cached
        assert g.in_lists() == [[], [0, 2], [], [0]]
        assert all(isinstance(v, int) for row in out for v in row)


class TestDunder:
    def test_len(self):
        assert len(DiGraph(7)) == 7

    def test_equality_and_hash(self):
        a = DiGraph(3, [(0, 1), (1, 2)])
        b = DiGraph(3, [(1, 2), (0, 1)])
        c = DiGraph(3, [(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_storage_bytes_positive(self):
        g = DiGraph(10, [(i, i + 1) for i in range(9)])
        assert g.storage_bytes() > 0


class TestFromCsrValidated:
    """from_csr with both directions: install-fast, but validate invariants."""

    def test_dual_direction_round_trip(self):
        g = DiGraph(5, [(0, 1), (0, 4), (2, 1), (3, 2)])
        h = DiGraph.from_csr(
            g.out_indptr,
            g.out_indices,
            in_indptr=g.in_indptr,
            in_indices=g.in_indices,
        )
        assert g == h
        assert h.m == g.m
        assert [int(v) for v in h.in_neighbors(1)] == [0, 2]

    def test_partial_direction_pair_rejected(self):
        g = DiGraph(3, [(0, 1)])
        with pytest.raises(ValueError, match="both"):
            DiGraph.from_csr(g.out_indptr, g.out_indices, in_indptr=g.in_indptr)

    def test_bad_indptr_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match="indptr"):
            DiGraph.from_csr(
                np.array([0, 2, 1]),  # non-monotone
                np.array([1, 0], dtype=np.int32),
                in_indptr=np.array([0, 1, 2]),
                in_indices=np.array([1, 0], dtype=np.int32),
            )
        with pytest.raises(ValueError, match="indptr"):
            DiGraph.from_csr(
                np.array([0, 1, 3]),  # ends past the index array
                np.array([1, 0], dtype=np.int32),
                in_indptr=np.array([0, 1, 2]),
                in_indices=np.array([1, 0], dtype=np.int32),
            )

    def test_out_of_range_indices_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match="range"):
            DiGraph.from_csr(
                np.array([0, 1, 2]),
                np.array([5, 0], dtype=np.int32),
                in_indptr=np.array([0, 1, 2]),
                in_indices=np.array([1, 0], dtype=np.int32),
            )

    def test_unsorted_row_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match="ascending"):
            DiGraph.from_csr(
                np.array([0, 2, 2, 2]),
                np.array([2, 1], dtype=np.int32),  # descending within row 0
                in_indptr=np.array([0, 0, 1, 2]),
                in_indices=np.array([0, 0], dtype=np.int32),
            )

    def test_mismatched_edge_counts_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match="edge counts"):
            DiGraph.from_csr(
                np.array([0, 1, 1]),
                np.array([1], dtype=np.int32),
                in_indptr=np.array([0, 0, 0]),
                in_indices=np.array([], dtype=np.int32),
            )

    def test_non_transpose_directions_rejected(self):
        import numpy as np

        a = DiGraph(4, [(0, 1), (1, 2), (2, 3)])
        b = DiGraph(4, [(3, 0), (3, 1), (3, 2)])  # same n and m
        with pytest.raises(ValueError, match="transpose"):
            DiGraph.from_csr(
                a.out_indptr,
                a.out_indices,
                in_indptr=b.in_indptr,
                in_indices=b.in_indices,
            )
