"""Property-based tests (hypothesis) for the core invariants.

The central property of the whole reproduction: *every* index answers
exactly like bounded BFS, on arbitrary digraphs, covers, and budgets.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.general_k import CoverDistanceOracle
from repro.core.hkreach import HKReachIndex
from repro.core.kreach import KReachIndex
from repro.core.vertex_cover import (
    cover_from_strategy,
    hhop_vertex_cover,
    is_hhop_vertex_cover,
    is_vertex_cover,
    vertex_cover_2approx,
)
from repro.graph.digraph import DiGraph
from repro.graph.traversal import UNREACHED, bfs_distances, reaches_within_bfs


@st.composite
def digraphs(draw, max_n: int = 14):
    """A random small digraph with arbitrary edge structure."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edge_count = draw(st.integers(min_value=0, max_value=3 * n))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=0,
            max_size=edge_count,
        )
    )
    return DiGraph(n, edges)


@settings(max_examples=120, deadline=None)
@given(digraphs(), st.integers(min_value=0, max_value=8))
def test_kreach_equals_bfs(g, k):
    idx = KReachIndex(g, k)
    for s in range(g.n):
        truth = bfs_distances(g, s, k=k)
        for t in range(g.n):
            expected = truth[t] != UNREACHED
            assert idx.query(s, t) == expected


@settings(max_examples=60, deadline=None)
@given(digraphs())
def test_nreach_equals_reachability(g):
    idx = KReachIndex(g, None)
    for s in range(g.n):
        truth = bfs_distances(g, s)
        for t in range(g.n):
            assert idx.query(s, t) == (truth[t] != UNREACHED)


@settings(max_examples=80, deadline=None)
@given(
    digraphs(max_n=11),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=8),
)
def test_hkreach_equals_bfs(g, h, k):
    idx = HKReachIndex(g, h, k, strict=False)
    for s in range(g.n):
        for t in range(g.n):
            assert idx.query(s, t) == reaches_within_bfs(g, s, t, k), (h, k, s, t)


@settings(max_examples=100, deadline=None)
@given(digraphs())
def test_two_approx_cover_is_cover(g):
    assert is_vertex_cover(g, vertex_cover_2approx(g))


@settings(max_examples=60, deadline=None)
@given(digraphs(max_n=10), st.integers(min_value=1, max_value=3))
def test_hhop_cover_is_valid(g, h):
    cover = hhop_vertex_cover(g, h)
    assert is_hhop_vertex_cover(g, cover, h)


@settings(max_examples=60, deadline=None)
@given(digraphs(max_n=10))
def test_khop_monotone_in_k(g):
    """s ->k t implies s ->k' t for k' >= k (and the indexes agree)."""
    idx3 = KReachIndex(g, 3)
    idx5 = KReachIndex(g, 5, cover=idx3.cover)
    idx_inf = KReachIndex(g, None, cover=idx3.cover)
    for s in range(g.n):
        for t in range(g.n):
            if idx3.query(s, t):
                assert idx5.query(s, t)
            if idx5.query(s, t):
                assert idx_inf.query(s, t)


@settings(max_examples=60, deadline=None)
@given(digraphs(max_n=10))
def test_oracle_distance_matches_bfs(g):
    oracle = CoverDistanceOracle(g)
    for s in range(g.n):
        dist = bfs_distances(g, s)
        for t in range(g.n):
            got = oracle.distance(s, t)
            if dist[t] == UNREACHED:
                assert got == float("inf")
            else:
                assert got == int(dist[t])


@settings(max_examples=60, deadline=None)
@given(digraphs(max_n=10), st.integers(min_value=0, max_value=6))
def test_kreach_cover_choice_is_irrelevant(g, k):
    """Any valid vertex cover yields identical answers, V included."""
    a = KReachIndex(g, k, cover=cover_from_strategy(g, "degree"))
    b = KReachIndex(g, k, cover=cover_from_strategy(g, "greedy"))
    c = KReachIndex(g, k, cover=frozenset(range(g.n)))
    for s in range(g.n):
        for t in range(g.n):
            assert a.query(s, t) == b.query(s, t) == c.query(s, t)


@settings(max_examples=40, deadline=None)
@given(digraphs(max_n=10), st.integers(min_value=0, max_value=5))
def test_serialize_round_trip_property(g, k):
    """Saved-and-loaded indexes pass the validator and answer
    identically on every pair."""
    import tempfile
    from pathlib import Path

    from repro.core.serialize import load_mmap, save_mmap

    idx = KReachIndex(g, k)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.kr6"
        save_mmap(idx, path)
        loaded = load_mmap(path, validate=True)
        assert loaded.index_graph == idx.index_graph
        for s in range(g.n):
            for t in range(g.n):
                assert loaded.query(s, t) == idx.query(s, t)


@settings(max_examples=40, deadline=None)
@given(
    digraphs(max_n=8),
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.booleans()),
        min_size=0,
        max_size=12,
    ),
    st.integers(min_value=2, max_value=4),
)
def test_dynamic_index_matches_rebuild(g, updates, k):
    """Arbitrary insert/delete sequences preserve query equivalence."""
    from repro.core.dynamic import DynamicKReachIndex

    dyn = DynamicKReachIndex(g, k)
    for u, v, is_insert in updates:
        u %= g.n
        v %= g.n
        if u == v:
            continue
        if is_insert:
            dyn.insert_edge(u, v)
        else:
            dyn.delete_edge(u, v)
    snapshot = dyn.to_digraph()
    for s in range(g.n):
        for t in range(g.n):
            assert dyn.query(s, t) == reaches_within_bfs(snapshot, s, t, k)
