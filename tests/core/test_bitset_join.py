"""Differential suite for the bitset-join batch paths.

Pins, across power-law "celebrity" graphs and the hub×hub crossfire
scenario the paper's §1 opens with, that every path the memory gate
(``bitset_matrix_bytes``) can steer ``query_batch`` onto agrees bit
for bit: the level stack, the one-view bitset join, the chunked
cross-product path (including its forced hub spill), the memoized
(h,k)-reach walk, the per-pair scalar ``query``, and the BFS
ground-truth oracle — for KReach and HKReach alike, over
k ∈ {0, 1, 2, 6, None}.
"""

import numpy as np
import pytest

import repro.core.index_graph as index_graph_module
import repro.core.kreach as kreach_module
from repro.bitsets.ops import (
    and_any,
    bit_matrix,
    or_rows_segmented,
    probe_bits,
    words_for,
)
from repro.core import (
    CoverDistanceOracle,
    HKReachIndex,
    KReachIndex,
    vertex_cover_2approx,
)
from repro.core.batch import KeyedRowStore, plan_cross_products
from repro.core.index_graph import IndexGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    celebrity_crossfire_digraph,
    paper_example_graph,
    power_law_digraph,
)
from repro.graph.traversal import (
    bfs_distances_blocked,
    blocked_ball_probe,
    bulk_reaches_within,
    reaches_within_bfs,
)
from tests.conftest import gated_twin, scalar_batch

K_VALUES = (0, 1, 2, 6, None)


def celebrity_graph(seed: int) -> DiGraph:
    return power_law_digraph(140, 900, exponent=2.0, seed=seed)


def workload(g: DiGraph, seed: int, count: int = 1500) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, g.n, size=(count, 2), dtype=np.int64)


class TestKReachEngines:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("k", K_VALUES)
    def test_bitset_equals_chunked_scalar_and_oracle(self, seed, k):
        g = celebrity_graph(seed)
        # The §4.3 cover leaves hub pairs to Cases 2-4 (V is all Case 1).
        idx = KReachIndex(g, k, cover=vertex_cover_2approx(g))
        pairs = workload(g, seed)
        stack = idx.query_batch(pairs)
        bitset = gated_twin(idx, "bitset").query_batch(pairs)
        chunked = gated_twin(idx, "chunked").query_batch(pairs)
        scalar = scalar_batch(idx, pairs)
        assert np.array_equal(bitset, stack)
        assert np.array_equal(bitset, chunked)
        assert np.array_equal(bitset, scalar)
        for (s, t), got in list(zip(pairs, bitset))[:120]:
            assert got == reaches_within_bfs(g, int(s), int(t), k), (s, t, k)

    @pytest.mark.parametrize("k", K_VALUES)
    def test_hub_cross_pairs_no_spill(self, k, monkeypatch):
        """Celebrity×celebrity Case-4 pairs: bitset == chunked even when a
        tiny chunk budget forces every pair onto the hub-spill path."""
        g = celebrity_crossfire_digraph(60, 12, 30, seed=3)
        cover = frozenset(range(60))
        idx = KReachIndex(g, k, cover=cover)
        rng = np.random.default_rng(3)
        pairs = rng.integers(60, g.n, size=(300, 2), dtype=np.int64)
        assert np.all(idx.query_case_batch(pairs)[pairs[:, 0] != pairs[:, 1]] == 4)
        bitset = gated_twin(idx, "bitset").query_batch(pairs)
        chunked_idx = gated_twin(idx, "chunked")
        assert np.array_equal(bitset, idx.query_batch(pairs))
        assert np.array_equal(bitset, chunked_idx.query_batch(pairs))
        # Shrink the chunk so every non-trivial product takes the spill.
        monkeypatch.setattr(
            kreach_module,
            "plan_cross_products",
            lambda graph, s, t: plan_cross_products(graph, s, t, chunk=4),
        )
        spilled = chunked_idx.query_batch(pairs)
        assert np.array_equal(bitset, spilled)
        for (s, t), got in list(zip(pairs, bitset))[:60]:
            assert got == reaches_within_bfs(g, int(s), int(t), k)

    def test_auto_engine_memory_gate(self):
        g = celebrity_graph(2)
        pairs = workload(g, 2, 600)
        fits = KReachIndex(g, 6)
        gated = KReachIndex(g, 6, cover=fits.cover, bitset_matrix_bytes=0)
        assert fits._batch_views()[1] is not None
        assert gated._batch_views()[1] is None  # auto falls back to chunked
        assert np.array_equal(
            fits.query_batch(pairs), gated.query_batch(pairs)
        )

    @pytest.mark.parametrize("k", (1, 2, 6))
    def test_level_stack_gate(self, k, monkeypatch):
        """A ceiling that admits one view but not the level stack keeps
        ``auto`` on the keyed path, with the Case-4 join still on."""
        g = celebrity_graph(2)
        pairs = workload(g, 2, 600)
        fits = KReachIndex(g, k, cover=vertex_cover_2approx(g))
        one_view = KReachIndex(
            g,
            k,
            cover=fits.cover,
            bitset_matrix_bytes=fits.index_graph.link_matrix_bytes(),
        )
        lookups = []
        original = KeyedRowStore.lookup

        def spy(store, u, v):
            lookups.append(len(u))
            return original(store, u, v)

        monkeypatch.setattr(KeyedRowStore, "lookup", spy)
        expected = scalar_batch(one_view, pairs)
        assert one_view._batch_views()[0] is None
        assert one_view._batch_views()[1] is not None
        assert np.array_equal(one_view.query_batch(pairs), expected)
        assert lookups  # the keyed probes answered Cases 1-3
        assert fits._batch_views()[0] is not None
        assert np.array_equal(fits.query_batch(pairs), expected)

    def test_nreach_stack_is_one_view(self):
        g = celebrity_graph(2)
        fits = KReachIndex(g, None)
        idx = KReachIndex(
            g,
            None,
            cover=fits.cover,
            bitset_matrix_bytes=fits.index_graph.link_matrix_bytes(),
        )
        le2, le1, le_k = idx._batch_views()[0]
        assert le2 is le1 is le_k

    def test_prepare_batch_skips_keyed_store_when_stack_fits(self):
        g = celebrity_graph(1)
        idx = KReachIndex(g, 6).prepare_batch()
        assert idx._batch_views()[0] is not None
        assert idx.index_graph._store is None
        assert idx.index_graph._targets is None  # no CSR derived either
        gated = KReachIndex(g, 6, cover=idx.cover, bitset_matrix_bytes=0)
        assert gated.prepare_batch().index_graph._store is not None

    def test_auto_engine_never_plans_cross_products(self, monkeypatch):
        """Acceptance: when the level stack fits, no pair touches the
        cross-product planner (and hence never the hub spill) or the
        keyed row store."""
        g = celebrity_crossfire_digraph(60, 12, 30, seed=7)
        idx = KReachIndex(g, 6, cover=frozenset(range(60)))
        pairs = np.stack(
            [
                np.random.default_rng(7).integers(0, g.n, 400),
                np.random.default_rng(8).integers(0, g.n, 400),
            ],
            axis=1,
        )
        assert set(idx.query_case_batch(pairs).tolist()) == {1, 2, 3, 4}
        expected = scalar_batch(idx, pairs)

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("keyed path reached on auto path")

        monkeypatch.setattr(kreach_module, "plan_cross_products", boom)
        monkeypatch.setattr(KeyedRowStore, "lookup", boom)
        assert np.array_equal(idx.query_batch(pairs), expected)

    def test_engine_validation(self):
        idx = KReachIndex(paper_example_graph(), 3)
        with pytest.raises(TypeError, match="engine"):
            idx.query_batch([(0, 1)], engine="warp")


class TestHKReachEngines:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("h,k,strict", [
        (1, 0, False),
        (1, 1, False),
        (2, 2, False),
        (2, 6, True),
        (1, 6, True),
        (2, None, True),
    ])
    def test_bitset_equals_scalar_and_oracle(self, seed, h, k, strict):
        g = celebrity_graph(seed)
        idx = HKReachIndex(g, h, k, strict=strict)
        walk = HKReachIndex(
            g, h, k, cover=idx.cover, strict=strict, bitset_matrix_bytes=0
        )
        pairs = workload(g, seed)
        assert idx._bitset_ready()  # the default gate admits the planes
        assert idx.index_graph.levels is not None
        assert walk._bitset_ready() == (walk.cover_size == 0)  # gate 0: walk
        bitset = idx.query_batch(pairs)
        assert np.array_equal(bitset, walk.query_batch(pairs))
        for (s, t), got in list(zip(pairs, bitset))[:120]:
            assert got == idx.query(int(s), int(t))
            assert got == reaches_within_bfs(g, int(s), int(t), k), (s, t, h, k)

    @pytest.mark.parametrize("k", (6, None))
    def test_hub_cross_pairs(self, k):
        g = celebrity_crossfire_digraph(60, 12, 30, seed=5)
        idx = HKReachIndex(g, 2, k, cover=frozenset(range(60)))
        rng = np.random.default_rng(5)
        pairs = rng.integers(60, g.n, size=(300, 2), dtype=np.int64)
        assert idx._bitset_ready()
        assert np.array_equal(idx.query_batch(pairs), scalar_batch(idx, pairs))

    def test_auto_engine_memory_gate(self):
        g = celebrity_graph(3)
        pairs = workload(g, 3, 600)
        fits = HKReachIndex(g, 2, 6)
        gated = HKReachIndex(g, 2, 6, cover=fits.cover, bitset_matrix_bytes=0)
        assert fits._bitset_ready()
        assert not gated._bitset_ready()
        assert np.array_equal(fits.query_batch(pairs), gated.query_batch(pairs))

    def test_engine_validation(self):
        idx = HKReachIndex(paper_example_graph(), 2, 5)
        with pytest.raises(TypeError, match="engine"):
            idx.query_batch([(0, 1)], engine="warp")


class TestOracleBitsetJoin:
    @pytest.mark.parametrize("matrix_bytes", [None, 0])
    def test_threshold_batches_match_distances(self, matrix_bytes):
        g = celebrity_graph(1)
        kwargs = {} if matrix_bytes is None else {"bitset_matrix_bytes": 0}
        oracle = CoverDistanceOracle(g, **kwargs)
        pairs = workload(g, 1, 800)
        dist = oracle.distance_batch(pairs)
        assert np.array_equal(oracle.reaches_batch(pairs), dist < np.inf)
        for k in (0, 1, 2, 6, 40):
            assert np.array_equal(
                oracle.reaches_within_batch(pairs, k), dist <= k
            ), k


class TestLinkMatrix:
    def test_matches_weighted_edges(self):
        g = celebrity_graph(0)
        idx = KReachIndex(g, 6)
        ig = idx.index_graph
        pos = {int(v): i for i, v in enumerate(ig.cover_ids)}
        for budget in (4, 5, 6, None):
            matrix = ig.link_matrix(budget)
            expect = np.zeros(matrix.shape, dtype=np.uint64)
            for u, v, w in ig.weighted_edges():
                if v in pos and (budget is None or w <= budget):
                    j = pos[v]
                    expect[pos[u], j >> 6] |= np.uint64(1) << np.uint64(j & 63)
            assert np.array_equal(matrix, expect), budget

    def test_stack_matches_single_views(self, monkeypatch):
        """One-pass nested views equal the views built one at a time,
        across row blocks, mixed diagonals, and non-cover targets."""
        monkeypatch.setattr(index_graph_module, "_SCATTER_EDGES", 64)
        g = celebrity_graph(0)
        ig = KReachIndex(g, 6, cover=vertex_cover_2approx(g)).index_graph
        rows: dict[int, dict[int, int]] = {}
        for u, v, w in ig.weighted_edges():
            rows.setdefault(u, {})[v] = w
        rows[int(ig.cover_ids[0])][int(np.flatnonzero(ig.row_pos() < 0)[0])] = 5

        def build():
            return IndexGraph.from_rows(
                g.n, ig.cover_ids, rows, weight_base=4, weight_bits=2
            )

        hand, single = build(), build()
        specs = [(None, True), (3, False), (4, True), (5, False), (6, True)]
        stacked = hand.link_matrices(specs)
        pos = {int(v): i for i, v in enumerate(hand.cover_ids)}
        for (budget, diagonal), got in zip(specs, stacked):
            expect = np.zeros(got.shape, dtype=np.uint64)
            for u, v, w in hand.weighted_edges():
                if v in pos and (budget is None or w <= budget):
                    j = pos[v]
                    expect[pos[u], j >> 6] |= np.uint64(1) << np.uint64(j & 63)
            if diagonal:
                for j in range(len(pos)):
                    expect[j, j >> 6] |= np.uint64(1) << np.uint64(j & 63)
            assert np.array_equal(got, expect), budget
            assert np.array_equal(single.link_matrix(budget, diagonal=diagonal), got)
            assert hand.link_matrix(budget, diagonal=diagonal) is got  # cached

    def test_diagonal_and_cache(self):
        """A CSR-form graph caches each (budget, diagonal) view; the plane
        form serves the same views from its planes and caches nothing."""
        g = paper_example_graph()
        index = KReachIndex(g, 3)
        planes = index.index_graph
        ig = KReachIndex(g, 3, cover=index.cover, bitset_matrix_bytes=0).index_graph
        plain = ig.link_matrix(1)
        diag = ig.link_matrix(1, diagonal=True)
        size = ig.cover_size
        only_diag = bit_matrix(
            np.arange(size), np.arange(size), size, size
        )
        assert np.array_equal(diag, plain | only_diag)
        assert ig.link_matrix(1) is plain  # cached per (budget, diagonal)
        assert planes.link_matrix(1, diagonal=True) is planes.levels[0]
        for budget in (-1, 0, 1, 2, 3, 9, None):
            for diagonal in (False, True):
                assert np.array_equal(
                    planes.link_matrix(budget, diagonal=diagonal),
                    ig.link_matrix(budget, diagonal=diagonal),
                ), (budget, diagonal)
        assert not planes._matrices and planes._targets is None

    def test_bytes_model(self):
        ig = KReachIndex(paper_example_graph(), 3).index_graph
        assert ig.link_matrix_bytes() == ig.cover_size * words_for(ig.cover_size) * 8


class TestOpsKernels:
    def test_bit_matrix_roundtrip(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 7, size=200)
        cols = rng.integers(0, 130, size=200)
        mat = bit_matrix(rows, cols, 7, 130)
        for r in range(7):
            want = np.zeros(130, dtype=bool)
            want[np.unique(cols[rows == r])] = True
            got = np.unpackbits(
                mat[r].view(np.uint8), bitorder="little"
            )[:130].astype(bool)
            assert np.array_equal(got, want)

    def test_or_rows_and_any_probe(self):
        rng = np.random.default_rng(1)
        base = bit_matrix(
            rng.integers(0, 9, 300), rng.integers(0, 200, 300), 9, 200
        )
        rows = rng.integers(0, 9, size=40)
        owner = np.sort(rng.integers(0, 5, size=40))
        folded = or_rows_segmented(base, rows, owner, 5, max_words=8)
        for seg in range(5):
            want = np.zeros(base.shape[1], dtype=np.uint64)
            for r in rows[owner == seg]:
                want |= base[r]
            assert np.array_equal(folded[seg], want), seg
        assert and_any(folded, folded).tolist() == [
            bool(folded[i].any()) for i in range(5)
        ]
        probe_rows = rng.integers(0, 9, size=60)
        probe_cols = rng.integers(0, 200, size=60)
        got = probe_bits(base, probe_rows, probe_cols)
        for i in range(60):
            bit = (base[probe_rows[i], probe_cols[i] >> 6] >> np.uint64(
                probe_cols[i] & 63
            )) & np.uint64(1)
            assert got[i] == bool(bit)


class TestBlockedBallProbe:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_probes_match_scalar_bfs(self, seed):
        g = celebrity_graph(seed)
        rng = np.random.default_rng(seed)
        sources = np.unique(rng.integers(0, g.n, size=90))
        probe_src = rng.integers(0, len(sources), size=400)
        probe_dst = rng.integers(0, g.n, size=400)
        probe_depth = rng.integers(0, 5, size=400)
        depths = np.zeros(len(sources), dtype=np.int64)
        np.maximum.at(depths, probe_src, probe_depth)
        hits, _ = blocked_ball_probe(
            g, sources, probe_src, probe_dst, probe_depth, depths=depths
        )
        for i in range(400):
            s = int(sources[probe_src[i]])
            assert hits[i] == reaches_within_bfs(
                g, s, int(probe_dst[i]), int(probe_depth[i])
            ), i

    def test_triples_match_blocked_bfs(self):
        g = celebrity_graph(1)
        rng = np.random.default_rng(1)
        sources = np.unique(rng.integers(0, g.n, size=80))
        emit = np.zeros(g.n, dtype=bool)
        emit[rng.integers(0, g.n, size=40)] = True
        empty = np.empty(0, dtype=np.int64)
        _, (src_pos, dst, dist) = blocked_ball_probe(
            g,
            sources,
            empty,
            empty,
            empty,
            depths=np.full(len(sources), 3),
            emit=emit,
        )
        ref = bfs_distances_blocked(g, sources, k=3, emit=emit)
        got = sorted(zip(sources[src_pos].tolist(), dst.tolist(), dist.tolist()))
        want = sorted(zip(*(a.tolist() for a in ref)))
        assert got == want

    def test_requires_unique_sources(self):
        g = paper_example_graph()
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError):
            blocked_ball_probe(g, np.array([1, 1]), empty, empty, empty)

    @pytest.mark.parametrize("k", [0, 1, 3, None])
    def test_bulk_reaches_within(self, k):
        g = celebrity_crossfire_digraph(50, 10, 20, seed=2)
        rng = np.random.default_rng(2)
        s = rng.integers(0, g.n, size=500)
        t = rng.integers(0, g.n, size=500)
        got = bulk_reaches_within(g, s, t, k)
        for i in range(500):
            assert got[i] == reaches_within_bfs(g, int(s[i]), int(t[i]), k), i
