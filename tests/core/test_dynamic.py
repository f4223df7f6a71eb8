"""DynamicKReachIndex maintenance tests.

Central invariant: after ANY sequence of insertions and deletions the
dynamic index answers exactly like a k-reach index built from scratch on
the current graph.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.batch import KeyedRowStore
from repro.core.dynamic import DynamicKReachIndex
from repro.core.kreach import KReachIndex
from repro.core.vertex_cover import vertex_cover_2approx
from repro.graph.digraph import DiGraph
from repro.graph.generators import cycle_graph, gnp_digraph, path_graph

from tests.conftest import brute_force_khop, scalar_batch


def assert_matches_fresh(dyn: DynamicKReachIndex, k):
    g = dyn.to_digraph()
    for s in range(g.n):
        for t in range(g.n):
            expected = brute_force_khop(g, s, t, k)
            assert dyn.query(s, t) == expected, (k, s, t)


class TestBasics:
    def test_negative_k(self):
        with pytest.raises(ValueError):
            DynamicKReachIndex(path_graph(3), -1)

    @pytest.mark.parametrize(
        "pair", [(-1, 0), (0, 5), (0, 1.7)], ids=["negative", "past-n", "float"]
    )
    def test_invalid_ids_raise_value_error(self, pair):
        """Scalar reads and writes share the batch path's id contract."""
        dyn = DynamicKReachIndex(cycle_graph(5), 2)
        with pytest.raises(ValueError):
            dyn.query_batch([pair])
        for call in (dyn.query, dyn.query_case, dyn.insert_edge, dyn.delete_edge):
            with pytest.raises(ValueError, match="out of range|integer ids"):
                call(*pair)

    def test_numpy_ids_accepted(self):
        dyn = DynamicKReachIndex(cycle_graph(5), 2)
        dyn.insert_edge(np.int64(0), np.int32(3))
        assert dyn.query(np.int64(0), 3)
        assert dyn.pending_log()[-1, 1:].tolist() == [0, 3]

    @pytest.mark.parametrize("k", [2, None])
    def test_keeps_the_2approx_cover_where_v_fits(self, k):
        """Each insert relaxes over the cover members of two balls, so
        the dynamic tier keeps the §4.3 cover even where the static
        default would cover V — at build and at a rebuilding compact."""
        g = gnp_digraph(40, 0.08, seed=4)
        assert KReachIndex(g, k).cover == frozenset(range(g.n))
        dyn = DynamicKReachIndex(g, k)
        assert dyn.base.cover == frozenset(dyn._cover) == vertex_cover_2approx(g)
        dyn.delete_edge(*map(int, next(iter(g.edges()))))
        rebuilt = dyn.compact(rebuild=True)
        assert rebuilt.cover == vertex_cover_2approx(dyn.to_digraph())

    def test_initial_state_matches_static(self):
        g = gnp_digraph(20, 0.15, seed=1)
        dyn = DynamicKReachIndex(g, 3)
        static = KReachIndex(g, 3)
        for s in range(g.n):
            for t in range(g.n):
                assert dyn.query(s, t) == static.query(s, t)

    def test_insert_connects(self):
        g = DiGraph(4, [(0, 1), (2, 3)])
        dyn = DynamicKReachIndex(g, 3)
        assert not dyn.query(0, 3)
        dyn.insert_edge(1, 2)
        assert dyn.query(0, 3)

    def test_insert_respects_k(self):
        g = DiGraph(5, [(0, 1), (1, 2), (3, 4)])
        dyn = DynamicKReachIndex(g, 2)
        dyn.insert_edge(2, 3)
        assert dyn.query(0, 2)  # still within 2 hops
        assert not dyn.query(0, 4)  # 4 hops away now, k = 2

    def test_duplicate_insert_noop(self):
        g = path_graph(3)
        dyn = DynamicKReachIndex(g, 2)
        before = dyn.edge_count
        dyn.insert_edge(0, 1)
        assert dyn.edge_count == before

    def test_self_loop_ignored(self):
        dyn = DynamicKReachIndex(path_graph(3), 2)
        dyn.insert_edge(1, 1)
        assert not dyn.query(1, 0)

    def test_delete_disconnects(self):
        g = path_graph(4)
        dyn = DynamicKReachIndex(g, None)
        assert dyn.query(0, 3)
        dyn.delete_edge(1, 2)
        assert not dyn.query(0, 3)
        assert dyn.query(0, 1)

    def test_delete_missing_edge_noop(self):
        dyn = DynamicKReachIndex(path_graph(3), 2)
        dyn.delete_edge(2, 0)
        assert dyn.query(0, 2)

    def test_update_out_of_range(self):
        dyn = DynamicKReachIndex(path_graph(3), 2)
        with pytest.raises(ValueError):
            dyn.insert_edge(0, 9)
        with pytest.raises(ValueError):
            dyn.delete_edge(-1, 0)

    def test_cover_grows_when_uncovered_edge_arrives(self):
        g = DiGraph(4, [(0, 1)])
        dyn = DynamicKReachIndex(g, 2)
        before = dyn.cover_size
        dyn.insert_edge(2, 3)  # neither endpoint covered
        assert dyn.cover_size == before + 1
        assert dyn.query(2, 3)

    def test_to_digraph_snapshot(self):
        dyn = DynamicKReachIndex(path_graph(3), 2)
        dyn.insert_edge(2, 0)
        snap = dyn.to_digraph()
        assert snap.has_edge(2, 0)


class TestRandomSequences:
    @pytest.mark.parametrize("k", [2, 3, 5, None])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_insert_only_sequences(self, k, seed):
        rng = np.random.default_rng(seed)
        n = 18
        g = gnp_digraph(n, 0.05, seed=seed)
        dyn = DynamicKReachIndex(g, k)
        for step in range(25):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            dyn.insert_edge(u, v) if u != v else None
            if step % 5 == 4:
                assert_matches_fresh(dyn, k)
        assert_matches_fresh(dyn, k)

    @pytest.mark.parametrize("k", [2, 4, None])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_mixed_sequences(self, k, seed):
        rng = np.random.default_rng(seed)
        n = 15
        g = gnp_digraph(n, 0.12, seed=seed)
        dyn = DynamicKReachIndex(g, k)
        edges = [(u, v) for u, v in g.edges()]
        for step in range(30):
            if edges and rng.random() < 0.4:
                u, v = edges.pop(int(rng.integers(0, len(edges))))
                dyn.delete_edge(u, v)
            else:
                u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
                if u != v:
                    dyn.insert_edge(u, v)
                    edges.append((u, v))
            if step % 6 == 5:
                assert_matches_fresh(dyn, k)
        assert_matches_fresh(dyn, k)

    def test_k_zero_stays_trivial(self):
        dyn = DynamicKReachIndex(path_graph(4), 0)
        dyn.insert_edge(0, 2)
        assert not dyn.query(0, 2)
        assert dyn.query(1, 1)

    def test_rebuild_after_churn_matches_static(self):
        rng = np.random.default_rng(9)
        n = 14
        dyn = DynamicKReachIndex(DiGraph(n), 3)
        for _ in range(40):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v:
                dyn.insert_edge(u, v)
        static = KReachIndex(dyn.to_digraph(), 3)
        for s in range(n):
            for t in range(n):
                assert dyn.query(s, t) == static.query(s, t)


class TestFreshStaticDifferential:
    """Satellite invariant: after randomized interleaved insert/delete
    sequences the dynamic index answers exactly like a KReachIndex built
    from scratch on the current graph (not just like brute force)."""

    @pytest.mark.parametrize("k", [2, 3, 5, None])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_interleaved_matches_fresh_static(self, k, seed):
        rng = np.random.default_rng(seed)
        n = 16
        g = gnp_digraph(n, 0.1, seed=seed)
        dyn = DynamicKReachIndex(g, k)
        edges = list(g.edges())
        for step in range(35):
            if edges and rng.random() < 0.45:
                u, v = edges.pop(int(rng.integers(0, len(edges))))
                dyn.delete_edge(u, v)
            else:
                u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
                if u != v and (u, v) not in edges:
                    dyn.insert_edge(u, v)
                    edges.append((u, v))
            if step % 7 == 6:
                static = KReachIndex(dyn.to_digraph(), k)
                for s in range(n):
                    for t in range(n):
                        assert dyn.query(s, t) == static.query(s, t), (
                            k, seed, step, s, t,
                        )


class TestFreeze:
    def test_freeze_matches_dynamic_and_fresh(self):
        rng = np.random.default_rng(42)
        n = 18
        dyn = DynamicKReachIndex(gnp_digraph(n, 0.08, seed=42), 3)
        for _ in range(30):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u == v:
                continue
            if rng.random() < 0.3:
                dyn.delete_edge(u, v)
            else:
                dyn.insert_edge(u, v)
        frozen = dyn.freeze()
        fresh = KReachIndex(dyn.to_digraph(), 3)
        for s in range(n):
            for t in range(n):
                assert frozen.query(s, t) == dyn.query(s, t), (s, t)
                assert frozen.query(s, t) == fresh.query(s, t), (s, t)

    def test_freeze_uses_dynamic_cover_and_array_path(self):
        dyn = DynamicKReachIndex(path_graph(6), 2)
        dyn.insert_edge(5, 0)
        frozen = dyn.freeze()
        assert frozen.cover == frozenset(dyn._cover)
        assert frozen.edge_count == dyn.edge_count
        # The frozen index carries a canonical IndexGraph (array storage).
        assert frozen.index_graph.edge_count == dyn.edge_count

    @pytest.mark.parametrize("k", [0, None])
    def test_freeze_edge_modes(self, k):
        dyn = DynamicKReachIndex(path_graph(4), k)
        frozen = dyn.freeze()
        for s in range(4):
            for t in range(4):
                assert frozen.query(s, t) == dyn.query(s, t)

    def test_frozen_index_serializes(self, tmp_path):
        from repro.core.serialize import load_mmap, save_mmap

        dyn = DynamicKReachIndex(gnp_digraph(12, 0.2, seed=7), 3)
        dyn.insert_edge(0, 11)
        frozen = dyn.freeze()
        path = tmp_path / "frozen.kr6"
        save_mmap(frozen, path)
        loaded = load_mmap(path, validate=True)
        assert loaded.weighted_edges() == frozen.weighted_edges()


def oracle_batch(dyn: DynamicKReachIndex, pairs: np.ndarray) -> np.ndarray:
    """BFS ground truth for every pair on the current graph."""
    g = dyn.to_digraph()
    return np.fromiter(
        (brute_force_khop(g, int(s), int(t), dyn.k) for s, t in pairs),
        dtype=bool,
        count=len(pairs),
    )


def drive(dyn, edges, rng, n, steps, on_checkpoint, every=6):
    """Apply a random interleaved insert/delete trace, calling
    ``on_checkpoint`` periodically."""
    for step in range(steps):
        if edges and rng.random() < 0.45:
            u, v = edges.pop(int(rng.integers(0, len(edges))))
            dyn.delete_edge(u, v)
        else:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v and (u, v) not in edges:
                dyn.insert_edge(u, v)
                edges.append((u, v))
        if step % every == every - 1:
            on_checkpoint(step)


class TestBatchOverlay:
    """Under randomized interleaved insert/delete traces (with
    compactions mid-trace), ``DynamicKReachIndex.query_batch`` ≡
    ``freeze().query_batch`` ≡ the BFS oracle for k in {1, 2, 3, 6, None}
    (k=1 has an empty ≤k-2 view; k=3 is the churn benchmark's)."""

    @pytest.mark.parametrize("k", [1, 2, 3, 6, None])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_batch_matches_freeze_and_oracle(self, k, seed):
        rng = np.random.default_rng(seed)
        n = 16
        g = gnp_digraph(n, 0.12, seed=seed)
        dyn = DynamicKReachIndex(g, k, auto_compact=False)
        edges = list(g.edges())
        pairs = np.array(
            [(s, t) for s in range(n) for t in range(n)], dtype=np.int64
        )

        def check(step):
            expected = oracle_batch(dyn, pairs)
            got = dyn.query_batch(pairs)
            assert np.array_equal(got, expected), (k, seed, step)
            assert np.array_equal(scalar_batch(dyn, pairs), expected), (k, seed, step)
            if step == 17:
                dyn.compact()  # forced compaction mid-trace
                assert dyn.overlay_rows == 0 and dyn.pending_ops == 0
                assert np.array_equal(dyn.query_batch(pairs), expected)
            frozen = dyn.freeze()  # compaction promoted to the API
            assert np.array_equal(frozen.query_batch(pairs), expected)
            fresh = KReachIndex(dyn.to_digraph(), k)
            assert np.array_equal(fresh.query_batch(pairs), expected)

        drive(dyn, edges, rng, n, 30, check)

    @pytest.mark.parametrize("k", [2, None])
    def test_auto_compaction_stays_correct(self, k):
        rng = np.random.default_rng(5)
        n = 20
        g = gnp_digraph(n, 0.1, seed=5)
        dyn = DynamicKReachIndex(
            g, k, compaction_ratio=0.05, compaction_min_rows=1
        )
        edges = list(g.edges())
        pairs = np.array(
            [(s, t) for s in range(n) for t in range(n)], dtype=np.int64
        )
        drive(
            dyn, edges, rng, n, 30,
            lambda step: np.array_equal(
                dyn.query_batch(pairs), oracle_batch(dyn, pairs)
            ) or pytest.fail(f"mismatch at {step}"),
        )
        assert dyn.compactions > 0

    def test_batch_contract(self):
        dyn = DynamicKReachIndex(path_graph(5), 2)
        out = dyn.query_batch(np.empty((0, 2), dtype=np.int64))
        assert out.shape == (0,) and out.dtype == bool
        with pytest.raises(ValueError):
            dyn.query_batch([(0, 9)])
        with pytest.raises(TypeError, match="engine"):
            dyn.query_batch([(0, 1)], engine="chunked")

    def test_memory_gate_falls_back(self):
        g = gnp_digraph(30, 0.1, seed=2)
        dyn = DynamicKReachIndex(g, 3, bitset_matrix_bytes=0)
        dyn.insert_edge(0, 29)
        pairs = np.array(
            [(s, t) for s in range(30) for t in range(30)], dtype=np.int64
        )
        assert dyn._batch_views() == (None, None)  # gated off
        expected = oracle_batch(dyn, pairs)
        assert np.array_equal(dyn.query_batch(pairs), expected)

    def test_query_case_batch_matches_scalar(self):
        g = gnp_digraph(25, 0.1, seed=4)
        dyn = DynamicKReachIndex(g, 3)
        dyn.insert_edge(1, 2)
        dyn.delete_edge(1, 2)
        pairs = np.array(
            [(s, t) for s in range(25) for t in range(25)], dtype=np.int64
        )
        cases = dyn.query_case_batch(pairs)
        assert cases.dtype == np.uint8
        for (s, t), case in zip(pairs.tolist(), cases.tolist()):
            assert case == dyn.query_case(s, t)

    def test_prepare_batch_chains_and_settles(self):
        g = gnp_digraph(15, 0.15, seed=6)
        dyn = DynamicKReachIndex(g, 3, auto_compact=False)
        for u, v in list(g.edges())[:4]:
            dyn.delete_edge(u, v)
        assert dyn.prepare_batch() is dyn
        assert dyn.pending_repairs == 0  # settling drained the repairs


class TestOverlayLifecycle:
    def test_base_snapshot_is_immutable_between_compactions(self):
        g = gnp_digraph(18, 0.12, seed=7)
        dyn = DynamicKReachIndex(g, 3, auto_compact=False)
        base = dyn.base
        edge_count = base.index_graph.edge_count
        rng = np.random.default_rng(7)
        edges = list(g.edges())
        drive(dyn, edges, rng, 18, 12, lambda step: dyn.query_batch([(0, 1)]))
        assert dyn.base is base  # no compaction ran
        assert base.index_graph.edge_count == edge_count

    def test_overlay_grows_then_compaction_clears(self):
        g = path_graph(10)
        dyn = DynamicKReachIndex(g, 3, auto_compact=False)
        dyn.insert_edge(9, 0)
        dyn.delete_edge(0, 1)
        dyn.query(0, 5)  # settle deferred work into the overlay
        assert dyn.pending_ops == 2
        assert dyn.overlay_rows > 0
        base = dyn.compact()
        assert dyn.base is base
        assert dyn.overlay_rows == 0 and dyn.pending_ops == 0
        assert dyn.compactions == 1
        # compact with nothing pending is a no-op on the snapshot
        assert dyn.compact() is base

    def test_compact_rebuild_refreshes_cover(self):
        g = gnp_digraph(16, 0.1, seed=8)
        dyn = DynamicKReachIndex(g, 3, auto_compact=False)
        rng = np.random.default_rng(8)
        edges = list(g.edges())
        drive(dyn, edges, rng, 16, 16, lambda step: None)
        pairs = np.array(
            [(s, t) for s in range(16) for t in range(16)], dtype=np.int64
        )
        expected = oracle_batch(dyn, pairs)
        dyn.compact(rebuild=True)
        assert np.array_equal(dyn.query_batch(pairs), expected)

    def test_from_base_wraps_frozen_index(self):
        g = gnp_digraph(14, 0.15, seed=9)
        dyn = DynamicKReachIndex(g, 3)
        dyn.insert_edge(0, 13)
        frozen = dyn.freeze()
        again = DynamicKReachIndex.from_base(frozen)
        again.insert_edge(13, 0)
        dyn.insert_edge(13, 0)
        pairs = np.array(
            [(s, t) for s in range(14) for t in range(14)], dtype=np.int64
        )
        assert np.array_equal(again.query_batch(pairs), dyn.query_batch(pairs))

    def test_ctor_validation(self):
        with pytest.raises(ValueError):
            DynamicKReachIndex(path_graph(3), 2, compaction_ratio=0.0)
        with pytest.raises(ValueError):
            DynamicKReachIndex(path_graph(3), 2, compaction_min_rows=0)

    def test_pending_log_replay_reproduces_state(self):
        g = gnp_digraph(15, 0.12, seed=10)
        dyn = DynamicKReachIndex(g, 3, auto_compact=False)
        rng = np.random.default_rng(10)
        edges = list(g.edges())
        drive(dyn, edges, rng, 15, 14, lambda step: None)
        log = dyn.pending_log()
        assert log.shape == (dyn.pending_ops, 3)
        other = DynamicKReachIndex.from_base(dyn.base, auto_compact=False)
        other.replay(log)
        pairs = np.array(
            [(s, t) for s in range(15) for t in range(15)], dtype=np.int64
        )
        assert np.array_equal(other.query_batch(pairs), dyn.query_batch(pairs))
        assert other.edge_count == dyn.edge_count


def hub_dag(n: int, m: int, rng) -> np.ndarray:
    """``m`` distinct edges of a DAG with hubs: Chung–Lu endpoints (vertex
    0 heaviest), every edge pointing from the larger id to the smaller."""
    p = np.arange(1, n + 1, dtype=np.float64) ** -0.9
    p /= p.sum()
    u = rng.choice(n, size=4 * m, p=p)
    v = rng.choice(n, size=4 * m, p=p)
    keep = u != v
    keys = np.unique(np.maximum(u, v)[keep] * n + np.minimum(u, v)[keep])
    keys = rng.permutation(keys)[:m]
    return np.stack([keys // n, keys % n], axis=1)


def reach_matrix(n: int, edges, k) -> np.ndarray:
    """All-pairs ``s →k t`` by one level-synchronous BFS from every source
    at once over a dense adjacency matrix (``k=None``: unbounded)."""
    adj = np.zeros((n, n), dtype=np.float32)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj[edges[:, 0], edges[:, 1]] = 1
    reach = np.eye(n, dtype=bool)
    frontier = reach
    hops = 0
    while frontier.any() and (k is None or hops < k):
        frontier = ((frontier.astype(np.float32) @ adj) > 0) & ~reach
        reach |= frontier
        hops += 1
    return reach


class LiveEdges:
    """The churned edge set: bursts of uniform inserts of absent edges
    and deletes of live ones, applied to a dynamic index."""

    def __init__(self, n: int, edges: np.ndarray, rng) -> None:
        self.n = n
        self.rng = rng
        self.edges = [tuple(e) for e in edges.tolist()]

    def burst(self, dyn: DynamicKReachIndex, size: int = 8) -> None:
        present = set(self.edges)
        for insert in (self.rng.random(size) < 0.5).tolist():
            if insert or not self.edges:
                while True:
                    u, v = self.rng.integers(0, self.n, size=2).tolist()
                    if u != v and (u, v) not in present:
                        break
                present.add((u, v))
                self.edges.append((u, v))
                dyn.insert_edge(u, v)
            else:
                u, v = self.edges.pop(int(self.rng.integers(0, len(self.edges))))
                present.discard((u, v))
                dyn.delete_edge(u, v)

    def array(self) -> np.ndarray:
        return np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)


def count_calls(monkeypatch, cls, *names) -> Counter:
    """Wrap methods of ``cls`` so each call bumps its name's count."""
    calls: Counter = Counter()
    for name in names:
        original = getattr(cls, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return calls


class TestChurnScale:
    """Benchmark-shaped churn on a hub DAG of a few hundred vertices:
    after every burst of 8 mixed writes the batch engines match the BFS
    oracle on the live edges, through many blocked repairs, mass-repair
    compactions and the bursts right after each compaction."""

    @pytest.mark.parametrize("k", [1, 2, 3, 6, None])
    def test_bursts_match_bfs_oracle(self, k, monkeypatch):
        calls = count_calls(monkeypatch, DynamicKReachIndex, "_rebuild_rows_blocked")
        merge = DynamicKReachIndex._merge

        def count_repair_merges(self, g, repaired=None):
            calls["repair merges"] += repaired is not None
            return merge(self, g, repaired)

        monkeypatch.setattr(DynamicKReachIndex, "_merge", count_repair_merges)
        rng = np.random.default_rng(7)
        n = 300
        edges = hub_dag(n, 900, rng)
        live = LiveEdges(n, edges, rng)
        dyn = DynamicKReachIndex(
            DiGraph(n, edges), k, compaction_ratio=0.15, compaction_min_rows=16
        )
        after_compaction = 0
        for burst in range(40):
            compactions = dyn.compactions
            live.burst(dyn)
            pairs = rng.integers(0, n, size=(2048, 2))
            want = reach_matrix(n, live.array(), k)[pairs[:, 0], pairs[:, 1]]
            got = dyn.query_batch(pairs)
            assert np.array_equal(got, want), (k, burst, "auto")
            got = scalar_batch(dyn, pairs[:200])
            assert np.array_equal(got, want[:200]), (k, burst, "scalar")
            after_compaction += dyn.compactions > compactions
        assert after_compaction >= 1
        if k not in (1, 2):  # small balls rarely pin 16 rows in one burst
            assert calls["_rebuild_rows_blocked"] >= 3, calls
            assert calls["repair merges"] >= 2, calls


class TestPatchedViews:
    """Reads after writes run on the patched CSR and level stack."""

    def churned(self, k, *, bursts=6, **kwargs):
        rng = np.random.default_rng(11)
        n = 200
        edges = hub_dag(n, 600, rng)
        live = LiveEdges(n, edges, rng)
        dyn = DynamicKReachIndex(DiGraph(n, edges), k, **kwargs)
        for _ in range(bursts):
            live.burst(dyn)
        return dyn, live

    @pytest.mark.parametrize("k", [1, 3, None])
    def test_batch_reads_inside_the_gate_skip_keyed_lookup(self, k, monkeypatch):
        dyn, live = self.churned(k, auto_compact=False)
        dyn.prepare_batch()  # insert relaxations settle through the lookup
        assert dyn.overlay_rows > 0
        n = dyn.n
        pairs = np.array([(s, t) for s in range(n) for t in range(n)])
        want = reach_matrix(n, live.array(), k).ravel()

        def boom(*args, **kwargs):
            raise AssertionError("keyed lookup on a read inside the gate")

        monkeypatch.setattr(KeyedRowStore, "lookup", boom)
        assert np.array_equal(dyn.query_batch(pairs), want)
        assert dyn._batch_views()[0] is not None

    def test_over_gate_reads_match_oracle(self):
        """Past the stack's gate the keyed probes answer (one view fits,
        then none: the chunked cross products)."""
        dyn, live = self.churned(3, auto_compact=False)
        size = dyn.cover_size
        n = dyn.n
        pairs = np.array([(s, t) for s in range(n) for t in range(n)])
        want = reach_matrix(n, live.array(), 3).ravel()
        one_view = (size * ((size + 63) // 64)) * 8
        for budget in (one_view, 0):
            dyn.bitset_matrix_bytes = budget
            stack, matrix = dyn._batch_views()
            assert stack is None
            assert (matrix is None) == (budget == 0)
            assert np.array_equal(dyn.query_batch(pairs), want)

    def test_repair_and_compact_never_rebuild_from_edges(self, monkeypatch):
        dyn, live = self.churned(6, bursts=0, auto_compact=False)
        rng = np.random.default_rng(3)
        for _ in range(40):
            u, v = live.edges.pop(int(rng.integers(0, len(live.edges))))
            dyn.delete_edge(u, v)
        assert dyn.pending_repairs >= 16  # the blocked MS-BFS repair path
        calls = count_calls(monkeypatch, DynamicKReachIndex, "_rebuild_rows_blocked")

        def boom(self, *args, **kwargs):
            raise AssertionError("DiGraph rebuilt from an edge list")

        monkeypatch.setattr(DiGraph, "__init__", boom)
        dyn.prepare_batch()
        assert calls["_rebuild_rows_blocked"] == 1
        dyn.compact()
        monkeypatch.undo()
        n = dyn.n
        pairs = np.array([(s, t) for s in range(n) for t in range(n)])
        want = reach_matrix(n, live.array(), 6).ravel()
        assert np.array_equal(dyn.query_batch(pairs), want)

    def test_to_digraph_equals_edge_list_build(self):
        rng = np.random.default_rng(12)
        n = 150
        edges = hub_dag(n, 450, rng)
        live = LiveEdges(n, edges, rng)
        dyn = DynamicKReachIndex(
            DiGraph(n, edges), 3, compaction_ratio=0.25, compaction_min_rows=16
        )
        for burst in range(12):
            live.burst(dyn)
            if burst % 3 == 2:
                dyn.query_batch([(0, 1)])  # settle (may compact)
            got = dyn.to_digraph()
            want = DiGraph(n, live.array())
            assert got.m == want.m
            for name in ("out_indptr", "out_indices", "in_indptr", "in_indices"):
                x, y = getattr(got, name), getattr(want, name)
                assert x.dtype == y.dtype, (burst, name)
                assert np.array_equal(x, y), (burst, name)
        assert dyn.compactions >= 1
