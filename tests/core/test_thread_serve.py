"""ThreadQueryServer differential suite.

Pins the zero-IPC serving tier's contract: a thread pool sharing one
mmap'd index answers bit-identically to the in-process engine, to the
BFS oracle, and to the process-pool :class:`QueryServer` — across worker
counts, hop budgets, kernel tiers and memory-gate paths, shard sizes,
pipelined submit/collect, and a worker-side exception (which must
settle the ticket and leave the pool serviceable).
"""

import numpy as np
import pytest

from repro import native
from repro.baselines import BfsIndex
from repro.core.kreach import KReachIndex
from repro.core.serialize import save_mmap
from repro.core.serve import QueryServer, ThreadQueryServer
from repro.graph.generators import gnp_digraph
from repro.workloads import random_pairs
from tests.conftest import scalar_batch, vector_gate


@pytest.fixture(scope="module")
def graph():
    return gnp_digraph(80, 0.05, seed=21)


@pytest.fixture(scope="module")
def pairs(graph):
    return random_pairs(graph.n, 4000, rng=np.random.default_rng(3))


def serve_file(tmp_path, graph, k):
    index = KReachIndex(graph, k)
    path = tmp_path / f"k{k}.kr4"
    save_mmap(index, path)
    return index, path


class TestDifferential:
    @pytest.mark.parametrize("k", [0, 2, 6, None])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_inprocess_and_oracle(self, tmp_path, graph, pairs, k, workers):
        index, path = serve_file(tmp_path, graph, k)
        expected = index.query_batch(pairs)
        with ThreadQueryServer(path, workers=workers) as server:
            got = server.query_batch(pairs)
        assert np.array_equal(expected, got)
        bfs = BfsIndex(graph)
        sample = pairs[:200].tolist()
        oracle = np.array(
            [
                bfs.reaches(int(s), int(t))
                if k is None
                else bfs.reaches_within(int(s), int(t), k)
                for s, t in sample
            ]
        )
        assert np.array_equal(got[:200], oracle)

    @pytest.mark.parametrize("route", ["auto", "native", "bitset", "chunked"])
    def test_engines_agree(self, tmp_path, graph, pairs, route, monkeypatch):
        """Scalar-identical verdicts on every path: the default gate, the
        compiled kernel tier (picked for the worker threads through the
        environment, since ``native.use`` is thread-local), and the two
        over-gate paths (the shared index's gate, set before its lazy
        build)."""
        index, path = serve_file(tmp_path, graph, 3)
        expected = scalar_batch(index, pairs)
        if route == "native":
            tier = "numba" if native.available() else "python"
            monkeypatch.setenv(native.ENV_VAR, tier)
        with ThreadQueryServer(path, workers=2, prepare=False) as server:
            if route in ("bitset", "chunked"):
                server.index.bitset_matrix_bytes = vector_gate(server.index, route)
            assert np.array_equal(expected, server.query_batch(pairs))

    def test_matches_process_pool_server(self, tmp_path, graph, pairs):
        _, path = serve_file(tmp_path, graph, 4)
        with ThreadQueryServer(path, workers=2) as tserver, QueryServer(
            path, workers=2
        ) as pserver:
            assert np.array_equal(
                tserver.query_batch(pairs), pserver.query_batch(pairs)
            )

    @pytest.mark.parametrize("slot_pairs", [1, 7, 100, 100_000])
    def test_shard_sizes(self, tmp_path, graph, slot_pairs):
        index, path = serve_file(tmp_path, graph, 3)
        small = random_pairs(graph.n, 500, rng=np.random.default_rng(9))
        with ThreadQueryServer(
            path, workers=2, slot_pairs=slot_pairs
        ) as server:
            assert np.array_equal(
                index.query_batch(small), server.query_batch(small)
            )

    def test_duplicate_heavy_batch(self, tmp_path, graph):
        index, path = serve_file(tmp_path, graph, 2)
        rng = np.random.default_rng(5)
        dupes = np.repeat(random_pairs(graph.n, 40, rng=rng), 50, axis=0)
        rng.shuffle(dupes)
        with ThreadQueryServer(path, workers=3) as server:
            assert np.array_equal(
                index.query_batch(dupes), server.query_batch(dupes)
            )

    def test_pipelined_submit_collect(self, tmp_path, graph, pairs):
        index, path = serve_file(tmp_path, graph, 6)
        chunks = np.array_split(pairs, 5)
        with ThreadQueryServer(path, workers=2, slot_pairs=257) as server:
            tickets = [server.submit(chunk) for chunk in chunks]
            # Collect out of order: tickets are independent.
            results = {t: server.collect(t) for t in reversed(tickets)}
        for t, chunk in zip(tickets, chunks):
            assert np.array_equal(index.query_batch(chunk), results[t])

    def test_prepare_false_lazy_build(self, tmp_path, graph, pairs):
        index, path = serve_file(tmp_path, graph, 3)
        with ThreadQueryServer(path, workers=3, prepare=False) as server:
            # First use races three workers into the lock-guarded build.
            tickets = [server.submit(pairs[i::3]) for i in range(3)]
            for i, t in enumerate(tickets):
                assert np.array_equal(
                    index.query_batch(pairs[i::3]), server.collect(t)
                )

    def test_empty_batch(self, tmp_path, graph):
        _, path = serve_file(tmp_path, graph, 2)
        with ThreadQueryServer(path, workers=1) as server:
            out = server.query_batch(np.empty((0, 2), dtype=np.int64))
            assert out.dtype == bool and len(out) == 0
            assert server.stats()["outstanding_tickets"] == 0


class TestLifecycleAndErrors:
    def test_constructor_validation(self, tmp_path, graph):
        _, path = serve_file(tmp_path, graph, 2)
        with pytest.raises(ValueError, match="workers"):
            ThreadQueryServer(path, workers=0)
        with pytest.raises(ValueError, match="slot_pairs"):
            ThreadQueryServer(path, slot_pairs=0)

    def test_submit_rejects_bad_engine_and_pairs(self, tmp_path, graph):
        _, path = serve_file(tmp_path, graph, 2)
        with ThreadQueryServer(path, workers=1) as server:
            with pytest.raises(TypeError, match="engine"):
                server.submit([(0, 1)], engine="auto")
            with pytest.raises(ValueError):
                server.submit([(0, graph.n + 5)])

    def test_worker_error_propagates_and_pool_survives(
        self, tmp_path, graph, pairs
    ):
        index, path = serve_file(tmp_path, graph, 3)
        with ThreadQueryServer(path, workers=2) as server:
            real = server._index.query_batch

            def boom(batch):
                raise RuntimeError("kernel exploded")

            server._index.query_batch = boom
            try:
                with pytest.raises(RuntimeError, match="kernel exploded"):
                    server.query_batch(pairs[:100])
            finally:
                server._index.query_batch = real
            # The pool must still serve after a worker-side failure.
            assert np.array_equal(
                index.query_batch(pairs), server.query_batch(pairs)
            )

    def test_stats_and_properties(self, tmp_path, graph, pairs):
        _, path = serve_file(tmp_path, graph, 2)
        with ThreadQueryServer(path, workers=3) as server:
            server.query_batch(pairs[:500])
            stats = server.stats()
            assert stats["workers"] == server.workers == 3
            assert stats["pairs_served"] == 500
            assert stats["outstanding_tickets"] == 0
            assert stats["kernel_threads"] == native.thread_budget(3)
            assert server.index is not None
            assert "ThreadQueryServer" in repr(server)

    def test_kernel_thread_pin(self, tmp_path, graph, monkeypatch):
        import os

        _, path = serve_file(tmp_path, graph, 2)
        monkeypatch.delenv("NUMBA_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        with ThreadQueryServer(path, workers=2) as server:
            budget = native.thread_budget(2)
            assert server.kernel_threads == budget
            assert os.environ["NUMBA_NUM_THREADS"] == str(budget)
            assert os.environ["OMP_NUM_THREADS"] == str(budget)
