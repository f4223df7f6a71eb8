"""QueryServer differential suite.

Pins the serving tier's contract: for every worker count and hop budget,
``QueryServer.query_batch`` over a v4 file is bit-identical to the
in-memory engine and to the BFS oracle — including across slot-sized
sharding, pipelined submit/collect, duplicate-heavy batches, and a
worker killed (and revived) mid-stream.
"""

import numpy as np
import pytest

from repro import native
from repro.baselines import BfsIndex
from repro.core.batch import case_codes
from repro.core.kreach import KReachIndex
from repro.core.serialize import save_mmap
from repro.core.serve import QueryServer, _case_shards
from repro.graph.generators import gnp_digraph
from repro.workloads import random_pairs
from tests.conftest import assert_every_case, scalar_batch, split_index


@pytest.fixture(scope="module")
def graph():
    return gnp_digraph(80, 0.05, seed=21)


@pytest.fixture(scope="module")
def pairs(graph):
    return random_pairs(graph.n, 4000, rng=np.random.default_rng(3))


def serve_file(tmp_path, graph, k):
    """The served index, on the §4.3 cover so pairs reach Cases 1-4."""
    index = split_index(graph, k)
    path = tmp_path / f"k{k}.kr4"
    save_mmap(index, path)
    return index, path


class TestDifferential:
    @pytest.mark.parametrize("k", [2, 6, None])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_server_vs_inmemory_vs_bfs(self, tmp_path, graph, pairs, k, workers):
        index, path = serve_file(tmp_path, graph, k)
        assert_every_case(index, pairs)
        expected = index.query_batch(pairs)
        # BFS oracle on a subsample (the slow reference).
        bfs = BfsIndex(graph)
        sub = pairs[:300]
        oracle = np.array(
            [
                bfs.reaches(int(s), int(t))
                if k is None
                else bfs.reaches_within(int(s), int(t), k)
                for s, t in sub.tolist()
            ]
        )
        assert np.array_equal(expected[:300], oracle)
        with QueryServer(path, workers=workers, slot_pairs=512) as server:
            assert np.array_equal(server.query_batch(pairs), expected)

    def test_mid_stream_worker_restart(self, tmp_path, graph, pairs):
        index, path = serve_file(tmp_path, graph, 6)
        expected = index.query_batch(pairs)
        with QueryServer(path, workers=2, slot_pairs=256) as server:
            assert np.array_equal(server.query_batch(pairs), expected)
            server.restart_worker(0)  # graceful mid-stream restart
            assert np.array_equal(server.query_batch(pairs), expected)
            # Hard kill with a ticket in flight: the supervisor must
            # revive the worker and re-dispatch its shards.
            ticket = server.submit(pairs)
            server._workers[1].process.kill()
            assert np.array_equal(server.collect(ticket), expected)
            assert server.stats()["restarts"] >= 2

    def test_pipelined_submit_collect(self, tmp_path, graph, pairs):
        index, path = serve_file(tmp_path, graph, 2)
        expected = index.query_batch(pairs)
        shards = np.array_split(pairs, 7)
        with QueryServer(path, workers=2, slot_pairs=128) as server:
            tickets = [server.submit(sh) for sh in shards]
            parts = [server.collect(t) for t in reversed(tickets)]
            got = np.concatenate(list(reversed(parts)))
        assert np.array_equal(got, expected)

    def test_duplicate_heavy_batch(self, tmp_path, graph):
        index, path = serve_file(tmp_path, graph, 6)
        rng = np.random.default_rng(5)
        base = random_pairs(graph.n, 50, rng=rng)
        dup = base[rng.integers(0, len(base), size=3000)]
        expected = index.query_batch(dup)
        with QueryServer(path, workers=2, slot_pairs=512) as server:
            assert np.array_equal(server.query_batch(dup), expected)

    def test_worker_exception_fails_ticket_not_pool(
        self, tmp_path, graph, pairs, monkeypatch
    ):
        """An in-worker kernel error surfaces at collect(); the slot is
        recovered and the pool stays serviceable."""
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("needs fork to inject a fault into workers")
        index, path = serve_file(tmp_path, graph, 6)
        expected = index.query_batch(pairs)

        def boom(self, p):
            raise RuntimeError("injected kernel failure")

        # Patch before the fork so the workers inherit the fault; undo
        # immediately so the parent (and any revived worker) is clean.
        monkeypatch.setattr(KReachIndex, "query_batch", boom)
        server = QueryServer(path, workers=1, slot_pairs=512, prepare=False)
        monkeypatch.undo()
        with server:
            with pytest.raises(RuntimeError, match="injected kernel failure"):
                server.query_batch(pairs)
            # The failed ticket's slots were recovered; a restart forks a
            # clean worker and the same pool serves the batch correctly.
            server.restart_worker(0)
            assert np.array_equal(server.query_batch(pairs), expected)

    def test_poison_shard_fails_ticket_after_retry_cap(
        self, tmp_path, graph, pairs, monkeypatch
    ):
        """A shard that deterministically kills its worker must error out
        at collect() after the retry cap, never revive-loop forever."""
        import multiprocessing as mp
        import os as os_mod

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("needs fork to inject a fault into workers")

        def die(self, p):
            os_mod._exit(1)  # simulate an OOM kill mid-shard

        # The patch stays active through the revive attempts, so every
        # respawned worker (forked from the patched parent) dies too.
        monkeypatch.setattr(KReachIndex, "query_batch", die)
        _, path = serve_file(tmp_path, graph, 6)
        with QueryServer(
            path, workers=1, slot_pairs=1 << 15, prepare=False
        ) as server:
            with pytest.raises(RuntimeError, match="re-dispatched"):
                server.query_batch(pairs)
            assert server.restarts >= 2
        monkeypatch.undo()

    def test_kernel_tier_from_environment(
        self, tmp_path, graph, pairs, monkeypatch
    ):
        """Workers run the kernel tier ``KREACH_NATIVE`` names (the pool
        has no per-call engine): its uncompiled bodies serve the scalar
        loop's verdicts."""
        index, path = serve_file(tmp_path, graph, 6)
        expected = scalar_batch(index, pairs)
        monkeypatch.setenv(native.ENV_VAR, "python")
        with QueryServer(path, workers=2) as server:
            assert np.array_equal(server.query_batch(pairs), expected)


class TestApiContract:
    def test_unknown_engine_raises(self, tmp_path, graph):
        _, path = serve_file(tmp_path, graph, 2)
        with QueryServer(path, workers=1) as server:
            with pytest.raises(TypeError, match="engine"):
                server.submit([(0, 1)], engine="auto")

    def test_unknown_default_engine_rejected_at_construction(self, tmp_path, graph):
        _, path = serve_file(tmp_path, graph, 2)
        with pytest.raises(TypeError, match="engine"):
            QueryServer(path, workers=1, engine="auto")

    def test_bad_worker_count(self, tmp_path, graph):
        _, path = serve_file(tmp_path, graph, 2)
        with pytest.raises(ValueError, match="workers"):
            QueryServer(path, workers=0)

    def test_case_shard_covers_every_position(self, tmp_path, graph, pairs):
        """The case-code pre-split partitions input positions exactly."""
        _, path = serve_file(tmp_path, graph, 2)
        with QueryServer(path, workers=3) as server:
            flags = server.index._flags()
            s, t = pairs[:, 0], pairs[:, 1]
            shares = _case_shards(case_codes(flags[s], flags[t]), server.workers)
            assert len(shares) == 3
            merged = np.concatenate(shares)
            assert len(merged) == len(pairs)
            assert np.array_equal(np.sort(merged), np.arange(len(pairs)))
