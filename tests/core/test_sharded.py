"""ShardedQueryServer scatter-gather suite.

Pins the multi-shard serving contract: verdicts bit-identical to the
single-index engine across backends and shard counts, input-order
reassembly across scattered sub-tickets, deadline semantics, aggregate
stats (including the per-worker restart counters), and exactness across
a shard worker killed mid-ticket.
"""

import numpy as np
import pytest

from repro import faults
from repro.core.kreach import KReachIndex
from repro.core.serialize import save_sharded
from repro.core.serve import QueryTimeout
from repro.core.sharded import ShardedQueryServer
from repro.graph.generators import gnp_digraph
from repro.workloads import random_pairs
from tests.conftest import split_shards


@pytest.fixture(scope="module")
def graph():
    return gnp_digraph(80, 0.05, seed=21)


@pytest.fixture(scope="module")
def pairs(graph):
    return random_pairs(graph.n, 4000, rng=np.random.default_rng(3))


@pytest.fixture(scope="module")
def shard_files(graph, tmp_path_factory):
    """Shard-count -> sharded index file, for k=6, on the §4.3 cover
    (every shard's pairs reach Cases 1-4; the references below answer
    on the default cover, all of V)."""
    base = tmp_path_factory.mktemp("shards")
    out = {}
    for count in (1, 2, 4):
        path = base / f"s{count}.kr6"
        save_sharded(split_shards(graph, 6, count), path)
        out[count] = path
    return out


class TestDifferential:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_bit_identical(self, graph, pairs, shard_files, backend, num_shards):
        reference = KReachIndex(graph, 6).query_batch(pairs)
        with ShardedQueryServer(
            shard_files[num_shards], workers=1, backend=backend
        ) as server:
            assert np.array_equal(server.query_batch(pairs), reference)

    @pytest.mark.parametrize("k", [2, None])
    def test_other_budgets(self, tmp_path, graph, pairs, k):
        directory = tmp_path / "m"
        save_sharded(split_shards(graph, k, 2), directory)
        reference = KReachIndex(graph, k).query_batch(pairs)
        with ShardedQueryServer(directory, backend="thread") as server:
            assert server.k == k
            assert np.array_equal(server.query_batch(pairs), reference)

    def test_pipelined_tickets_in_input_order(self, graph, pairs, shard_files):
        reference = KReachIndex(graph, 6).query_batch(pairs)
        chunks = [c for c in np.array_split(pairs, 5) if len(c)]
        with ShardedQueryServer(shard_files[2], backend="thread") as server:
            tickets = [server.submit(c) for c in chunks]
            gathered = np.concatenate([server.collect(t) for t in tickets])
        assert np.array_equal(gathered, reference)

    def test_empty_batch(self, shard_files):
        with ShardedQueryServer(shard_files[2], backend="thread") as server:
            assert len(server.query_batch(np.empty((0, 2), dtype=np.int64))) == 0


class TestLifecycle:
    def test_deadline_bounds_hung_shard(self, tmp_path, graph, pairs, shard_files):
        """A hung shard worker trips the collect bound; the ticket stays
        collectable and settles exactly once the watchdog recovers."""
        reference = KReachIndex(graph, 6).query_batch(pairs)
        with faults.inject(
            "serve.worker_hang", "hang", token=str(tmp_path / "tok")
        ):
            with ShardedQueryServer(
                shard_files[2],
                workers=1,
                backend="process",
                server_kwargs={"hang_timeout": 1.0, "slot_pairs": 256},
            ) as server:
                ticket = server.submit(pairs)
                with pytest.raises(QueryTimeout):
                    server.collect(ticket, timeout=0.3)
                got = server.collect(ticket)
                # One timed-out collect counts once, not once per shard.
                assert server.stats()["timeouts"] == 1
        assert np.array_equal(got, reference)

    def test_stats_shape(self, shard_files, pairs):
        with ShardedQueryServer(shard_files[2], backend="process") as server:
            server.query_batch(pairs[:200])
            stats = server.stats()
        assert stats["num_shards"] == 2
        assert stats["pairs_served"] == 200
        assert stats["health"] == "ok"
        assert len(stats["shards"]) == 2
        for shard_stats in stats["shards"]:
            assert shard_stats["worker_restarts"] == [0]

    def test_bad_backend(self, shard_files):
        with pytest.raises(ValueError, match="backend"):
            ShardedQueryServer(shard_files[1], backend="carrier-pigeon")


class TestFaultTolerance:
    def test_shard_worker_killed_mid_ticket(self, graph, pairs, shard_files):
        """SIGKILL one shard's worker between submit and collect."""
        reference = KReachIndex(graph, 6).query_batch(pairs)
        with ShardedQueryServer(
            shard_files[2], workers=1, backend="process"
        ) as server:
            ticket = server.submit(pairs)
            server.servers[1]._workers[0].process.kill()
            assert np.array_equal(server.collect(ticket), reference)

    def test_explicit_restart_counts_per_worker(self, shard_files, pairs):
        with ShardedQueryServer(
            shard_files[2], workers=2, backend="process"
        ) as server:
            server.restart_worker(1, 0)
            server.query_batch(pairs[:200])
            stats = server.stats()
            assert stats["restarts"] == 1
            assert stats["shards"][1]["worker_restarts"] == [1, 0]
            assert stats["shards"][0]["worker_restarts"] == [0, 0]
