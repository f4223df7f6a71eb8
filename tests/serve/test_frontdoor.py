"""Async front-door suite.

Pins the batching front end's contract: many concurrent clients get
bit-exact verdicts through micro-batched pool queries, the LRU cache
serves repeats and invalidates on churn, admission control sheds load
instead of queueing without bound, the HTTP surface exposes
``/healthz`` + ``/metrics``, and a worker SIGKILL injected through the
faults registry never produces a wrong or dropped verdict.
"""

import asyncio
import json
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import faults
from repro.core.kreach import KReachIndex
from repro.core.serialize import save_mmap, save_sharded
from repro.core.serve import ThreadQueryServer
from repro.core.sharded import ShardedQueryServer
from repro.graph.generators import gnp_digraph
from repro.serve import FrontDoor, FrontDoorOverloaded, frontdoor, http_request
from repro.workloads import random_pairs
from tests.conftest import assert_every_case, split_index, split_shards


@pytest.fixture(scope="module")
def graph():
    return gnp_digraph(80, 0.05, seed=21)


@pytest.fixture(scope="module")
def reference(graph):
    """The served index, on the §4.3 cover so pairs reach Cases 1-4."""
    index = split_index(graph, 6).prepare_batch()
    assert_every_case(index, random_pairs(graph.n, 2000, rng=np.random.default_rng(0)))
    return index


@pytest.fixture(scope="module")
def manifest(graph, tmp_path_factory):
    directory = tmp_path_factory.mktemp("door") / "m2"
    save_sharded(split_shards(graph, 6, 2), directory)
    return directory


#: Bound on every wait in the gated tests, so a stuck batcher fails them.
TIMEOUT_S = 5.0


class GatedServer:
    """A pool whose ``query_batch`` blocks until ``release`` is set.

    ``entered`` is set when a call starts, so a test can queue requests
    behind a flush it knows is in flight; ``batches`` records each
    call's pair count.
    """

    def __init__(self, reference):
        self._reference = reference
        self.batches: list[int] = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def query_batch(self, pairs):
        self.batches.append(len(pairs))
        self.entered.set()
        if not self.release.wait(TIMEOUT_S):
            raise TimeoutError("the test never released the pool")
        return self._reference.query_batch(pairs)

    def stats(self):
        return {"health": "ok"}


async def _until(condition):
    deadline = time.monotonic() + TIMEOUT_S
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.001)


async def _start_blocked_flush(door, server, pairs):
    """Send ``pairs`` and return once their flush is stuck in the pool."""
    task = asyncio.ensure_future(door.query(pairs))
    assert await asyncio.to_thread(server.entered.wait, TIMEOUT_S)
    return task


def _requests(graph, sizes, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, graph.n, size=(m, 2)).tolist() for m in sizes]


class TestBatching:
    def test_64_concurrent_clients_agree(self, graph, reference, manifest):
        async def scenario():
            with ShardedQueryServer(manifest, backend="thread") as server:
                async with FrontDoor(
                    server, max_batch=2048, cache_pairs=4096
                ) as door:
                    async def client(cid):
                        rng = np.random.default_rng(cid)
                        ok = True
                        for _ in range(4):
                            p = rng.integers(0, graph.n, size=(16, 2))
                            got = await door.query(p.tolist())
                            ok &= got == reference.query_batch(p).tolist()
                        return ok
                    results = await asyncio.gather(
                        *[client(i) for i in range(64)]
                    )
                    metrics = door.metrics()
            return results, metrics

        results, metrics = asyncio.run(scenario())
        assert all(results)
        assert metrics["requests"] == 256
        # Micro-batching actually aggregated: far fewer flushes than
        # requests, and multi-request batches on average.
        assert metrics["batches"] < metrics["requests"]
        assert metrics["mean_batch_pairs"] > 16
        assert metrics["latency_ms"]["p50"] is not None
        assert metrics["latency_ms"]["p99"] >= metrics["latency_ms"]["p50"]

    def test_max_batch_forces_flush(self, graph, reference):
        async def scenario():
            class CountingServer:
                def __init__(self):
                    self.batches = []

                def query_batch(self, pairs):
                    self.batches.append(len(pairs))
                    return reference.query_batch(pairs)

                def stats(self):
                    return {"health": "ok"}

            spy = CountingServer()
            async with FrontDoor(
                spy, max_batch=64, cache_pairs=0
            ) as door:
                pairs = np.stack(
                    [np.arange(64), np.roll(np.arange(64), 1)], axis=1
                )
                waiters = [
                    door.query(pairs[i : i + 16].tolist())
                    for i in range(0, 64, 16)
                ]
                await asyncio.gather(*waiters)
            return spy.batches

        batches = asyncio.run(scenario())
        # 64 pairs hit max_batch=64 well before the 200ms window closes.
        assert sum(batches) == 64 and len(batches) <= 2

    def test_requests_queued_behind_a_flush_ride_the_next_one(
        self, graph, reference
    ):
        """B, C and D queue while flush A is blocked in the pool, so
        they leave together as soon as A returns.  E, sent the moment
        A's answer lands, finds that flush already gone and takes the
        one after: no timer holds a batch open for late riders."""
        a, b, c, d, e = _requests(graph, [3, 5, 7, 11, 2])

        async def scenario():
            server = GatedServer(reference)
            async with FrontDoor(server, cache_pairs=0) as door:
                async def a_then_e():
                    return await door.query(a), await door.query(e)

                head = asyncio.ensure_future(a_then_e())
                assert await asyncio.to_thread(server.entered.wait, TIMEOUT_S)
                rest = [asyncio.ensure_future(door.query(r)) for r in (b, c, d)]
                await _until(lambda: door.metrics()["backlog_pairs"] == 26)
                server.release.set()
                answers = await asyncio.wait_for(
                    asyncio.gather(head, *rest), TIMEOUT_S
                )
            return server.batches, answers

        batches, ((got_a, got_e), got_b, got_c, got_d) = asyncio.run(scenario())
        assert batches == [3, 5 + 7 + 11, 2]
        for want, got in zip((a, b, c, d, e), (got_a, got_b, got_c, got_d, got_e)):
            assert got == reference.query_batch(np.array(want)).tolist()

    def test_max_batch_caps_each_follow_up_flush(self, graph, reference):
        """Eight 16-pair requests queued behind a blocked flush leave
        in flushes of exactly max_batch=32 pairs."""
        head, *queued = _requests(graph, [16] * 9)

        async def scenario():
            server = GatedServer(reference)
            async with FrontDoor(server, max_batch=32, cache_pairs=0) as door:
                first = await _start_blocked_flush(door, server, head)
                rest = [asyncio.ensure_future(door.query(r)) for r in queued]
                await _until(lambda: door.metrics()["backlog_pairs"] == 144)
                server.release.set()
                answers = await asyncio.wait_for(
                    asyncio.gather(first, *rest), TIMEOUT_S
                )
            return server.batches, answers

        batches, answers = asyncio.run(scenario())
        assert batches == [16, 32, 32, 32, 32]
        for want, got in zip([head, *queued], answers):
            assert got == reference.query_batch(np.array(want)).tolist()


class TestLifecycle:
    def test_close_drains_requests_queued_behind_a_flush(
        self, graph, reference
    ):
        """close() during a blocked flush still answers every request
        queued before it; the door then refuses new queries."""
        head, *queued = _requests(graph, [16, 8, 8], seed=1)

        async def scenario():
            server = GatedServer(reference)
            door = await FrontDoor(server, cache_pairs=0).start()
            first = await _start_blocked_flush(door, server, head)
            rest = [asyncio.ensure_future(door.query(r)) for r in queued]
            await _until(lambda: door.metrics()["backlog_pairs"] == 32)
            closing = asyncio.ensure_future(door.close())
            await asyncio.sleep(0)  # close() marks the door, queues its sentinel
            server.release.set()
            await asyncio.wait_for(closing, TIMEOUT_S)
            answers = await asyncio.wait_for(
                asyncio.gather(first, *rest), TIMEOUT_S
            )
            with pytest.raises(RuntimeError):
                await door.query(head)
            return server.batches, answers

        batches, answers = asyncio.run(scenario())
        assert sum(batches) == 32
        for want, got in zip([head, *queued], answers):
            assert got == reference.query_batch(np.array(want)).tolist()


class TestCache:
    def test_hot_pairs_served_from_cache(self, graph, reference):
        async def scenario():
            calls = []

            class SpyServer:
                def query_batch(self, pairs):
                    calls.append(len(pairs))
                    return reference.query_batch(pairs)

                def stats(self):
                    return {"health": "ok"}

            async with FrontDoor(
                SpyServer(), cache_pairs=1024
            ) as door:
                hot = [[0, 5], [5, 9], [9, 0]]
                first = await door.query(hot)
                second = await door.query(hot)
                metrics = door.metrics()
                # Churn: invalidation empties the cache and misses again.
                door.invalidate_cache()
                third = await door.query(hot)
            return first, second, third, calls, metrics

        first, second, third, calls, metrics = asyncio.run(scenario())
        assert first == second == third
        assert first == reference.query_batch(np.array([[0, 5], [5, 9], [9, 0]])).tolist()
        assert calls == [3, 3]  # second round never reached the pool
        assert metrics["cache"]["hits"] == 3
        assert metrics["cache"]["hit_rate"] == 0.5

    def test_lru_eviction_bounds_entries(self, graph, reference):
        async def scenario():
            class Srv:
                def query_batch(self, pairs):
                    return reference.query_batch(pairs)

                def stats(self):
                    return {"health": "ok"}

            async with FrontDoor(Srv(), cache_pairs=8) as door:
                for i in range(40):
                    await door.query([[i % graph.n, (i + 1) % graph.n]])
                return door.metrics()["cache"]["entries"]

        assert asyncio.run(scenario()) <= 8


class TestMetrics:
    def test_qps_divides_by_uptime_until_the_window_fills(
        self, graph, reference, monkeypatch
    ):
        """qps is pairs over the trailing 10 s, or over the uptime while
        the door is younger than that."""
        clock = SimpleNamespace(now=100.0)
        monkeypatch.setattr(
            frontdoor, "time", SimpleNamespace(monotonic=lambda: clock.now)
        )

        async def scenario():
            class Srv:
                def query_batch(self, pairs):
                    return reference.query_batch(pairs)

                def stats(self):
                    return {"health": "ok"}

            rng = np.random.default_rng(5)
            async with FrontDoor(Srv(), cache_pairs=0) as door:
                clock.now += 0.5
                await door.query(rng.integers(0, graph.n, size=(1000, 2)))
                young = door.metrics()["qps"]
                clock.now += 12.0  # the first 1000 pairs leave the window
                await door.query(rng.integers(0, graph.n, size=(500, 2)))
                old = door.metrics()["qps"]
            return young, old

        young, old = asyncio.run(scenario())
        assert young == 2000.0  # 1000 pairs in 0.5 s of uptime
        assert old == 50.0  # 500 pairs in the full 10 s window


class TestAdmission:
    def test_backlog_sheds_load(self, graph, reference):
        async def scenario():
            started = asyncio.Event()

            class SlowServer:
                def query_batch(self, pairs):
                    import time as _time

                    _time.sleep(0.2)
                    return reference.query_batch(pairs)

                def stats(self):
                    return {"health": "ok"}

            door = FrontDoor(
                SlowServer(), max_batch=4, cache_pairs=0,
                max_backlog=8,
            )
            async with door:
                big = np.stack(
                    [np.arange(8), np.roll(np.arange(8), 1)], axis=1
                ).tolist()
                first = asyncio.ensure_future(door.query(big))
                await asyncio.sleep(0.05)  # batcher now owns 8 pairs
                with pytest.raises(FrontDoorOverloaded):
                    await door.query([[1, 2]])
                verdicts = await first
                rejects = door.admission_rejects
            return verdicts, rejects

        verdicts, rejects = asyncio.run(scenario())
        assert len(verdicts) == 8 and rejects == 1


class TestHttp:
    def test_routes(self, graph, reference, manifest):
        async def scenario():
            with ShardedQueryServer(manifest, backend="thread") as server:
                door = FrontDoor(server)
                host, port = await door.start_http()
                pairs = [[0, 5], [5, 9]]
                status, body = await http_request(
                    host, port, "POST", "/query", {"pairs": pairs}
                )
                hz = await http_request(host, port, "GET", "/healthz")
                mt = await http_request(host, port, "GET", "/metrics")
                bad = await http_request(
                    host, port, "POST", "/query", {"wrong": 1}
                )
                lost = await http_request(host, port, "GET", "/nope")
                await door.close()
            return status, body, hz, mt, bad, lost

        status, body, hz, mt, bad, lost = asyncio.run(scenario())
        assert status == 200
        assert body["verdicts"] == reference.query_batch(
            np.array([[0, 5], [5, 9]])
        ).tolist()
        assert hz[0] == 200 and hz[1]["status"] == "ok"
        assert mt[0] == 200 and mt[1]["server"]["health"] == "ok"
        assert "worker_restarts" in mt[1]["server"]["shards"][0]
        assert bad[0] == 400
        assert lost[0] == 404

    def test_query_validation_is_400(self, reference):
        async def scenario():
            class Srv:
                def query_batch(self, pairs):
                    return reference.query_batch(pairs)

                def stats(self):
                    return {"health": "ok"}

            door = FrontDoor(Srv())
            host, port = await door.start_http()
            oob = await http_request(
                host, port, "POST", "/query", {"pairs": [[0, 10**9]]}
            )
            await door.close()
            return oob

        status, body = asyncio.run(scenario())
        assert status == 400 and "error" in body

    @pytest.mark.parametrize(
        "raw",
        [
            b"GET\r\n\r\n",
            b"POST /query HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
            b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        ],
        ids=["no-path", "non-integer-length", "negative-length"],
    )
    def test_malformed_framing_is_400_and_closed(self, reference, raw):
        async def scenario():
            server = GatedServer(reference)
            door = FrontDoor(server)
            host, port = await door.start_http()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(raw)
                await writer.drain()
                # read() returns at EOF only: the server must close.
                reply = await asyncio.wait_for(reader.read(), 2.0)
            finally:
                writer.close()
                await writer.wait_closed()
                await door.close()
            return reply, server.batches

        reply, batches = asyncio.run(scenario())
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b" ", 2)[1] == b"400"
        assert "error" in json.loads(body)
        assert batches == []

    @pytest.mark.parametrize(
        "body", [b"[1,2]", b'"abc"', b"null"], ids=["array", "string", "null"]
    )
    def test_non_object_body_is_400_and_closed(self, reference, body):
        """A JSON body that is not an object is the client's fault."""

        async def scenario():
            server = GatedServer(reference)
            door = FrontDoor(server)
            host, port = await door.start_http()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(
                    b"POST /query HTTP/1.1\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
                # read() returns at EOF only: the server must close.
                reply = await asyncio.wait_for(reader.read(), 2.0)
            finally:
                writer.close()
                await writer.wait_closed()
                await door.close()
            return reply, server.batches

        reply, batches = asyncio.run(scenario())
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.split(b" ", 2)[1] == b"400"
        assert json.loads(payload)["error"].startswith("bad request")
        assert batches == []


class TestValidation:
    def test_bad_request_fails_alone_in_its_window(self, tmp_path):
        """A good and a bad request share one micro-batch window: the
        good one is answered, the bad one alone is refused, and float
        ids are refused rather than truncated."""
        g = gnp_digraph(50, 0.08, seed=22)
        index = KReachIndex(g, 6)
        path = tmp_path / "i.kr5"
        save_mmap(index, path)

        async def scenario():
            with ThreadQueryServer(path, workers=1) as server:
                door = FrontDoor(server, cache_pairs=0)
                host, port = await door.start_http()
                good, bad = await asyncio.gather(
                    door.query([[0, 1], [2, 3]]),
                    door.query([[0, 10000]]),
                    return_exceptions=True,
                )
                oob = await http_request(
                    host, port, "POST", "/query", {"pairs": [[0, 10000]]}
                )
                flt = await http_request(
                    host, port, "POST", "/query", {"pairs": [[1.7, 2]]}
                )
                batches = door.batches
                await door.close()
            return good, bad, oob, flt, batches

        good, bad, oob, flt, batches = asyncio.run(scenario())
        assert good == index.query_batch([[0, 1], [2, 3]]).tolist()
        assert isinstance(bad, ValueError)
        assert oob[0] == 400 and flt[0] == 400
        assert batches == 1  # the refused requests never reached the pool


class TestFaults:
    def test_worker_sigkill_no_wrong_or_dropped_verdicts(
        self, tmp_path, graph, reference, manifest
    ):
        """SIGKILL a shard worker (faults registry) under live traffic."""

        async def scenario():
            with faults.inject(
                "serve.worker_exit", "exit", token=str(tmp_path / "tok")
            ):
                with ShardedQueryServer(
                    manifest,
                    workers=1,
                    backend="process",
                    server_kwargs={"slot_pairs": 256},
                ) as server:
                    async with FrontDoor(
                        server, cache_pairs=0
                    ) as door:
                        async def client(cid):
                            rng = np.random.default_rng(100 + cid)
                            p = rng.integers(0, graph.n, size=(64, 2))
                            got = await door.query(p.tolist())
                            return got == reference.query_batch(p).tolist()

                        results = await asyncio.gather(
                            *[client(i) for i in range(16)]
                        )
                    restarts = server.stats()["restarts"]
            return results, restarts

        results, restarts = asyncio.run(scenario())
        assert all(results)  # every verdict delivered, none wrong
