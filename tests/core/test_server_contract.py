"""One contract for the three query servers.

``QueryServer`` (1 and 2 worker processes), ``ThreadQueryServer`` and
``ShardedQueryServer`` on both backends run on one ticket core, so they
share one observable contract: input validation in the parent, ticket
bookkeeping, the closed-server check, input-order verdicts, one
``stats()`` schema, and one set of constructor knobs.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.serialize import save_mmap, save_sharded
from repro.core.serve import QueryServer, ThreadQueryServer, UnknownTicketError
from repro.core.sharded import ShardedQueryServer
from repro.graph.generators import gnp_digraph
from repro.workloads import random_pairs
from tests.conftest import assert_every_case, split_index, split_shards

K = 6

#: Keys every server's ``stats()`` carries.
SHARED_KEYS = {
    "workers",
    "pairs_served",
    "outstanding_tickets",
    "restarts",
    "worker_restarts",
    "timeouts",
    "hangs",
    "degraded",
    "health",
}

#: Keys a backend adds to the shared schema.
BACKEND_KEYS = {
    "thread": {"kernel_threads"},
    "sharded-process": {"num_shards", "cross_pairs", "boundary_size", "shards"},
    "sharded-thread": {"num_shards", "cross_pairs", "boundary_size", "shards"},
}

#: Constructor knobs that no server takes.
RETIRED = {
    "slots_per_worker": 2,
    "restart_backoff": 0.05,
    "start_method": "spawn",
    "shard_pairs": 7,
}


def open_server(kind, files, **knobs):
    """A server of ``kind`` over ``files``; ``knobs`` go to the pool
    constructor (through ``server_kwargs`` for the sharded server)."""
    if kind == "process-1":
        return QueryServer(files.index, workers=1, **knobs)
    if kind == "process-2":
        return QueryServer(files.index, workers=2, **knobs)
    if kind == "thread":
        return ThreadQueryServer(files.index, workers=2, **knobs)
    backend = kind.split("-")[1]
    return ShardedQueryServer(
        files.shards, backend=backend, server_kwargs=knobs
    )


KINDS = ["process-1", "process-2", "thread", "sharded-process", "sharded-thread"]


@pytest.fixture(scope="module")
def graph():
    return gnp_digraph(80, 0.05, seed=21)


@pytest.fixture(scope="module")
def pairs(graph):
    return random_pairs(graph.n, 2000, rng=np.random.default_rng(3))


@pytest.fixture(scope="module")
def index(graph, pairs):
    """The served index, on the §4.3 cover so pairs reach Cases 1-4."""
    index = split_index(graph, K)
    assert_every_case(index, pairs)
    return index


@pytest.fixture(scope="module")
def expected(index, pairs):
    return index.query_batch(pairs)


@pytest.fixture(scope="module")
def files(graph, index, tmp_path_factory):
    base = tmp_path_factory.mktemp("contract")
    save_mmap(index, base / "index.kr6")
    save_sharded(split_shards(graph, K, 2), base / "shards.kr6")
    return SimpleNamespace(index=base / "index.kr6", shards=base / "shards.kr6")


@pytest.fixture(scope="module", params=KINDS)
def server(request, files):
    with open_server(request.param, files) as srv:
        srv.kind = request.param
        yield srv


def test_empty_batch(server):
    out = server.query_batch(np.empty((0, 2), dtype=np.int64))
    assert out.shape == (0,) and out.dtype == bool


@pytest.mark.parametrize(
    "bad, match",
    [
        ([(0, 80)], "out of range"),
        ([(-1, 0)], "out of range"),
        ([(0.5, 1)], "integer"),
    ],
    ids=["past-n", "negative", "float"],
)
def test_bad_ids_raise_in_parent(server, bad, match):
    before = server.stats()["outstanding_tickets"]
    with pytest.raises(ValueError, match=match):
        server.submit(bad)
    assert server.stats()["outstanding_tickets"] == before


def test_unknown_and_double_collect(server, pairs):
    ticket = server.submit(pairs[:50])
    server.collect(ticket)
    with pytest.raises(UnknownTicketError):
        server.collect(ticket)
    with pytest.raises(KeyError):  # UnknownTicketError subclasses it
        server.collect(10**6)


def test_pipelined_tickets_in_input_order(server, pairs, expected):
    chunks = np.array_split(np.arange(len(pairs)), 5)
    tickets = [server.submit(pairs[c]) for c in chunks]
    # Collect out of order: every ticket keeps its own input order.
    got = {t: server.collect(t) for t in reversed(tickets)}
    for t, c in zip(tickets, chunks):
        assert np.array_equal(got[t], expected[c])


def test_stats_schema(server, pairs):
    before = server.stats()["pairs_served"]
    server.query_batch(pairs[:300])
    stats = server.stats()
    assert set(stats) == SHARED_KEYS | BACKEND_KEYS.get(server.kind, set())
    assert stats["workers"] == server.workers
    assert len(stats["worker_restarts"]) == server.workers
    assert stats["pairs_served"] == before + 300
    assert stats["outstanding_tickets"] == 0
    assert stats["health"] == "ok" and stats["degraded"] is False
    assert stats["restarts"] == stats["hangs"] == stats["timeouts"] == 0


@pytest.mark.parametrize("kind", KINDS)
def test_closed_server_refuses_work(kind, files, pairs):
    server = open_server(kind, files)
    ticket = server.submit(pairs[:10])
    server.close()
    server.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        server.submit(pairs[:10])
    with pytest.raises(RuntimeError, match="closed"):
        server.collect(ticket)
    with pytest.raises(RuntimeError, match="closed"):
        server.query_batch(pairs[:10])


@pytest.mark.parametrize("kind", KINDS)
def test_slot_pairs_on_every_backend(kind, files, pairs, expected):
    with open_server(kind, files, slot_pairs=7) as server:
        assert np.array_equal(server.query_batch(pairs[:500]), expected[:500])


@pytest.mark.parametrize("knob", sorted(RETIRED))
@pytest.mark.parametrize("kind", KINDS)
def test_retired_knobs_raise_type_error(kind, knob, files):
    with pytest.raises(TypeError, match=knob):
        open_server(kind, files, **{knob: RETIRED[knob]})
