"""Failpoint framework + serving chaos suite.

Two layers.  The first pins :mod:`repro.faults` itself: registry
validation, env-spec parsing, the :func:`~repro.faults.inject` context
manager, probabilistic and bounded firing, and the cross-process token
protocol.  The second arms the serving failpoints for real and pins the
acceptance contract: through injected worker kills, worker hangs, and
kernel slowdowns, ``query_batch`` answers stay **bit-identical** to the
in-process engine (itself differentially pinned to the BFS oracle in
``tests/core/test_serve.py``) or raise the documented typed error —
never a wrong verdict — and ``collect(timeout=...)`` returns within its
bound even while a worker is hung.
"""

import time

import numpy as np
import pytest

from repro import faults
from repro.core.kreach import KReachIndex
from repro.core.serialize import save_mmap
from repro.core.serve import (
    QueryServer,
    QueryTimeout,
    ThreadQueryServer,
    UnknownTicketError,
)
from repro.graph.generators import gnp_digraph
from repro.workloads import random_pairs


@pytest.fixture(autouse=True)
def disarm_after():
    yield
    faults.reset()


@pytest.fixture(scope="module")
def graph():
    return gnp_digraph(60, 0.08, seed=11)


@pytest.fixture(scope="module")
def index(graph):
    return KReachIndex(graph, 3)


@pytest.fixture(scope="module")
def pairs(graph):
    return random_pairs(graph.n, 4000, rng=np.random.default_rng(5))


@pytest.fixture(scope="module")
def expected(index, pairs):
    return index.query_batch(pairs)


@pytest.fixture()
def served(tmp_path_factory, index):
    path = tmp_path_factory.mktemp("serve") / "index.kr4"
    save_mmap(index, path)
    return path


class TestRegistry:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint"):
            faults.arm("serialize.not_a_site", "error")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            faults.arm("batch.kernel_slow", "explode")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            faults.arm("batch.kernel_slow", "sleep", prob=1.5)

    def test_disarmed_fire_is_noop(self):
        assert faults.fire("batch.kernel_slow") is False
        assert faults.ENABLED is False

    def test_enabled_tracks_registry(self):
        faults.arm("batch.kernel_slow", "sleep")
        assert faults.ENABLED and faults.armed("batch.kernel_slow")
        faults.disarm("batch.kernel_slow")
        assert not faults.ENABLED

    def test_error_mode_raises_with_site(self):
        faults.arm("batch.kernel_slow", "error")
        with pytest.raises(faults.FaultInjected) as exc:
            faults.fire("batch.kernel_slow")
        assert exc.value.site == "batch.kernel_slow"

    def test_max_fires_bounds_triggering(self):
        faults.arm("batch.kernel_slow", "sleep", seconds=0.0, max_fires=2)
        assert faults.fire("batch.kernel_slow") is True
        assert faults.fire("batch.kernel_slow") is True
        assert faults.fire("batch.kernel_slow") is False

    def test_prob_zero_never_fires(self):
        faults.arm("batch.kernel_slow", "error", prob=0.0)
        for _ in range(50):
            assert faults.fire("batch.kernel_slow") is False

    def test_token_is_cross_registry_bound(self, tmp_path):
        token = str(tmp_path / "tok")
        faults.arm("batch.kernel_slow", "sleep", seconds=0.0, token=token)
        assert faults.fire("batch.kernel_slow") is True
        # Re-arming (as a fresh process would at import) does not reset
        # the bound: the claim file on disk is the source of truth.
        faults.arm("batch.kernel_slow", "sleep", seconds=0.0, token=token)
        assert faults.fire("batch.kernel_slow") is False

    def test_inject_restores_previous_arming(self):
        faults.arm("batch.kernel_slow", "sleep", seconds=0.0)
        with faults.inject("batch.kernel_slow", "error"):
            with pytest.raises(faults.FaultInjected):
                faults.fire("batch.kernel_slow")
        assert faults.fire("batch.kernel_slow") is True  # sleep again

    def test_inject_reports_fires(self):
        with faults.inject(
            "batch.kernel_slow", "sleep", seconds=0.0
        ) as fault:
            faults.fire("batch.kernel_slow")
            faults.fire("batch.kernel_slow")
        assert fault.fires == 2

    def test_describe_reflects_registry(self):
        faults.arm("serve.worker_hang", "hang", prob=0.25, seconds=1.0)
        snap = faults.describe()
        assert snap["serve.worker_hang"]["mode"] == "hang"
        assert snap["serve.worker_hang"]["prob"] == 0.25


class TestEnvSpec:
    def test_parse_and_arm(self):
        armed = faults.arm_from_env(
            "serve.worker_exit:exit:0.2, batch.kernel_slow:sleep"
        )
        assert armed == 2
        assert faults.describe()["serve.worker_exit"]["prob"] == 0.2

    def test_empty_spec_is_noop(self):
        assert faults.arm_from_env("") == 0

    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError, match="expected site:mode"):
            faults.arm_from_env("serve.worker_exit")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            faults.arm_from_env("serve.worker_exit:exit:lots")

    def test_unknown_site_rejected_loudly(self):
        with pytest.raises(ValueError, match="unknown failpoint"):
            faults.arm_from_env("serve.wrong_name:exit")


class TestKernelFaults:
    def test_kernel_slow_keeps_answers_exact(self, index, pairs, expected):
        with faults.inject("batch.kernel_slow", "sleep", seconds=0.001):
            got = index.query_batch(pairs)
        assert np.array_equal(got, expected)

    def test_kernel_error_surfaces_typed(self, index, pairs):
        with faults.inject("batch.kernel_slow", "error"):
            with pytest.raises(faults.FaultInjected):
                index.query_batch(pairs)


class TestProcessServerChaos:
    def test_worker_exit_recovers_exact(
        self, tmp_path, served, pairs, expected
    ):
        # Exactly one worker dies (token-bound across the pool and its
        # respawned replacement); supervision re-dispatches its shards.
        with faults.inject(
            "serve.worker_exit", "exit", token=str(tmp_path / "tok")
        ):
            with QueryServer(served, workers=2, slot_pairs=256) as srv:
                got = srv.query_batch(pairs)
                stats = srv.stats()
        assert np.array_equal(got, expected)
        assert stats["restarts"] >= 1
        assert stats["health"] == "ok" and not stats["degraded"]

    def test_worker_hang_watchdog_recovers_exact(
        self, tmp_path, served, pairs, expected
    ):
        with faults.inject(
            "serve.worker_hang", "hang", token=str(tmp_path / "tok")
        ):
            with QueryServer(
                served, workers=2, slot_pairs=256, hang_timeout=0.75
            ) as srv:
                got = srv.query_batch(pairs)
                stats = srv.stats()
        assert np.array_equal(got, expected)
        assert stats["hangs"] >= 1 and stats["restarts"] >= 1

    def test_collect_timeout_bounds_hung_worker(
        self, tmp_path, served, pairs, expected
    ):
        # Watchdog slower than the collect bound: the deadline must not
        # wait for supervision.  The ticket stays collectable and the
        # un-bounded retry settles exactly once the watchdog recovers.
        with faults.inject(
            "serve.worker_hang", "hang", token=str(tmp_path / "tok")
        ):
            with QueryServer(
                served, workers=2, slot_pairs=256, hang_timeout=5.0
            ) as srv:
                ticket = srv.submit(pairs)
                start = time.monotonic()
                with pytest.raises(QueryTimeout):
                    srv.collect(ticket, timeout=0.4)
                assert time.monotonic() - start < 2.0
                got = srv.collect(ticket)
                assert srv.stats()["timeouts"] == 1
        assert np.array_equal(got, expected)

    def test_submit_deadline_applies_to_collect(self, served, pairs):
        with faults.inject("serve.worker_hang", "hang"):
            with QueryServer(
                served,
                workers=1,
                slot_pairs=256,
                hang_timeout=None,
                shutdown_grace=0.2,
            ) as srv:
                ticket = srv.submit(pairs, timeout=0.3)
                with pytest.raises(QueryTimeout):
                    srv.collect(ticket)  # inherits the submit-time bound

    def test_restart_budget_degrades_to_exact_local(
        self, served, pairs, expected
    ):
        # Every worker dies on every shard and the budget is zero: the
        # pool must fall back to in-process serving, not crash-loop.
        with faults.inject("serve.worker_exit", "exit"):
            with QueryServer(
                served, workers=2, slot_pairs=256, max_restarts=0
            ) as srv:
                got = srv.query_batch(pairs)
                stats = srv.stats()
                again = srv.query_batch(pairs)  # degraded submit path
        assert np.array_equal(got, expected)
        assert np.array_equal(again, expected)
        assert stats["degraded"] and stats["health"] == "degraded"

    def test_unknown_ticket_typed_error(self, served, pairs):
        with QueryServer(served, workers=1) as srv:
            ticket = srv.submit(pairs)
            srv.collect(ticket)
            with pytest.raises(UnknownTicketError):
                srv.collect(ticket)
            with pytest.raises(KeyError):  # subclass contract
                srv.collect(ticket)
            with pytest.raises(UnknownTicketError):
                srv.collect(10_000)


class TestThreadServerChaos:
    def test_hang_timeout_then_late_collect_exact(
        self, served, pairs, expected
    ):
        with faults.inject(
            "serve.worker_hang", "hang", seconds=1.0, max_fires=1
        ):
            with ThreadQueryServer(served, workers=2, slot_pairs=256) as srv:
                ticket = srv.submit(pairs)
                start = time.monotonic()
                with pytest.raises(QueryTimeout):
                    srv.collect(ticket, timeout=0.2)
                assert time.monotonic() - start < 1.0
                got = srv.collect(ticket)  # settles once the sleep ends
                assert srv.stats()["timeouts"] == 1
        assert np.array_equal(got, expected)

    def test_query_batch_timeout_roundtrip(self, served, pairs, expected):
        with ThreadQueryServer(served, workers=2) as srv:
            got = srv.query_batch(pairs, timeout=30.0)
        assert np.array_equal(got, expected)

    def test_unknown_ticket_typed_error(self, served, pairs):
        with ThreadQueryServer(served, workers=1) as srv:
            ticket = srv.submit(pairs)
            srv.collect(ticket)
            with pytest.raises(UnknownTicketError):
                srv.collect(ticket)
            with pytest.raises(KeyError):
                srv.collect(ticket)


class TestCloseEscalation:
    def test_close_kills_hung_worker(self, served, pairs):
        # A worker parked inside a shard ignores the stop sentinel; close
        # must escalate (terminate, then kill) instead of leaking it.
        with faults.inject("serve.worker_hang", "hang"):
            srv = QueryServer(
                served,
                workers=1,
                slot_pairs=256,
                hang_timeout=None,
                shutdown_grace=0.2,
            )
            srv.submit(pairs)
            time.sleep(0.3)  # let the worker enter the hang
            processes = [w.process for w in srv._workers]
            srv.close()
        assert all(not p.is_alive() for p in processes if p is not None)

    def test_close_idempotent_after_escalation(self, served, pairs):
        with faults.inject("serve.worker_hang", "hang"):
            srv = QueryServer(
                served,
                workers=1,
                slot_pairs=256,
                hang_timeout=None,
                shutdown_grace=0.2,
            )
            srv.submit(pairs)
            srv.close()
            srv.close()  # second close is a no-op, not an error
