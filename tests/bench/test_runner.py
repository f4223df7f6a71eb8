"""Runner timing-primitive tests."""

import numpy as np
import pytest

from repro.baselines.base import IndexBudgetExceeded
from repro.bench.runner import best_of, build_index, time_queries, timed


class FakeIndex:
    def storage_bytes(self):
        return 1234


class TestTimed:
    def test_returns_result_and_elapsed(self):
        result, seconds = timed(lambda: 42)
        assert result == 42
        assert seconds >= 0


class TestBestOf:
    def test_first_result_and_fastest_time(self):
        calls = []
        result, seconds = best_of(3, lambda: calls.append(len(calls)) or len(calls))
        assert result == 1 and len(calls) == 3
        assert seconds >= 0

    def test_runs_at_least_once(self):
        calls = []
        assert best_of(0, lambda: calls.append(1) or "x")[0] == "x"
        assert calls == [1]


class TestBuildIndex:
    def test_success(self):
        outcome = build_index("fake", FakeIndex)
        assert outcome.ok
        assert outcome.name == "fake"
        assert outcome.storage_bytes == 1234
        assert outcome.seconds is not None and outcome.seconds >= 0

    def test_budget_failure_captured(self):
        def boom():
            raise IndexBudgetExceeded("too big")

        outcome = build_index("fail", boom)
        assert not outcome.ok
        assert outcome.failure == "too big"
        assert outcome.storage_bytes is None

    def test_other_exceptions_propagate(self):
        def boom():
            raise RuntimeError("unexpected")

        with pytest.raises(RuntimeError):
            build_index("fail", boom)

    def test_index_without_storage_method(self):
        outcome = build_index("raw", lambda: object())
        assert outcome.ok and outcome.storage_bytes is None


class TestTimeQueries:
    def test_counts_positives(self):
        pairs = np.array([[0, 1], [1, 2], [2, 0]])
        timing = time_queries(lambda s, t: s < t, pairs)
        assert timing.count == 3
        assert timing.positives == 2
        assert timing.seconds >= 0

    def test_us_per_query(self):
        pairs = np.array([[0, 0]] * 10)
        timing = time_queries(lambda s, t: True, pairs)
        assert timing.us_per_query == pytest.approx(
            1e6 * timing.seconds / 10
        )

    def test_scaled_ms(self):
        pairs = np.array([[0, 0]] * 10)
        timing = time_queries(lambda s, t: True, pairs)
        assert timing.scaled_ms(1_000_000) == pytest.approx(
            1e3 * timing.seconds * 100_000
        )

    def test_empty_batch(self):
        timing = time_queries(lambda s, t: True, np.empty((0, 2), dtype=np.int64))
        assert timing.count == 0 and timing.positives == 0
