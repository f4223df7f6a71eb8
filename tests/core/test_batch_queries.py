"""Differential tests for the vectorized batch query engine.

The contract under test: for every core index,
``query_batch(pairs)[i] == query(s_i, t_i) == BiBFS oracle(s_i, t_i)``
on every pair, across randomized graphs × hop budgets × the two readings
of the one row store (the default memory gate's level stack, and keyed
rows with chunked Case-4 cross products under a zero gate), and
``query_case_batch(pairs)[i] == query_case(s_i, t_i)``.  A divergence in
any leg pins the blame: batch≠scalar is a batch-engine bug, scalar≠oracle
is an index bug.
"""

import numpy as np
import pytest

from repro.core.general_k import INFINITE_DISTANCE, CoverDistanceOracle
from repro.core.hkreach import HKReachIndex
from repro.core.kreach import KReachIndex
from repro.core.vertex_cover import vertex_cover_2approx
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    gnp_digraph,
    paper_example_graph,
    power_law_digraph,
    random_dag,
    star_graph,
)
from repro.graph.traversal import bidirectional_reaches_within
from tests.conftest import gated_twin, scalar_batch

K_VALUES = [1, 2, 3, 5, 6, None]


def _graphs() -> list[tuple[str, DiGraph]]:
    """Randomized + adversarial graph zoo (seeded, so runs reproduce)."""
    return [
        ("gnp-sparse", gnp_digraph(40, 0.03, seed=11)),
        ("gnp-dense", gnp_digraph(24, 0.15, seed=12)),
        ("power-law", power_law_digraph(45, 160, seed=13)),
        ("dag", random_dag(30, 70, seed=14)),
        ("star", star_graph(25)),
        ("paper", paper_example_graph()),
        ("edgeless", DiGraph(6)),
    ]


def _all_pairs(g: DiGraph) -> np.ndarray:
    return np.array(
        [(s, t) for s in range(g.n) for t in range(g.n)], dtype=np.int64
    )


@pytest.mark.parametrize("name,g", _graphs())
@pytest.mark.parametrize("k", K_VALUES)
@pytest.mark.parametrize("gate", [None, 0])
def test_kreach_batch_equals_scalar_equals_oracle(name, g, k, gate):
    """On the default cover (all of V inside the gate: Case 1 only) and
    on the §4.3 cover, which leaves pairs to Cases 2-4."""
    options = {} if gate is None else {"bitset_matrix_bytes": gate}
    pairs = _all_pairs(g)
    oracle = [bidirectional_reaches_within(g, s, t, k) for s, t in pairs.tolist()]
    for idx in (
        KReachIndex(g, k, **options),
        KReachIndex(g, k, cover=vertex_cover_2approx(g), **options),
    ):
        batch = idx.query_batch(pairs)
        assert batch.dtype == bool and batch.shape == (len(pairs),)
        for i, (s, t) in enumerate(pairs.tolist()):
            assert batch[i] == idx.query(s, t) == oracle[i], (name, k, gate, s, t)


@pytest.mark.parametrize("name,g", _graphs())
@pytest.mark.parametrize("k", K_VALUES)
def test_kreach_case_batch_equals_scalar(name, g, k):
    pairs = _all_pairs(g)
    for idx in (KReachIndex(g, k), KReachIndex(g, k, cover=vertex_cover_2approx(g))):
        cases = idx.query_case_batch(pairs)
        assert cases.dtype == np.uint8 and cases.shape == (len(pairs),)
        for i, (s, t) in enumerate(pairs):
            assert cases[i] == idx.query_case(int(s), int(t)), (name, k, s, t)


@pytest.mark.parametrize("name,g", _graphs())
@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("k", K_VALUES)
def test_hkreach_batch_equals_scalar_equals_oracle(name, g, h, k):
    idx = HKReachIndex(g, h, k, strict=False)
    pairs = _all_pairs(g)
    batch = idx.query_batch(pairs)
    assert batch.dtype == bool and batch.shape == (len(pairs),)
    for i, (s, t) in enumerate(pairs):
        s, t = int(s), int(t)
        scalar = idx.query(s, t)
        oracle = bidirectional_reaches_within(g, s, t, k)
        assert batch[i] == scalar == oracle, (name, h, k, s, t)
    cases = idx.query_case_batch(pairs)
    for i, (s, t) in enumerate(pairs):
        assert cases[i] == idx.query_case(int(s), int(t)), (name, h, k, s, t)


@pytest.mark.parametrize("name,g", _graphs())
def test_oracle_distance_batch_equals_scalar(name, g):
    oracle = CoverDistanceOracle(g)
    pairs = _all_pairs(g)
    dist = oracle.distance_batch(pairs)
    assert dist.dtype == np.float64 and dist.shape == (len(pairs),)
    for i, (s, t) in enumerate(pairs):
        assert dist[i] == oracle.distance(int(s), int(t)), (name, s, t)
    for k in (0, 1, 3, 7):
        within = oracle.reaches_within_batch(pairs, k)
        for i, (s, t) in enumerate(pairs):
            assert within[i] == oracle.reaches_within(int(s), int(t), k)
    classic = oracle.reaches_batch(pairs)
    for i, (s, t) in enumerate(pairs):
        assert classic[i] == (oracle.distance(int(s), int(t)) < INFINITE_DISTANCE)


class TestBatchContract:
    """Shape/dtype/validation edges of the batch API."""

    @pytest.fixture(scope="class")
    def idx(self):
        return KReachIndex(gnp_digraph(20, 0.1, seed=31), 3)

    def test_empty_input(self, idx):
        for empty in ([], np.empty((0, 2), dtype=np.int64)):
            out = idx.query_batch(empty)
            assert out.shape == (0,) and out.dtype == bool
            cases = idx.query_case_batch(empty)
            assert cases.shape == (0,) and cases.dtype == np.uint8

    def test_list_of_tuples_accepted(self, idx):
        out = idx.query_batch([(0, 1), (5, 5), (3, 7)])
        assert out.shape == (3,)
        assert out[1]  # s == t is always reachable

    def test_out_of_range_raises(self, idx):
        with pytest.raises(ValueError):
            idx.query_batch([(0, 99)])
        with pytest.raises(ValueError):
            idx.query_batch([(-1, 0)])
        with pytest.raises(ValueError):
            idx.query_case_batch([(0, 99)])

    def test_malformed_shape_raises(self, idx):
        with pytest.raises(ValueError):
            idx.query_batch([(0, 1, 2)])

    def test_k_zero_only_self_pairs(self):
        g = gnp_digraph(10, 0.3, seed=32)
        idx = KReachIndex(g, 0)
        pairs = _all_pairs(g)
        out = idx.query_batch(pairs)
        assert np.array_equal(out, pairs[:, 0] == pairs[:, 1])

    def test_prepare_batch_is_idempotent_and_chains(self):
        g = gnp_digraph(15, 0.1, seed=33)
        idx = KReachIndex(g, 2)
        assert idx.prepare_batch() is idx
        store = idx.index_graph.keyed()
        idx.prepare_batch()
        assert idx.index_graph.keyed() is store

    def test_batch_order_follows_input(self, idx):
        pairs = _all_pairs(idx.graph)
        rng = np.random.default_rng(34)
        perm = rng.permutation(len(pairs))
        out = idx.query_batch(pairs)
        assert np.array_equal(idx.query_batch(pairs[perm]), out[perm])


class TestDeduplicatedDispatch:
    """The in-batch dedup/case-grouping micro-opt stays bit-identical."""

    def test_duplicate_heavy_batch_all_engines(self):
        g = gnp_digraph(40, 0.1, seed=41)
        rng = np.random.default_rng(41)
        base = rng.integers(0, g.n, size=(40, 2), dtype=np.int64)
        dup = base[rng.integers(0, len(base), size=2500)]
        for k in (2, 6, None):
            idx = KReachIndex(g, k)
            expected = scalar_batch(idx, dup)
            assert np.array_equal(idx.query_batch(dup), expected), k
            for path in ("bitset", "chunked"):
                assert np.array_equal(
                    gated_twin(idx, path).query_batch(dup), expected
                ), (k, path)

    def test_duplicate_heavy_hkreach(self):
        g = gnp_digraph(40, 0.1, seed=42)
        rng = np.random.default_rng(42)
        base = rng.integers(0, g.n, size=(30, 2), dtype=np.int64)
        dup = base[rng.integers(0, len(base), size=1500)]
        idx = HKReachIndex(g, 2, 6)
        expected = scalar_batch(idx, dup)
        assert idx._bitset_ready()
        assert np.array_equal(idx.query_batch(dup), expected)

    def test_dedup_runs_kernel_once_per_distinct_pair(self, monkeypatch):
        g = gnp_digraph(40, 0.1, seed=43)
        idx = KReachIndex(g, 6)
        dup = np.tile(np.array([[1, 2], [3, 4]], dtype=np.int64), (500, 1))
        seen = {}
        original = KReachIndex._query_batch_arrays

        def spy(self, s, t):
            seen["m"] = len(s)
            return original(self, s, t)

        monkeypatch.setattr(KReachIndex, "_query_batch_arrays", spy)
        out = idx.query_batch(dup)
        assert seen["m"] == 2  # kernels saw only the distinct pairs
        assert len(out) == len(dup)
