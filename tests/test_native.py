"""Native kernel tier differential suite.

Pins the dispatch registry's contract (tier selection, env parsing, the
``use`` stack, forced fallback when numba is masked away) and — the part
that actually matters — that every registered kernel computes
bit-identical results across every tier that can run here.  The
``python`` tier executes the exact bodies numba would compile, so this
suite pins the compiled tier's semantics even on hosts without numba;
the CI numba leg re-runs it with ``KREACH_NATIVE=numba``.
"""

import os
import sys

import numpy as np
import pytest

from repro import native
from repro.bitsets import ops
from repro.core.batch import MISSING_WEIGHT, KeyedRowStore
from repro.core.kreach import KReachIndex
from repro.graph.generators import gnp_digraph
from repro.graph.traversal import bfs_distances, bfs_distances_blocked
from repro.workloads import random_pairs
from tests.conftest import scalar_batch

# Tiers whose kernels can execute in this environment.  'python' runs
# the numba bodies uncompiled — the stand-in for the compiled tier on
# numba-less hosts; when numba IS installed, test it for real.
TIERS = ["numpy", "python"] + (["numba"] if native.available() else [])

# The compiled tier where numba is installed, else the exact bodies it
# would compile.
COMPILED = "numba" if native.available() else "python"

WIDTHS = [0, 1, 63, 64, 65, 130]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(native.ENV_VAR, raising=False)


def rng_for(seed):
    return np.random.default_rng(seed)


class TestRegistry:
    def test_all_expected_kernels_registered(self):
        assert native.kernel_names() == (
            "and_any",
            "expand_frontier",
            "gather_and_any",
            "keyed_lookup",
            "or_rows",
            "probe_bits",
            "set_bits",
        )

    def test_requested_parses_env(self, monkeypatch):
        assert native.requested() == "auto"
        for tier in native.TIERS:
            monkeypatch.setenv(native.ENV_VAR, tier.upper())
            assert native.requested() == tier
        monkeypatch.setenv(native.ENV_VAR, "turbo")
        with pytest.raises(ValueError, match="KREACH_NATIVE"):
            native.requested()

    def test_active_resolves_auto(self):
        expected = "numba" if native.available() else "numpy"
        assert native.active() == expected

    def test_env_numba_without_numba_raises(self, monkeypatch):
        if native.available():
            pytest.skip("numba present: the env request is satisfiable")
        monkeypatch.setenv(native.ENV_VAR, "numba")
        with pytest.raises(RuntimeError, match="numba is not importable"):
            native.active()

    def test_use_stack_nests_and_restores(self):
        base = native.active()
        with native.use("numpy"):
            assert native.active() == "numpy"
            with native.use("python"):
                assert native.active() == "python"
            assert native.active() == "numpy"
        assert native.active() == base
        with pytest.raises(ValueError, match="tier"):
            with native.use("turbo"):
                pass

    def test_forced_numba_without_numba_falls_back(self):
        # Per-call preference is advisory: use('numba') on a numba-less
        # host serves numpy instead of raising.
        with native.use("numba"):
            fn, tier = native.resolve("and_any")
            if native.available():
                assert tier == "numba"
            else:
                assert tier == "numpy"
            a = np.array([[1, 0]], dtype=np.uint64)
            assert fn(a, a).tolist() == [True]

    def test_resolve_python_tier_returns_kernel_body(self):
        from repro import native_kernels

        with native.use("python"):
            fn, tier = native.resolve("and_any")
        assert tier == "python"
        assert fn is native_kernels.and_any

    def test_masked_numba_forces_numpy(self, monkeypatch):
        # Simulate a host where numba's import is broken mid-process.
        monkeypatch.setitem(sys.modules, "numba", None)
        native.refresh()
        try:
            assert not native.available()
            assert native.active() == "numpy"
            with native.use("numba"):
                _, tier = native.resolve("and_any")
                assert tier == "numpy"
            info = native.describe()
            assert info["available"] is False
            assert info["numba_version"] is None
        finally:
            monkeypatch.undo()
            native.refresh()

    def test_thread_budget(self):
        cpus = os.cpu_count() or 1
        assert native.thread_budget(1) == cpus
        assert native.thread_budget(cpus) == 1
        assert native.thread_budget(10 * cpus) == 1
        assert native.thread_budget(0) == cpus

    def test_pin_kernel_threads_sets_env(self, monkeypatch):
        monkeypatch.delenv("NUMBA_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert native.pin_kernel_threads(3) == 3
        assert os.environ["NUMBA_NUM_THREADS"] == "3"
        assert os.environ["OMP_NUM_THREADS"] == "3"
        assert native.pin_kernel_threads(0) == 1  # floor at one thread

    def test_describe_shape(self):
        info = native.describe()
        assert set(info) == {
            "requested",
            "available",
            "active",
            "numba_version",
            "threading_layer",
            "num_threads",
            "kernels",
        }
        assert set(info["kernels"]) == set(native.kernel_names())
        line = native.describe_line()
        assert "native tier:" in line and "7 kernels" in line


def bit_rows(rng, rows, nbits, density=0.1):
    """A packed uint64 matrix with the given bit density."""
    words = (nbits + 63) // 64
    out = np.zeros((rows, words), dtype=np.uint64)
    if nbits and rows:
        count = max(1, int(density * rows * nbits))
        ops.set_bits(
            out,
            rng.integers(0, rows, size=count),
            rng.integers(0, nbits, size=count),
        )
    return out


class TestKernelDifferentials:
    """Every dispatched kernel: tier X ≡ numpy baseline, bit for bit."""

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("nbits", WIDTHS)
    def test_and_any(self, tier, nbits):
        rng = rng_for(nbits + 1)
        rows = 0 if nbits == 0 else 40
        a = bit_rows(rng, rows, max(nbits, 1))[:rows]
        b = bit_rows(rng, rows, max(nbits, 1))[:rows]
        with native.use("numpy"):
            expected = ops.and_any(a, b)
        with native.use(tier):
            got = ops.and_any(a, b)
        assert np.array_equal(expected, got)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("nbits", WIDTHS)
    def test_set_bits_and_bit_matrix(self, tier, nbits):
        rng = rng_for(nbits + 2)
        rows, m = 16, 200
        if nbits == 0:
            with native.use(tier):
                out = ops.bit_matrix(
                    np.array([], dtype=np.int64),
                    np.array([], dtype=np.int64),
                    rows,
                    64,
                )
            assert out.shape == (16, 1) and not out.any()
            return
        r = rng.integers(0, rows, size=m)
        c = rng.integers(0, nbits, size=m)
        with native.use("numpy"):
            expected = ops.bit_matrix(r, c, rows, nbits)
        with native.use(tier):
            got = ops.bit_matrix(r, c, rows, nbits)
            inplace = np.zeros_like(expected)
            ops.set_bits(inplace, r, c)
        assert np.array_equal(expected, got)
        assert np.array_equal(expected, inplace)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("nbits", WIDTHS)
    def test_probe_bits(self, tier, nbits):
        rng = rng_for(nbits + 3)
        matrix = bit_rows(rng, 24, max(nbits, 1))
        m = 0 if nbits == 0 else 300
        r = rng.integers(0, 24, size=m)
        c = rng.integers(0, max(nbits, 1), size=m)
        with native.use("numpy"):
            expected = ops.probe_bits(matrix, r, c)
        with native.use(tier):
            got = ops.probe_bits(matrix, r, c)
        assert np.array_equal(expected, got)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("nbits", WIDTHS)
    def test_or_rows_segmented(self, tier, nbits):
        rng = rng_for(nbits + 4)
        matrix = bit_rows(rng, 32, max(nbits, 1))
        m = 0 if nbits == 0 else 500
        rows = rng.integers(0, 32, size=m)
        owner = np.sort(rng.integers(0, 10, size=m))
        with native.use("numpy"):
            expected = ops.or_rows_segmented(matrix, rows, owner, 10)
        with native.use(tier):
            got = ops.or_rows_segmented(matrix, rows, owner, 10)
        assert np.array_equal(expected, got)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("nbits", WIDTHS)
    def test_gather_and_any(self, tier, nbits):
        rng = rng_for(nbits + 5)
        u = bit_rows(rng, 20, max(nbits, 1))
        t = bit_rows(rng, 20, max(nbits, 1))
        m = 0 if nbits == 0 else 400
        s_idx = rng.integers(0, 20, size=m)
        t_idx = rng.integers(0, 20, size=m)
        with native.use("numpy"):
            expected = native.kernel("gather_and_any")(u, t, s_idx, t_idx)
        with native.use(tier):
            got = native.kernel("gather_and_any")(u, t, s_idx, t_idx)
        assert np.array_equal(expected, got)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("m", [0, 1, 500])
    def test_keyed_lookup(self, tier, m):
        rng = rng_for(m + 6)
        n = 1 << 12
        keys = np.unique(rng.integers(0, n * n, size=300))
        store = KeyedRowStore(keys, rng.integers(1, 50, size=len(keys)), n)
        u = rng.integers(0, n, size=m)
        v = rng.integers(0, n, size=m)
        with native.use("numpy"):
            expected = store.lookup(u, v)
        with native.use(tier):
            got = store.lookup(u, v)
        assert np.array_equal(expected, got)
        if m:
            assert (got == MISSING_WEIGHT).any() or len(keys) >= m

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_expand_frontier_via_blocked_bfs(self, tier, seed):
        g = gnp_digraph(120, 0.04, seed=seed)
        sources = np.arange(0, g.n, 2, dtype=np.int64)
        with native.use("numpy"):
            e_src, e_dst, e_dist = bfs_distances_blocked(g, sources, k=6)
        with native.use(tier):
            g_src, g_dst, g_dist = bfs_distances_blocked(g, sources, k=6)
        assert np.array_equal(e_src, g_src)
        assert np.array_equal(e_dst, g_dst)
        assert np.array_equal(e_dist, g_dist)
        # And against the scalar per-source BFS oracle.
        for s in sources[:8]:
            mask = g_src == s
            oracle = bfs_distances(g, int(s), k=6)
            expected_dst = np.flatnonzero((oracle >= 1) & (oracle <= 6))
            assert np.array_equal(np.sort(g_dst[mask]), expected_dst)
            order = np.argsort(g_dst[mask])
            assert np.array_equal(
                g_dist[mask][order], oracle[expected_dst]
            )


class TestEngineMatrix:
    """The compiled kernel tier ≡ the numpy tier ≡ the per-pair ``query``,
    across hop budgets.

    The tier is chosen per thread with ``native.use`` — ``query_batch``
    takes no engine argument."""

    @pytest.fixture(scope="class")
    def graph(self):
        return gnp_digraph(90, 0.05, seed=11)

    @pytest.fixture(scope="class")
    def pairs(self, graph):
        return random_pairs(graph.n, 3000, rng=rng_for(12))

    @pytest.mark.parametrize("k", [0, 2, 6, None])
    def test_kreach_native_engine(self, graph, pairs, k):
        idx = KReachIndex(graph, k)
        reference = scalar_batch(idx, pairs)
        assert np.array_equal(reference, idx.query_batch(pairs))
        with native.use(COMPILED):
            assert np.array_equal(reference, idx.query_batch(pairs))

    @pytest.mark.parametrize("tier", TIERS)
    def test_kreach_under_forced_tier(self, graph, pairs, tier):
        idx = KReachIndex(graph, 3)
        reference = scalar_batch(idx, pairs)
        with native.use(tier):
            assert np.array_equal(reference, idx.query_batch(pairs))

    def test_hkreach_and_dynamic_native_engine(self, graph, pairs):
        from repro.core.dynamic import DynamicKReachIndex
        from repro.core.hkreach import HKReachIndex

        hk = HKReachIndex(graph, 2, 6)
        hk_reference = scalar_batch(hk, pairs)
        dyn = DynamicKReachIndex(graph, 4)
        dyn.insert_edge(5, 7)
        u0, v0 = next(iter(graph.edges()))
        dyn.delete_edge(int(u0), int(v0))
        dyn_reference = scalar_batch(dyn, pairs)
        with native.use(COMPILED):
            assert np.array_equal(hk_reference, hk.query_batch(pairs))
            assert np.array_equal(dyn_reference, dyn.query_batch(pairs))

    def test_unknown_engine_still_rejected(self, graph, pairs):
        idx = KReachIndex(graph, 2)
        with pytest.raises(TypeError, match="engine"):
            idx.query_batch(pairs, engine="warp")
