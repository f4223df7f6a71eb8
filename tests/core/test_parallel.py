"""Parallel construction tests (§4.1.3): bit-identical to serial."""

import numpy as np
import pytest

from repro.core.index_graph import IndexGraph
from repro.core.kreach import KReachIndex
from repro.core.parallel import build_kreach_parallel, parallel_khop_triples
from repro.graph.generators import gnp_digraph, path_graph


class TestParallelTriples:
    @pytest.mark.parametrize("k", [2, 5, None])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_triples_match_serial(self, k, workers):
        g = gnp_digraph(60, 0.06, seed=7)
        serial = KReachIndex(g, k, builder="serial")
        triples = parallel_khop_triples(g, serial.cover, k, workers=workers)
        ig = IndexGraph.for_kreach(g.n, serial.cover, *triples, k)
        assert ig == serial.index_graph

    def test_pooled_triples_ascend(self):
        """Contiguous chunks concatenated in order keep the blocked
        kernel's (src, dst) order across the pool."""
        g = gnp_digraph(150, 0.04, seed=9)
        cover = KReachIndex(g, 3).cover
        src, dst, _ = parallel_khop_triples(g, cover, 3, workers=2)
        keys = src * g.n + dst
        assert len(keys) and bool(np.all(keys[1:] > keys[:-1]))

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            parallel_khop_triples(path_graph(4), {1, 2}, 2, workers=0)

    def test_empty_cover(self):
        g = path_graph(1)
        src, dst, dist = parallel_khop_triples(g, set(), 3, workers=2)
        assert len(src) == len(dst) == len(dist) == 0


class TestBuildParallel:
    @pytest.mark.parametrize("k", [3, None])
    def test_index_answers_match_serial(self, k):
        g = gnp_digraph(50, 0.08, seed=8)
        serial = KReachIndex(g, k)
        parallel = build_kreach_parallel(g, k, workers=2, cover=serial.cover)
        assert parallel.index_graph == serial.index_graph
        rng = np.random.default_rng(0)
        for _ in range(300):
            s, t = int(rng.integers(0, g.n)), int(rng.integers(0, g.n))
            assert serial.query(s, t) == parallel.query(s, t), (k, s, t)

    def test_cover_computed_when_omitted(self):
        g = gnp_digraph(30, 0.1, seed=10)
        parallel = build_kreach_parallel(g, 3, workers=1)
        serial = KReachIndex(g, 3, cover=parallel.cover)
        assert parallel.weighted_edges() == serial.weighted_edges()
