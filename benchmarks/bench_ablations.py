"""Ablation benches (ours; motivated by §1, §4.3 and §4.4).

* cover strategies: degree-first vs random vs greedy (size & build time);
* online search vs index on celebrity workloads (the "Lady Gaga" story);
* general-k designs: geometric family vs exact family vs distance oracle.
"""

import numpy as np
import pytest

from repro.baselines import BfsIndex, BidirectionalBfsIndex
from repro.core import (
    CoverDistanceOracle,
    ExactKFamily,
    GeometricKReachFamily,
)
from repro.core.vertex_cover import greedy_vertex_cover, vertex_cover_2approx
from repro.workloads import celebrity_pairs

from conftest import SLOW_QUERIES, cached_index, graph_for, kreach_for, pairs_for

ABLATION_DATASETS = ("AgroCyc", "ArXiv")


# ----------------------------------------------------------------------
# Cover strategies (§4.3)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ABLATION_DATASETS)
@pytest.mark.parametrize("strategy", ["degree", "random", "input"])
def test_cover_strategy(benchmark, name, strategy):
    g = graph_for(name)
    rng = np.random.default_rng(13)
    cover = benchmark(lambda: vertex_cover_2approx(g, order=strategy, rng=rng))
    benchmark.extra_info["cover_size"] = len(cover)


@pytest.mark.parametrize("name", ABLATION_DATASETS)
def test_cover_greedy(benchmark, name):
    g = graph_for(name)
    cover = benchmark(lambda: greedy_vertex_cover(g))
    benchmark.extra_info["cover_size"] = len(cover)


# ----------------------------------------------------------------------
# Online search vs index on celebrity workloads (§1)
# ----------------------------------------------------------------------
def _celebrity_workload(name):
    g = graph_for(name)
    return [
        (int(s), int(t))
        for s, t in celebrity_pairs(g, SLOW_QUERIES, rng=np.random.default_rng(3))
    ]


@pytest.mark.parametrize("name", ABLATION_DATASETS)
@pytest.mark.parametrize("engine", ["bfs", "bibfs", "kreach"])
def test_celebrity_queries(benchmark, name, engine):
    g = graph_for(name)
    k = 6
    pairs = cached_index(("celebrity", name), lambda: _celebrity_workload(name))
    if engine == "bfs":
        bfs = BfsIndex(g)
        fn = lambda s, t: bfs.reaches_within(s, t, k)
    elif engine == "bibfs":
        bibfs = BidirectionalBfsIndex(g)
        fn = lambda s, t: bibfs.reaches_within(s, t, k)
    else:
        fn = kreach_for(name, k).query

    def run():
        for s, t in pairs:
            fn(s, t)

    benchmark(run)


# ----------------------------------------------------------------------
# General-k designs (§4.4)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ("Nasa",))
@pytest.mark.parametrize("design", ["geometric", "exact-family", "oracle"])
def test_general_k_construction(benchmark, name, design):
    g = graph_for(name)
    if design == "geometric":
        factory = lambda: GeometricKReachFamily(
            g, max_k=16, max_k_covers_diameter=False
        )
    elif design == "exact-family":
        factory = lambda: ExactKFamily(g, diameter=16)
    else:
        factory = lambda: CoverDistanceOracle(g)
    index = benchmark(factory)
    benchmark.extra_info["storage_bytes"] = index.storage_bytes()


@pytest.mark.parametrize("name", ("Nasa",))
@pytest.mark.parametrize("design", ["geometric", "exact-family", "oracle"])
def test_general_k_queries(benchmark, name, design):
    g = graph_for(name)
    if design == "geometric":
        index = cached_index(
            ("geo", name),
            lambda: GeometricKReachFamily(g, max_k=16, max_k_covers_diameter=False),
        )
        fn = lambda s, t, k: index.reaches_within(s, t, k)
    elif design == "exact-family":
        index = cached_index(("fam", name), lambda: ExactKFamily(g, diameter=16))
        fn = index.reaches_within
    else:
        index = cached_index(("oracle", name), lambda: CoverDistanceOracle(g))
        fn = index.reaches_within
    rng = np.random.default_rng(4)
    pairs = [(int(s), int(t)) for s, t in pairs_for(name, 500)]
    ks = [int(k) for k in rng.integers(1, 16, size=len(pairs))]

    def run():
        for (s, t), k in zip(pairs, ks):
            fn(s, t, k)

    benchmark(run)


# ----------------------------------------------------------------------
# Incremental maintenance (our extension; cf. the paper's related work [3])
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ("GO",))
def test_dynamic_insertions(benchmark, name):
    """Cost of 50 edge insertions into a maintained 4-reach index."""
    from repro.core import DynamicKReachIndex

    g = graph_for(name)
    rng = np.random.default_rng(21)
    updates = [
        (int(u), int(v))
        for u, v in rng.integers(0, g.n, size=(50, 2))
        if int(u) != int(v)
    ]

    def run():
        dyn = DynamicKReachIndex(g, 4)
        for u, v in updates:
            dyn.insert_edge(u, v)
        return dyn

    dyn = benchmark(run)
    benchmark.extra_info["cover_size"] = dyn.cover_size


@pytest.mark.parametrize("name", ("GO",))
def test_rebuild_per_batch(benchmark, name):
    """The naive alternative: rebuild the 4-reach index from scratch."""
    from repro.core import KReachIndex

    g = graph_for(name)
    index = benchmark(lambda: KReachIndex(g, 4))
    benchmark.extra_info["cover_size"] = index.cover_size
