#!/usr/bin/env python
"""Quickstart: build a k-reach index and answer k-hop reachability queries.

Covers the whole public API surface in under a minute:

* build a graph (from edges, a generator, or a dataset stand-in);
* build :class:`repro.KReachIndex` for a fixed k and for k = ∞;
* query, inspect the index, check the storage model;
* any-k queries with :class:`repro.CoverDistanceOracle`.

Run:  python examples/quickstart.py [--fast]
"""

import argparse

from repro import CoverDistanceOracle, DiGraph, KReachIndex
from repro.datasets import load
from repro.graph.stats import summarize


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="smaller dataset")
    args = parser.parse_args()

    # ------------------------------------------------------------------
    # 1. A graph from explicit edges.
    # ------------------------------------------------------------------
    g = DiGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 3)])
    print(f"toy graph: {g}")

    idx3 = KReachIndex(g, k=3)
    print(f"3-reach index: cover={sorted(idx3.cover)}, edges={idx3.edge_count}")
    print(f"  0 ->3 3?  {idx3.query(0, 3)}   (path 0-1-5-3 has 3 hops)")
    print(f"  0 ->3 4?  {idx3.query(0, 4)}   (4 is 4 hops away)")

    # k = None builds the n-reach classic-reachability index.
    inf = KReachIndex(g, k=None)
    print(f"  0 -> 4?   {inf.query(0, 4)}   (reachable, just not in 3 hops)")

    # ------------------------------------------------------------------
    # 2. A dataset stand-in from the paper's Table 2.
    # ------------------------------------------------------------------
    scale = 0.02 if args.fast else 0.1
    graph = load("GO", scale=scale)
    stats = summarize(graph, sample_size=min(graph.n, 300))
    print(f"\nGO stand-in at scale {scale}: n={stats.n} m={stats.m} "
          f"d={stats.diameter} µ={stats.mu}")

    idx = KReachIndex(graph, k=stats.mu)
    print(f"µ-reach index: |V_I|={idx.cover_size} ({100*idx.cover_size/graph.n:.1f}% "
          f"of vertices), |E_I|={idx.edge_count}, "
          f"{idx.storage_bytes()/1024:.1f} KiB on the §4.3 storage model")

    sample = min(200, graph.n)
    hits = sum(
        idx.query(s % graph.n, (s * 7 + 3) % graph.n) for s in range(sample)
    )
    print(f"{sample} sample µ-hop queries -> {hits} reachable")

    # ------------------------------------------------------------------
    # 3. Arbitrary k from one exact cover-distance oracle (§4.4).
    # ------------------------------------------------------------------
    oracle = CoverDistanceOracle(graph)
    s, t = 0, graph.n - 1
    print(f"distance oracle: {oracle.storage_bytes()/1024:.1f} KiB, "
          f"d({s}, {t}) = {oracle.distance(s, t)}")
    for k in (1, 2, stats.mu, stats.diameter):
        print(f"  {s} ->{k} {t}? {oracle.reaches_within(s, t, k)}")


if __name__ == "__main__":
    main()
