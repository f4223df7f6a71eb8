#!/usr/bin/env python
"""Citation-lineage analysis: classic reachability on a citation DAG.

Uses the ArXiv stand-in (a pure DAG, like the paper's Table 2 row) to ask
lineage questions — "does paper A transitively build on paper B, and
within how many citation generations?" — and compares n-reach with the
re-implemented comparators (GRAIL, PWAH, tree cover, chain cover) on the
same workload, echoing the paper's Tables 3-5 in miniature.

Run:  python examples/citation_analysis.py [--fast]
"""

import argparse
import time

import numpy as np

from repro.baselines import ChainCoverIndex, GrailIndex, PathTreeIndex, PwahIndex
from repro.core import CoverDistanceOracle, KReachIndex, vertex_cover_2approx
from repro.datasets import load
from repro.workloads import random_pairs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="smaller dataset")
    args = parser.parse_args()

    scale = 0.05 if args.fast else 0.25
    g = load("ArXiv", scale=scale)
    print(f"ArXiv stand-in: n={g.n}, m={g.m} (pure DAG, newer cites older)")

    # ------------------------------------------------------------------
    # 1. Lineage depth distribution for one recent paper.
    # ------------------------------------------------------------------
    oracle = CoverDistanceOracle(g)
    recent = g.n - 1
    depths: dict[int, int] = {}
    for old in range(0, g.n, max(1, g.n // 500)):
        d = oracle.distance(recent, old)
        if d != float("inf"):
            depths[int(d)] = depths.get(int(d), 0) + 1
    print(f"\nlineage of paper #{recent} (sampled ancestors by citation depth):")
    for depth in sorted(depths):
        print(f"  {depth:2d} generations back: {depths[depth]:5d} papers")

    # ------------------------------------------------------------------
    # 2. Compare the index field on the same random workload.
    # ------------------------------------------------------------------
    queries = 2_000 if args.fast else 10_000
    pairs = random_pairs(g.n, queries, rng=np.random.default_rng(5))
    contenders = {
        # The paper's §4.3 cover: the default would cover all of V here.
        "n-reach": lambda: KReachIndex(g, None, cover=vertex_cover_2approx(g)),
        "GRAIL": lambda: GrailIndex(g, num_labels=3, seed=5),
        "PWAH": lambda: PwahIndex(g),
        "PTree (tree cover)": lambda: PathTreeIndex(g),
        "3-hop (chain cover)": lambda: ChainCoverIndex(g),
    }
    print(f"\n{'index':20s} {'build ms':>9s} {'size MB':>8s} {'µs/query':>9s} {'positives':>9s}")
    reference: set[int] | None = None
    for name, factory in contenders.items():
        t0 = time.perf_counter()
        index = factory()
        build_ms = 1e3 * (time.perf_counter() - t0)
        query = index.query if name == "n-reach" else index.reaches
        t0 = time.perf_counter()
        answers = [query(int(s), int(t)) for s, t in pairs]
        per_query = 1e6 * (time.perf_counter() - t0) / len(pairs)
        positives = sum(answers)
        print(f"{name:20s} {build_ms:9.1f} {index.storage_bytes()/1e6:8.2f} "
              f"{per_query:9.2f} {positives:9d}")
        mask = {i for i, a in enumerate(answers) if a}
        if reference is None:
            reference = mask
        else:
            assert mask == reference, f"{name} disagrees with n-reach!"
    print("\nall five indexes agree on every query ✓")


if __name__ == "__main__":
    main()
