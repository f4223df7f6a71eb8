#!/usr/bin/env python
"""Sensor-network broadcast: k-hop reachability as delivery probability.

The paper's first motivating application (§1): in a wireless/sensor
network a message survives each hop with probability p, so the chance a
broadcast from s ever reaches t decays like p^hops — classic reachability
is meaningless, k-hop reachability is the question that matters.

This example builds a layered relay network, uses the §4.4 exact
cover-distance oracle to answer "which sensors hear a broadcast within k
hops" for every k from one index, and derives delivery probabilities.

Run:  python examples/sensor_network.py [--fast]
"""

import argparse

import numpy as np

from repro.core import CoverDistanceOracle
from repro.graph.generators import layered_dag
from repro.graph.stats import shortest_path_stats


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="smaller network")
    parser.add_argument("--hop-survival", type=float, default=0.8,
                        help="per-hop delivery probability (default 0.8)")
    args = parser.parse_args()

    layers = 12 if args.fast else 24
    width = 20 if args.fast else 60
    g = layered_dag(layers, width, p=0.18, seed=3)
    d, mu = shortest_path_stats(g, sample_size=min(g.n, 400))
    print(f"relay network: n={g.n}, m={g.m}, diameter≈{d}, µ={mu}")

    # ------------------------------------------------------------------
    # 1. One exact distance oracle answers every hop budget (§4.4).
    # ------------------------------------------------------------------
    oracle = CoverDistanceOracle(g)
    print(f"distance oracle: |S|={oracle.cover_size}, "
          f"{oracle.storage_bytes()/1e6:.2f} MB")

    base = 0
    sink = g.n - 1
    print(f"\nbroadcast from sensor {base} to sensor {sink}:")
    for k in (2, 4, 8, d):
        heard = oracle.reaches_within(base, sink, k)
        print(f"  hearable within {k:3d} hops? {heard}")

    # ------------------------------------------------------------------
    # 2. Delivery probability from the same oracle's distances.
    # ------------------------------------------------------------------
    p = args.hop_survival
    rng = np.random.default_rng(0)
    targets = rng.choice(g.n, size=8, replace=False)
    print(f"\ndelivery probability from sensor {base} (per-hop survival {p}):")
    for t in sorted(int(t) for t in targets):
        dist = oracle.distance(base, t)
        if dist == float("inf"):
            print(f"  sensor {t:5d}: unreachable")
        else:
            print(f"  sensor {t:5d}: {int(dist):2d} hops -> P(delivery) ≈ "
                  f"{p ** dist:.3f}")

    # ------------------------------------------------------------------
    # 3. Coverage curve: how many sensors hear the broadcast per budget.
    # ------------------------------------------------------------------
    print("\ncoverage within k hops (P >= 0.1 needs k <= "
          f"{int(np.log(0.1) / np.log(p))}):")
    sample = rng.choice(g.n, size=min(g.n, 400), replace=False)
    pairs = np.stack([np.full(len(sample), base), sample], axis=1)
    for k in (1, 2, 4, 8):
        heard = int(oracle.reaches_within_batch(pairs, k).sum())
        print(f"  k={k:2d}: {100 * heard / len(sample):5.1f}% of sampled sensors")


if __name__ == "__main__":
    main()
