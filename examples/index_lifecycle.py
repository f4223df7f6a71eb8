#!/usr/bin/env python
"""Index lifecycle: bit-parallel build, the §4.3 row layout, disk round-trip.

Exercises the three operational features around the core index:

* §4.1.3 — the BFS sweeps from the cover vertices are independent, so
  "it is straightforward to parallelize this process": the default
  build runs 64 of them as one bit-parallel sweep, bit-identical to one
  BFS per cover vertex (`cover_triples_serial`);
* §4.3 — rows stored as a CSR with 2-bit weights, which the batch
  engine reads as bit views ("locate the corresponding bits … instead
  of searching the list of neighbors"): `storage_bytes`, `query_batch`;
* §4.1.3 — "the constructed index is then stored on disk":
  `save_mmap` / `load_mmap`.

Run:  python examples/index_lifecycle.py [--fast]
"""

import argparse
import tempfile
import time
from pathlib import Path

from repro.core import (
    IndexGraph,
    KReachIndex,
    cover_triples_serial,
    load_mmap,
    save_mmap,
)
from repro.datasets import load


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="smaller dataset")
    args = parser.parse_args()

    scale = 0.05 if args.fast else 0.3
    g = load("CiteSeer", scale=scale)
    k = 6
    print(f"CiteSeer stand-in: n={g.n}, m={g.m}; building {k}-reach …")

    # ------------------------------------------------------------------
    # 1. Per-source vs bit-parallel construction (§4.1.3).
    # ------------------------------------------------------------------
    t0 = time.perf_counter()
    index = KReachIndex(g, k)
    blocked_s = time.perf_counter() - t0
    cover = index.cover
    t0 = time.perf_counter()
    serial = IndexGraph.for_kreach(g.n, cover, *cover_triples_serial(g, cover, k), k)
    serial_s = time.perf_counter() - t0
    assert serial == index.index_graph
    print(f"  per-source build: {serial_s*1e3:7.1f} ms")
    print(f"  blocked build:    {blocked_s*1e3:7.1f} ms "
          "(64 sources per sweep, identical rows ✓)")

    # ------------------------------------------------------------------
    # 2. The §4.3 row layout, read as bits by the batch engine.
    # ------------------------------------------------------------------
    print(f"  §4.3 layout: {index.storage_bytes()/1e6:6.2f} MB "
          f"({index.cover_size} cover rows, {index.edge_count} edges, "
          f"{index.weight_bits()}-bit weights)")
    sample = [(s % g.n, (s * 13 + 5) % g.n) for s in range(500)]
    batch = index.query_batch(sample)
    assert batch.tolist() == [index.query(s, t) for s, t in sample]
    print("  bit-probe batch answers == per-pair loop on 500 sampled queries ✓")

    # ------------------------------------------------------------------
    # 3. Disk round-trip (§4.1.3).
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "citeseer-6reach.kr6"
        save_mmap(index, path)
        on_disk = path.stat().st_size
        t0 = time.perf_counter()
        loaded = load_mmap(path)
        load_s = time.perf_counter() - t0
        assert all(index.query(s, t) == loaded.query(s, t) for s, t in sample)
        print(f"  on disk: {on_disk/1e6:.2f} MB (v6 index file), opened in "
              f"{load_s*1e3:.2f} ms, answers identical ✓")


if __name__ == "__main__":
    main()
