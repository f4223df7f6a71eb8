#!/usr/bin/env python
"""Ingest at scale, end to end — no download required.

The full large-graph pipeline on a generated SNAP-style edge list:

1. write a gzip'd edge list with comments, duplicates, and self-loops
   (the shape of a real SNAP dump);
2. stream it through :func:`~repro.graph.ingest.ingest_edge_list` —
   chunked vectorized parsing, spill-to-disk external merge sort under
   a fixed memory budget, direct dual-CSR emission;
3. SCC-condense and build a :class:`~repro.core.CondensedKReach`
   (the paper's own setting is DAGs; cyclic inputs map through the
   condensation);
4. save the condensation-DAG index with
   :func:`~repro.core.serialize.save_mmap` and serve queries from the
   file through a :class:`~repro.core.QueryServer` pool.

Every stage prints wall time and its tracemalloc peak, so you can watch
the streamed path hold its budget while the eager reader's peak scales
with the file.

Run:  python examples/ingest_snap.py [--fast] [--budget-mb 16]
"""

import argparse
import gzip
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core import CondensedKReach, QueryServer, load_mmap, save_mmap
from repro.graph.ingest import IngestStats, ingest_edge_list
from repro.graph.io import read_edge_list
from repro.workloads import random_pairs


def stage(label: str, fn):
    """Run ``fn`` and report wall time + tracemalloc peak."""
    tracemalloc.start()
    t0 = time.perf_counter()
    out = fn()
    seconds = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"  {label:<28s} {seconds:7.2f}s   peak {peak / 2**20:8.1f} MB")
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="smaller graph")
    parser.add_argument(
        "--budget-mb", type=int, default=16, help="streamed sort budget (MB)"
    )
    args = parser.parse_args()
    edges = 100_000 if args.fast else 1_000_000
    n = edges // 8
    rng = np.random.default_rng(7)

    with tempfile.TemporaryDirectory(prefix="kreach-ingest-demo-") as tmp:
        path = Path(tmp) / "snap.txt.gz"
        print(f"generating {edges} edges over {n} vertices -> {path.name}")
        u = rng.integers(0, n, size=edges)
        v = rng.integers(0, n, size=edges)
        body = "\n".join(f"{a}\t{b}" for a, b in zip(u.tolist(), v.tolist()))
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(b"# Directed graph: generated SNAP-style dump\n")
            fh.write(b"# FromNodeId\tToNodeId\n")
            fh.write(body.encode() + b"\n")
        del u, v, body

        print(f"\npipeline (budget {args.budget_mb} MB):")
        stats = IngestStats()
        g = stage(
            "1. streamed ingest",
            lambda: ingest_edge_list(path, memory_mb=args.budget_mb, stats=stats),
        )
        print(
            f"       {stats.lines_parsed} lines -> {stats.edges} unique edges, "
            f"{stats.spill_runs} spill runs, "
            f"buffer peak {stats.max_buffered_bytes / 2**20:.2f} MB "
            f"(budget {stats.budget_bytes / 2**20:.0f} MB)"
        )
        eager = stage("   (eager read, compare)", lambda: read_edge_list(path))
        assert np.array_equal(g.out_indptr, eager.out_indptr)
        assert np.array_equal(g.out_indices, eager.out_indices)
        print("       streamed CSR bit-identical to eager ✓")
        del eager

        cond = stage(
            "2. condense + build n-reach",
            lambda: CondensedKReach(g, None).prepare_batch(),
        )
        print(
            f"       {g.n} vertices -> {cond.num_components} SCCs, "
            f"index {cond.storage_bytes() / 2**20:.2f} MB (§4.3 model)"
        )

        index_path = Path(tmp) / "cond.kr5"
        stage(
            "3. save_mmap",
            lambda: save_mmap(cond.index, index_path),
        )
        print(f"       file {index_path.stat().st_size / 2**20:.2f} MB")

        # Serve the condensation-DAG index from the file; map the random
        # vertex workload through component ids exactly like
        # CondensedKReach.query_batch does.
        pairs = random_pairs(g.n, 20_000, rng=rng)
        mapped = cond.cond.map_pairs(pairs)
        same = mapped[:, 0] == mapped[:, 1]
        expect = cond.query_batch(pairs)

        def serve():
            with QueryServer(index_path, workers=2) as server:
                return server.query_batch(mapped)

        served = stage("4. QueryServer (2 workers)", serve)
        assert np.array_equal(served | same, expect)
        print(f"       {len(pairs)} served verdicts match the in-process build ✓")

        loaded = load_mmap(index_path, verify=True)
        assert np.array_equal(loaded.query_batch(mapped) | same, expect)
        print("\nround-trip verified (checksums + verdicts) — done.")


if __name__ == "__main__":
    main()
