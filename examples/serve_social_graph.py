#!/usr/bin/env python
"""Serving tier end to end: save_mmap → QueryServer / ThreadQueryServer.

The §1 story at serving scale: a social graph where a few celebrity
accounts dominate the query stream.  The index is built once, written as
a v6 index file, and served by a persistent multi-process pool — every
worker maps the same file (the OS shares the clean pages), query pairs
travel through shared-memory slots, and results come back in input
order.

Run:  python examples/serve_social_graph.py [--fast] [--workers N]
"""

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import native
from repro.core import (
    KReachIndex,
    QueryServer,
    ThreadQueryServer,
    load_mmap,
    save_mmap,
)
from repro.graph.generators import celebrity_crossfire_digraph
from repro.workloads import random_pairs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="smaller graph")
    parser.add_argument("--workers", type=int, default=2, help="pool size")
    args = parser.parse_args()

    brokers, celebs = (400, 40) if args.fast else (3000, 300)
    g = celebrity_crossfire_digraph(brokers, celebs, brokers // 2, seed=7)
    k = 6
    print(f"social graph: n={g.n}, m={g.m}; building {k}-reach …")
    index = KReachIndex(g, k).prepare_batch()
    pairs = random_pairs(g.n, 20_000 if args.fast else 200_000,
                         rng=np.random.default_rng(7))

    with tempfile.TemporaryDirectory() as tmp:
        # --------------------------------------------------------------
        # 1. One file, opened zero-copy: O(header), not O(index).
        # --------------------------------------------------------------
        path = Path(tmp) / "social.kr6"
        save_mmap(index, path)
        t0 = time.perf_counter()
        load_mmap(path)
        open_s = time.perf_counter() - t0
        print(f"  mmap open:      {open_s*1e3:8.3f} ms "
              f"({path.stat().st_size/1e6:.2f} MB flat)")

        # --------------------------------------------------------------
        # 2. Serve: a worker pool sharing the file's pages.
        # --------------------------------------------------------------
        t0 = time.perf_counter()
        inproc = index.query_batch(pairs)
        inproc_s = time.perf_counter() - t0
        with QueryServer(path, workers=args.workers) as server:
            server.query_batch(pairs[:1024])  # warm the pool
            t0 = time.perf_counter()
            served = server.query_batch(pairs)
            served_s = time.perf_counter() - t0
            assert np.array_equal(served, inproc)
            print(f"  in-process:     {inproc_s*1e3:8.2f} ms "
                  f"for {len(pairs)} pairs")
            print(f"  {args.workers}-worker pool:  {served_s*1e3:8.2f} ms "
                  f"(answers identical ✓)")

            # ----------------------------------------------------------
            # 3. Pipelined mode: the next shard transfers while workers
            #    compute the previous one.
            # ----------------------------------------------------------
            shards = np.array_split(pairs, 4 * args.workers)
            t0 = time.perf_counter()
            tickets = [server.submit(shard) for shard in shards]
            parts = [server.collect(ticket) for ticket in tickets]
            pipe_s = time.perf_counter() - t0
            assert np.array_equal(np.concatenate(parts), inproc)
            print(f"  pipelined:      {pipe_s*1e3:8.2f} ms "
                  f"({len(shards)} tickets, input order preserved ✓)")
            print(f"  server stats:   {server.stats()}")
        print("  pool shut down cleanly ✓")

        # --------------------------------------------------------------
        # 4. Thread pool: the zero-IPC sibling.  One address space, no
        #    pickling, no shared-memory slots — with compiled nogil
        #    kernels (pip install kreach-repro[native]) the workers run
        #    truly in parallel; on the numpy tier it is a low-overhead
        #    single-core server.
        # --------------------------------------------------------------
        print(f"  {native.describe_line()}")
        with ThreadQueryServer(path, workers=args.workers) as tserver:
            tserver.query_batch(pairs[:1024])  # warm the pool (JIT compile)
            t0 = time.perf_counter()
            threaded = tserver.query_batch(pairs)
            thread_s = time.perf_counter() - t0
            assert np.array_equal(threaded, inproc)
            print(f"  {args.workers}-thread pool:  {thread_s*1e3:8.2f} ms "
                  f"(answers identical ✓, "
                  f"{tserver.kernel_threads} kernel threads/worker)")
            print(f"  thread stats:   {tserver.stats()}")
        print("  thread pool shut down cleanly ✓")


if __name__ == "__main__":
    main()
