#!/usr/bin/env python
"""Sharded serving end to end: partition → file → scatter-gather → async front door.

The ROADMAP's "millions of users" story: one index outgrows one box, so
the graph is hub-aware partitioned (celebrity vertices replicated into
every shard as the boundary set), persisted as one sharded v6 index
file, served by a :class:`ShardedQueryServer` (one pool per shard,
each opening its own shard's sections of that file), and fronted by
an asyncio batching layer that aggregates many small concurrent
client requests into few large pool batches — with an
LRU hot-pair cache, admission control, and live ``/healthz`` +
``/metrics``.

Every verdict below is checked bit-for-bit against the single global
index.  Exits non-zero on any disagreement (CI runs this with --fast).

Run:  python examples/sharded_social_graph.py [--fast] [--shards N] [--clients N]
"""

import argparse
import asyncio
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import (
    KReachIndex,
    ShardedQueryServer,
    partition_kreach,
    save_sharded,
    verify_file,
)
from repro.graph.digraph import DiGraph
from repro.serve import FrontDoor, http_request


def community_hub_graph(communities: int, size: int, hubs: int, seed: int) -> DiGraph:
    """Follower communities whose cross-community paths run through hubs.

    The shape sharding is made for: each community is a dense local DAG,
    the first half feed the celebrity hubs, the hubs feed the second
    half — so SCC condensation keeps communities apart, the partitioner
    spreads them across shards, and the hubs (which every
    cross-community path crosses) land in the replicated boundary set.
    """
    rng = np.random.default_rng(seed)
    n = communities * size + hubs
    edges = []
    for c in range(communities):
        lo = c * size
        dense = np.triu(rng.random((size, size)) < (8.0 / size), k=1)
        u, v = np.nonzero(dense)
        edges.append(np.stack([u + lo, v + lo], axis=1))
    fan = max(6, size // 10)
    feeders = (communities // 2) * size  # first half feed, second half follow
    for h in range(communities * size, n):
        sources = rng.choice(feeders, size=fan, replace=False)
        targets = feeders + rng.choice(n - hubs - feeders, size=fan, replace=False)
        edges.append(np.stack([sources, np.full(fan, h)], axis=1))
        edges.append(np.stack([np.full(fan, h), targets], axis=1))
    return DiGraph(n, np.concatenate(edges))


async def run_front_door(server, reference, n, clients: int, requests: int) -> bool:
    """Hammer the HTTP front door with concurrent clients; verify live."""
    door = FrontDoor(server, max_batch=8192, cache_pairs=16384)
    host, port = await door.start_http()
    print(f"  front door listening on http://{host}:{port}")

    async def client(cid: int) -> bool:
        rng = np.random.default_rng(1000 + cid)
        ok = True
        for _ in range(requests):
            pairs = rng.integers(0, n, size=(16, 2))
            status, body = await http_request(
                host, port, "POST", "/query", {"pairs": pairs.tolist()}
            )
            ok &= status == 200
            ok &= body["verdicts"] == reference.query_batch(pairs).tolist()
        return ok

    t0 = time.perf_counter()
    results = await asyncio.gather(*[client(i) for i in range(clients)])
    elapsed = time.perf_counter() - t0

    _, health = await http_request(host, port, "GET", "/healthz")
    _, metrics = await http_request(host, port, "GET", "/metrics")
    await door.close()  # graceful: drains the queue, stops the listener
    print(f"  {clients} concurrent clients x {requests} requests: "
          f"{elapsed*1e3:.1f} ms, all agree: {all(results)}")
    print(f"  /healthz: {health['status']}  qps={metrics['qps']}  "
          f"batches={metrics['batches']} "
          f"(mean {metrics['mean_batch_pairs']} pairs)  "
          f"cache hit rate={metrics['cache']['hit_rate']}  "
          f"p50={metrics['latency_ms']['p50']} ms "
          f"p99={metrics['latency_ms']['p99']} ms")
    return all(results) and health["status"] == "ok"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="smaller graph")
    parser.add_argument("--shards", type=int, default=2, help="shard count")
    parser.add_argument("--clients", type=int, default=64,
                        help="concurrent async clients")
    args = parser.parse_args()

    communities, size, hubs = (4, 120, 8) if args.fast else (8, 600, 24)
    g = community_hub_graph(communities, size, hubs, seed=7)
    k = 6
    print(f"social graph: n={g.n}, m={g.m}; "
          f"building + partitioning {k}-reach into {args.shards} shards …")
    reference = KReachIndex(g, k).prepare_batch()

    t0 = time.perf_counter()
    sharded = partition_kreach(g, k, args.shards)
    part_s = time.perf_counter() - t0
    summary = sharded.summary()
    print(f"  partition: {part_s*1e3:.1f} ms — boundary |B|="
          f"{summary['boundary_size']}, shard sizes {summary['shard_sizes']}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "social-shards.kr6"
        save_sharded(sharded, path)
        report = verify_file(path)
        sections = [row["name"] for row in report["sections"][1:]]  # no header
        print(f"  sharded file: {path.stat().st_size / 1e6:.2f} MB, "
              f"{len(sections)} sections ({', '.join(sections[:4])}, …)")
        print(f"  checksum audit: {'OK' if report['ok'] else 'CORRUPT'}")
        if not report["ok"]:
            return 1

        pairs = np.random.default_rng(7).integers(
            0, g.n, size=(20_000 if args.fast else 100_000, 2)
        )
        expected = reference.query_batch(pairs)
        with ShardedQueryServer(path, workers=1,
                                backend="process") as server:
            server.query_batch(pairs[:1024])  # warm the pools
            t0 = time.perf_counter()
            served = server.query_batch(pairs)
            served_s = time.perf_counter() - t0
            identical = bool(np.array_equal(served, expected))
            stats = server.stats()
            print(f"  scatter-gather: {served_s*1e3:.1f} ms for "
                  f"{len(pairs)} pairs across {stats['num_shards']} shards "
                  f"({stats['cross_pairs']} stitched cross-shard) — "
                  f"identical: {identical}")
            if not identical:
                return 1

            ok = asyncio.run(run_front_door(
                server, reference, g.n, args.clients, requests=3
            ))
            if not ok:
                return 1
        print("  pools shut down cleanly ✓")
    return 0


if __name__ == "__main__":
    sys.exit(main())
