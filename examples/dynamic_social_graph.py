#!/usr/bin/env python
"""Evolving social graph: the snapshot + delta-overlay dynamic engine.

The paper indexes a static graph; real social networks gain (and lose)
edges constantly.  This example streams follow/unfollow events into a
:class:`repro.DynamicKReachIndex` in *bursts* and, while the overlay is
still carrying the churn of each burst, serves batches of reachability
queries through the vectorized four-case engine:

* batch answers during a write burst are cross-checked against the
  per-pair scalar loop (equal, always);
* the overlay's lifecycle (dirty rows, pending log, compactions) is
  printed at each checkpoint;
* the cumulative update+query cost is compared against rebuilding the
  static index from scratch at every read point;
* the final state round-trips through disk as its base snapshot (a v6
  index file) plus a crash-safe journal of the pending delta log.

Run:  python examples/dynamic_social_graph.py [--fast]
"""

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import (
    DynamicKReachIndex,
    KReachIndex,
    OpLog,
    recover_dynamic,
    save_mmap,
)
from repro.graph.generators import power_law_digraph
from repro.workloads import churn_trace, random_pairs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="smaller graph")
    args = parser.parse_args()

    n = 800 if args.fast else 5_000
    events = 24 if args.fast else 60
    batch = 500 if args.fast else 2_000
    k = 4
    g = power_law_digraph(n, 3 * n, exponent=2.2, seed=11)
    print(f"initial network: n={g.n}, m={g.m}; k = {k}")

    dyn = DynamicKReachIndex(g, k).prepare_batch()
    print(
        f"dynamic index: cover {dyn.cover_size}, {dyn.edge_count} index edges, "
        f"compaction threshold {dyn.compaction_threshold} dirty rows"
    )

    # A read-heavy trace with bursty ingestion: each write event is a
    # burst of 6 follow/unfollow edges, every read a batch of queries.
    trace = churn_trace(
        g,
        events,
        read_fraction=2 / 3,
        batch_size=batch,
        write_burst=6,
        rng=np.random.default_rng(5),
    )

    overlay_s = 0.0
    rebuild_s = 0.0
    writes = queries = 0
    in_burst = False

    for op in trace:
        if op[0] != "query":
            t0 = time.perf_counter()
            if op[0] == "insert":
                dyn.insert_edge(op[1], op[2])
            else:
                dyn.delete_edge(op[1], op[2])
            overlay_s += time.perf_counter() - t0
            writes += 1
            in_burst = True
            continue

        # Serve a batch mid-churn through the overlay engine.
        pairs = op[1]
        t0 = time.perf_counter()
        answers = dyn.query_batch(pairs)
        overlay_s += time.perf_counter() - t0
        queries += len(pairs)

        # What a no-maintenance deployment pays for the same read:
        # rebuild the static index from scratch, then answer.
        t0 = time.perf_counter()
        fresh = KReachIndex(dyn.to_digraph(), k).prepare_batch()
        fresh_answers = fresh.query_batch(pairs)
        rebuild_s += time.perf_counter() - t0
        assert np.array_equal(answers, fresh_answers), "overlay != fresh build"

        if in_burst:  # first read after a write burst: report + verify
            in_burst = False
            scalar = [dyn.query(s, t) for s, t in pairs.tolist()]
            assert answers.tolist() == scalar, "batch and scalar disagree"
            print(
                f"  after {writes:3d} writes: {int(answers.sum()):5d}/{len(pairs)} "
                f"positive, overlay {dyn.overlay_rows:4d} rows / "
                f"{dyn.pending_ops:3d} pending ops, "
                f"{dyn.compactions} compactions"
            )

    print(
        f"\noverlay engine total (updates + {queries} queries): "
        f"{1e3 * overlay_s:8.1f} ms"
    )
    print(
        f"rebuild-per-batch baseline:                           "
        f"{1e3 * rebuild_s:8.1f} ms "
        f"-> {rebuild_s / max(overlay_s, 1e-9):.1f}x the overlay cost"
    )

    # On disk: the base snapshot as an index file + the delta log as a
    # journal; recover_dynamic replays the journal over the base.
    with tempfile.TemporaryDirectory() as tmp:
        base, log = Path(tmp) / "social.kr6", Path(tmp) / "social.krlog"
        save_mmap(dyn.base, base)
        with OpLog(log, fsync=False) as journal:
            journal.extend(dyn.pending_log())
        loaded = recover_dynamic(base, log)
        probe = random_pairs(n, 1_000, rng=np.random.default_rng(99))
        assert np.array_equal(loaded.query_batch(probe), dyn.query_batch(probe))
        on_disk = base.stat().st_size + log.stat().st_size
        print(
            f"\nbase + journal round-trip: {on_disk / 1024:.0f} KiB on disk, "
            f"{loaded.pending_ops} logged ops replayed, answers identical"
        )


if __name__ == "__main__":
    main()
