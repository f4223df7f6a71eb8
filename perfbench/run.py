"""End-to-end benchmark of the k-reach system.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``paper`` (uniform batch queries on
a 6-reach index of a Table-2-sized citation DAG), ``skewed`` (Zipf and
flash-crowd front-door traffic over sharded worker processes),
``churn`` (write bursts and reads on the dynamic index) and ``road``
(uniform and nearby pairs on a high-diameter street lattice).  Each run
imports the program from the checkout's ``src`` tree, sets it up
several times, measures for ``--seconds``, and checks its verdicts
against an independent BFS oracle.

End-to-end metrics: ``op_p50_ms`` and ``op_p90_ms`` (latency of one
client operation), ``pairs_per_s`` (verdicts delivered per second) and
``setup_s`` (median of the set-ups), all scaled to a nominal host speed
(see ``hostspeed.py``; the raw figures swing by a quarter on a shared
host).  The window figures are scaled by the host speed sampled during
the window, ``setup_s`` by the one sampled during the set-ups.  The
line before the result holds the unscaled figures and both factors.
The tail is p90 rather than p99 because p99 swung even after scaling.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Per-layer numbers come from spans this benchmark
records around its calls into the program; they cost time, so the
end-to-end figures come from untraced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(outcome, scale: float = 1.0, setup_scale: float = 1.0) -> dict[str, float]:
    latencies = np.asarray(outcome.latencies) * (1e3 * scale)
    return {
        "op_p50_ms": float(np.percentile(latencies, 50)),
        "op_p90_ms": float(np.percentile(latencies, 90)),
        "pairs_per_s": outcome.pairs / (outcome.window_s * scale),
        "setup_s": setup_scale * statistics.median(sum(s.values()) for s in outcome.setups),
    }


def per_layer(outcome) -> dict[str, float]:
    raw = outcome.layers
    get = lambda name: float(raw.get(name, 0))  # noqa: E731
    out = {
        stage: statistics.median(s.get(stage, 0.0) for s in outcome.setups)
        for stage in ("ingest_s", "build_s", "save_s", "open_s")
    }
    calls, pairs = get("index_calls"), get("index_pairs")
    out["index_call_ms"] = 1e3 * _share(get("index_s"), calls)
    out["index_busy_share"] = _share(get("index_s"), outcome.window_s)
    out["index_batch_pairs"] = _share(pairs, calls)
    out["distinct_share"] = _share(get("distinct_pairs"), pairs)
    cased = sum(get(f"case{c}_pairs") for c in range(1, 5))
    for c in range(1, 5):
        out[f"case{c}_share"] = _share(get(f"case{c}_pairs"), cased)
    for c in range(1, 5):
        out[f"case{c}_us"] = 1e6 * _share(get(f"case{c}_s"), get(f"case{c}_pairs"))
    out["cache_hits"] = get("cache_hits")
    out["cache_hit_share"] = _share(
        get("cache_hits"), get("cache_hits") + get("cache_misses")
    )
    out["pool_batches"] = get("pool_batches")
    out["cross_share"] = _share(get("cross_pairs"), get("served_pairs"))
    bursts = get("bursts")
    out["write_ms"] = 1e3 * _share(get("write_s"), bursts)
    out["settle_ms"] = 1e3 * _share(get("settle_s"), bursts)
    for name in ("repair_rows", "overlay_rows_peak", "compactions", "cover_growth",
                 "oracle_pairs"):
        out[name] = get(name)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), Path(work)
        )
    factors = {
        "window": outcome.speed.factor(),
        "setup": outcome.setup_speed.factor(),
    }
    print(json.dumps({"raw": end_to_end(outcome), "host_factor": factors}))
    if args.trace:
        declared, values = spec["per_layer"], per_layer(outcome)
    else:
        declared = spec["end_to_end"]
        values = end_to_end(outcome, factors["window"], factors["setup"])
    result = {
        "correct": outcome.correct,
        "attempted": len(outcome.latencies) + outcome.failed,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
