"""The workloads: paper batch queries, skewed front-door traffic, churn, road.

Each workload generates its inputs from the seed, sets the program up
from an edge-list file several times (each set-up timed stage by stage),
drives it for the measured window, and checks every verdict it returned
against :mod:`oracle` (the window's clock is stopped for the check).

* ``paper`` — the query model of the paper's experiments (§6): batches
  of uniformly random ``(s, t)`` pairs against a 6-reach index opened
  from its mmap file, on a graph of the size and density of Table 2's
  dense ArXiv citation DAG.  Each batch is drawn fresh.
* ``skewed`` — concurrent clients behind the asyncio front door, over a
  sharded scatter-gather server whose two shards each run one worker
  process, on a celebrity-crossfire graph.  Pair popularity is
  Zipf-skewed and a recurring flash crowd asks celebrity × celebrity
  pairs, so the answer cache, the micro-batcher, routing, the portal
  stitch and the shared-memory handoff all carry load.  Clients call
  ``FrontDoor.query`` in-process; the HTTP framing is left out because
  loopback TCP made the median latency swing by nearly a third between
  runs.
* ``churn`` — write bursts interleaved with read batches on the dynamic
  index, on a graph of the size and density of Table 2's sparse GO
  ontology DAG, so the overlay, deferred repair and compaction sit on
  the read path.
* ``road`` — the adversarial case: a high-diameter street lattice, where
  the vertex cover holds most vertices.  Half the pairs are uniform
  (almost never within reach), half are nearby (mostly within reach).

An operation is what one client waits for: a batch call (``paper``,
``road``), a front-door request (``skewed``), a write burst or a read
batch (``churn``).

The skew, client, churn and lattice parameters below are chosen for
the benchmark, not taken from a measured trace.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracle
from hostspeed import EVERY_S, HostSpeed
from repro.core import (
    DynamicKReachIndex,
    KReachIndex,
    ShardedQueryServer,
    load_mmap,
    partition_kreach,
    save_mmap,
    save_sharded,
)
from repro.graph.ingest import ingest_edge_list
from repro.serve import FrontDoor

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Hop budget of the static workloads: the paper's six degrees.
K = 6
PAPER_BATCH = 4096

#: Celebrity crossfire: brokers, celebrities, spokes each way, backbone.
SKEW_GRAPH = (3000, 32, 128, 4500)
SKEW_SHARDS = 2
SKEW_CLIENTS, SKEW_PAIRS = 32, 16  # concurrent clients, pairs per request
SKEW_POOL, SKEW_ZIPF = 200_000, 1.0  # distinct pairs, popularity exponent
SKEW_REQUESTS = 200_000
#: One request block in every eight is a celebrity × celebrity crowd.
SKEW_BLOCK, SKEW_CROWD_EVERY = 256, 8
SKEW_WARMUP_S = 1.0

#: Churn uses k=3, so one write burst settles in milliseconds and a run
#: holds hundreds of bursts.  The first read after a burst pays the
#: deferred repair; with twelve reads per burst those reads are under a
#: tenth of the operations, so p90 is a read's tail and the repair cost
#: shows in ``pairs_per_s`` (the repair time swings too much between
#: runs to carry a percentile).
CHURN_K = 3
CHURN_BURST, CHURN_READS, CHURN_BATCH = 8, 12, 4096
#: The first read after every eighth burst is checked against the oracle.
CHURN_CHECK_EVERY = 8

#: Street grid side, share of block sides that are roads, and the
#: row/column radius of a nearby pair.
ROAD_SIDE, ROAD_KEEP, ROAD_RADIUS = 100, 0.8, 4
#: Road batches are larger: its pairs are cheap, and a short call's tail
#: is mostly host jitter.
ROAD_BATCH = 16_384


@dataclass
class Outcome:
    """What one run measured."""

    setups: list[dict[str, float]] = field(default_factory=list)  # stage s
    setup_speed: HostSpeed = field(default_factory=HostSpeed)
    speed: HostSpeed = field(default_factory=HostSpeed)
    latencies: list[float] = field(default_factory=list)  # s per operation
    pairs: int = 0  # verdicts delivered inside the window
    window_s: float = 0.0
    failed: int = 0
    correct: bool = True
    layers: dict[str, float] = field(default_factory=dict)


class Window:
    """The measured window: wall time less the spans the benchmark pauses
    (host-speed samples, input draws, oracle checks)."""

    def __init__(self, seconds: float, speed: HostSpeed, delay: float = 0.0) -> None:
        self.seconds = seconds
        self.speed = speed
        self.start = time.perf_counter() + delay
        self.paused = 0.0

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.paused

    def open(self) -> bool:
        return self.elapsed < self.seconds

    @contextmanager
    def pause(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - t0

    def idle(self) -> None:
        """Sample the host speed if due; call only while the program is idle."""
        if self.speed.due():
            with self.pause():
                self.speed.sample()


def _timed(out: Outcome, stages: dict[str, float], name: str, fn):
    out.setup_speed.sample()
    start = time.perf_counter()
    result = fn()
    stages[name] = time.perf_counter() - start
    return result


def _case_counts(index, pairs: np.ndarray, layers: Counter) -> np.ndarray:
    codes = index.query_case_batch(pairs)
    for case, count in enumerate(np.bincount(codes, minlength=5)[1:], start=1):
        layers[f"case{case}_pairs"] += int(count)
    return codes


def _index_call(layers: Counter, pairs: np.ndarray, seconds: float) -> None:
    """Count one batch call into the index: pairs, distinct pairs, time."""
    layers["index_calls"] += 1
    layers["index_s"] += seconds
    layers["index_pairs"] += len(pairs)
    layers["distinct_pairs"] += len(np.unique(pairs[:, 0] * (1 << 32) + pairs[:, 1]))


def _batch_queries(n, edges, draw, seconds, trace, work) -> Outcome:
    """Set up a static 6-reach index from its mmap file and time one
    ``query_batch`` call per fresh batch from ``draw()``."""
    out = Outcome()
    edge_file = inputs.write_edge_list(work / "graph.txt", edges)
    path = work / "index.kr5"
    for _ in range(SETUP_REPEATS):
        stages: dict[str, float] = {}
        graph = _timed(out, stages, "ingest_s", lambda: ingest_edge_list(edge_file, n=n, tmp_dir=work))
        built = _timed(out, stages, "build_s", lambda: KReachIndex(graph, K))
        _timed(out, stages, "save_s", lambda: save_mmap(built, path))
        index = _timed(out, stages, "open_s", lambda: load_mmap(path).prepare_batch())
        out.setups.append(stages)
    truth = oracle.Closure(n, edges, K)
    layers: Counter = Counter()
    window = Window(seconds, out.speed)
    while window.open():
        window.idle()
        with window.pause():
            pairs = draw()
        t0 = time.perf_counter()
        try:
            got = index.query_batch(pairs)
        except Exception:
            out.failed += 1
            continue
        out.latencies.append(time.perf_counter() - t0)
        out.pairs += len(pairs)
        with window.pause():
            out.correct &= bool(np.array_equal(got, truth.reaches(pairs[:, 0], pairs[:, 1])))
            layers["oracle_pairs"] += len(pairs)
            if trace:
                _index_call(layers, pairs, out.latencies[-1])
                # Each case's subset once more on its own: the per-case cost.
                codes = _case_counts(index, pairs, layers)
                for case in range(1, 5):
                    sub = pairs[codes == case]
                    t0 = time.perf_counter()
                    index.query_batch(sub)
                    layers[f"case{case}_s"] += time.perf_counter() - t0
    out.window_s = window.elapsed
    out.layers = dict(layers)
    return out


def paper(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    rng = np.random.default_rng(seed)
    n, m, deg_max = inputs.ARXIV
    edges = inputs.small_world_dag(n, m, deg_max, rng)
    return _batch_queries(
        n, edges, lambda: rng.integers(0, n, size=(PAPER_BATCH, 2)),
        seconds, trace, work,
    )


def road(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    rng = np.random.default_rng(seed)
    n = ROAD_SIDE * ROAD_SIDE
    edges = inputs.road_lattice(ROAD_SIDE, ROAD_KEEP, rng)

    def draw() -> np.ndarray:
        s = rng.integers(0, n, size=ROAD_BATCH)
        t = rng.integers(0, n, size=ROAD_BATCH)
        near = slice(ROAD_BATCH // 2, None)
        t[near] = inputs.nearby(ROAD_SIDE, s[near], ROAD_RADIUS, rng)
        return np.stack([s, t], 1)

    return _batch_queries(n, edges, draw, seconds, trace, work)


class _GatedPool:
    """Pass-through to the server that can hold new batches back.

    :meth:`quiet` waits until no batch is in flight and keeps new ones
    waiting, so the host speed can be sampled with the workers idle.
    With ``trace`` it records each batch and its wall time.
    """

    def __init__(self, server, trace: bool) -> None:
        self._server = server
        self._trace = trace
        self._cond = threading.Condition()
        self._held = False
        self._busy = 0
        self.calls: list[float] = []
        self.batches: list[np.ndarray] = []

    def query_batch(self, pairs, **kwargs):
        with self._cond:
            while self._held:
                self._cond.wait()
            self._busy += 1
        try:
            start = time.perf_counter()
            verdicts = self._server.query_batch(pairs, **kwargs)
            if self._trace:
                self.calls.append(time.perf_counter() - start)
                self.batches.append(np.asarray(pairs))
            return verdicts
        finally:
            with self._cond:
                self._busy -= 1
                self._cond.notify_all()

    @contextmanager
    def quiet(self):
        with self._cond:
            self._held = True
            while self._busy:
                self._cond.wait()
        try:
            yield
        finally:
            with self._cond:
                self._held = False
                self._cond.notify_all()

    def stats(self) -> dict:
        return self._server.stats()


def _skew_traffic(rng) -> tuple[np.ndarray, np.ndarray]:
    """A pair pool and the requests, as pool ids, that the clients send.

    The pool holds ``SKEW_POOL`` uniform pairs followed by every
    celebrity × celebrity pair.  Ordinary requests draw pool ranks
    Zipf-skewed over a random permutation of the uniform pairs; every
    ``SKEW_CROWD_EVERY``-th block of ``SKEW_BLOCK`` requests draws
    celebrity pairs only.
    """
    brokers, celebrities = SKEW_GRAPH[:2]
    n = brokers + celebrities
    uniform = rng.integers(0, n, size=(SKEW_POOL, 2))
    celebs = np.arange(brokers, n)
    crowd = np.stack(np.meshgrid(celebs, celebs, indexing="ij"), -1).reshape(-1, 2)
    pool = np.concatenate([uniform, crowd])
    popular = rng.permutation(SKEW_POOL)
    ids = popular[
        inputs.zipf_draws(SKEW_POOL, SKEW_REQUESTS * SKEW_PAIRS, SKEW_ZIPF, rng)
    ].reshape(SKEW_REQUESTS, SKEW_PAIRS)
    is_crowd = (np.arange(SKEW_REQUESTS) // SKEW_BLOCK) % SKEW_CROWD_EVERY == 1
    ids[is_crowd] = SKEW_POOL + rng.integers(
        0, len(crowd), size=(int(is_crowd.sum()), SKEW_PAIRS)
    )
    return pool, ids


async def _drive_front_door(server, pool, requests, seconds, trace, out):
    gate = _GatedPool(server, trace)
    door = await FrontDoor(gate).start()
    got = np.full(requests.shape, -1, dtype=np.int8)
    window = Window(seconds, out.speed, delay=SKEW_WARMUP_S)
    cursor = 0
    last_done = window.start

    async def client() -> None:
        nonlocal cursor, last_done
        while window.open():
            r = cursor % len(requests)
            cursor += 1
            pairs = pool[requests[r]].tolist()
            samples = len(out.speed.samples)
            t0 = time.perf_counter()
            try:
                reply = await door.query(pairs)
            except Exception:
                out.failed += 1
                continue
            done = time.perf_counter()
            verdicts = np.asarray(reply, dtype=np.int8)
            if got[r, 0] >= 0 and not np.array_equal(got[r], verdicts):
                out.correct = False
            got[r] = verdicts
            if t0 >= window.start:
                out.pairs += SKEW_PAIRS
                last_done = max(last_done, done)
                # A request that waited out a host-speed sample is not timed.
                if len(out.speed.samples) == samples:
                    out.latencies.append(done - t0)

    async def sampler() -> dict:
        await asyncio.sleep(SKEW_WARMUP_S)
        before = door.metrics()
        while window.open():
            await asyncio.sleep(EVERY_S)
            with gate.quiet():
                window.idle()
        return before

    try:
        *_, before = await asyncio.gather(
            *[client() for _ in range(SKEW_CLIENTS)], sampler()
        )
        after = door.metrics()
    finally:
        await door.close()
    out.window_s = last_done - window.start - window.paused
    shards = server.stats()
    out.layers.update(
        cache_hits=after["cache"]["hits"] - before["cache"]["hits"],
        cache_misses=after["cache"]["misses"] - before["cache"]["misses"],
        pool_batches=after["batches"] - before["batches"],
        cross_pairs=shards["cross_pairs"],
        served_pairs=shards["pairs_served"],
    )
    if trace:
        layers: Counter = Counter()
        for batch, seconds in zip(gate.batches, gate.calls):
            _index_call(layers, batch, seconds)
        out.layers.update(layers)
    return got


def skewed(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    rng = np.random.default_rng(seed)
    brokers, celebrities, degree, backbone = SKEW_GRAPH
    n = brokers + celebrities
    edges = inputs.celebrity_crossfire(brokers, celebrities, degree, backbone, rng)
    edge_file = inputs.write_edge_list(work / "graph.txt", edges)
    pool, requests = _skew_traffic(rng)
    out = Outcome()
    server = None
    try:
        for i in range(SETUP_REPEATS):
            if server is not None:
                server.close()
                server = None
            stages: dict[str, float] = {}
            shard_dir = work / f"shards-{i}"
            graph = _timed(out, stages, "ingest_s", lambda: ingest_edge_list(edge_file, n=n, tmp_dir=work))
            sharded = _timed(out, stages, "build_s", lambda: partition_kreach(graph, K, SKEW_SHARDS))
            _timed(out, stages, "save_s", lambda: save_sharded(sharded, shard_dir))
            server = _timed(
                out, stages, "open_s",
                lambda: ShardedQueryServer(shard_dir, workers=1, backend="process"),
            )
            out.setups.append(stages)
        got = asyncio.run(
            _drive_front_door(server, pool, requests, seconds, trace, out)
        )
    finally:
        if server is not None:
            server.close()
    answered = got[:, 0] >= 0
    ids = np.unique(requests[answered])
    want = np.zeros(len(pool), dtype=np.int8)
    want[ids] = oracle.Closure(n, edges, K).reaches(pool[ids, 0], pool[ids, 1])
    out.correct &= bool(np.array_equal(got[answered], want[requests[answered]]))
    out.layers["oracle_pairs"] = len(ids)
    return out


def churn(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    rng = np.random.default_rng(seed)
    n, m, deg_max = inputs.GO
    edges = inputs.small_world_dag(n, m, deg_max, rng)
    edge_file = inputs.write_edge_list(work / "graph.txt", edges)
    out = Outcome()
    for _ in range(SETUP_REPEATS):
        stages: dict[str, float] = {}
        graph = _timed(out, stages, "ingest_s", lambda: ingest_edge_list(edge_file, n=n, tmp_dir=work))
        dyn = _timed(
            out, stages, "build_s", lambda: DynamicKReachIndex(graph, CHURN_K).prepare_batch()
        )
        out.setups.append(stages)
    live = inputs.LiveEdges(n, edges, rng)
    layers: Counter = Counter()
    cover_before = dyn.cover_size
    bursts = 0
    window = Window(seconds, out.speed)
    while window.open():
        window.idle()
        with window.pause():
            burst = live.burst(CHURN_BURST)
        bursts += 1
        t0 = time.perf_counter()
        try:
            for insert, u, v in burst:
                (dyn.insert_edge if insert else dyn.delete_edge)(u, v)
        except Exception:
            out.failed += 1
            continue
        out.latencies.append(time.perf_counter() - t0)
        if trace:
            with window.pause():
                layers["write_s"] += out.latencies[-1]
                layers["overlay_rows_peak"] = max(layers["overlay_rows_peak"], dyn.overlay_rows)
                layers["repair_rows"] += dyn.pending_repairs
                t0 = time.perf_counter()
                dyn.prepare_batch()
                layers["settle_s"] += time.perf_counter() - t0
        for read in range(CHURN_READS):
            window.idle()
            with window.pause():
                pairs = rng.integers(0, n, size=(CHURN_BATCH, 2))
            t0 = time.perf_counter()
            try:
                got = dyn.query_batch(pairs)
            except Exception:
                out.failed += 1
                continue
            out.latencies.append(time.perf_counter() - t0)
            out.pairs += CHURN_BATCH
            with window.pause():
                if trace:
                    _case_counts(dyn, pairs, layers)
                    _index_call(layers, pairs, out.latencies[-1])
                if read == 0 and bursts % CHURN_CHECK_EVERY == 1:
                    want = oracle.reaches_within(
                        n, live.array(), pairs[:, 0], pairs[:, 1], CHURN_K
                    )
                    out.correct &= bool(np.array_equal(got, want))
                    layers["oracle_pairs"] += CHURN_BATCH
    out.window_s = window.elapsed
    layers["bursts"] = bursts
    layers["compactions"] = dyn.compactions
    layers["cover_growth"] = dyn.cover_size - cover_before
    out.layers = dict(layers)
    return out


WORKLOADS = {"paper": paper, "skewed": skewed, "churn": churn, "road": road}
