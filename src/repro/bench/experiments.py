"""The paper's experiments (Tables 2–9) plus our ablations.

Every function takes the dataset list, a ``scale`` (1.0 = paper-sized
graphs), a query count, and a seed, and returns one or more
:class:`~repro.bench.report.Table` objects with measured *and* published
values side by side where the paper reports numbers.

The paper's absolute timings (C++ on a 2008 Xeon) are not comparable to
pure Python; what the harness is built to check is the paper's *shape*
claims: who builds faster, who answers faster and by roughly what factor,
where the "-" failures occur, how flat k-reach's query time is in k, and
how the (h,k) tradeoff moves sizes and latencies.

The experiments share three pieces: :func:`_per_dataset` makes the
one-row-per-dataset tables, :class:`_Totals` writes every TOTAL row and
ratio, and :func:`_served` is the one served-throughput loop under
``serve``, ``shard`` and ``native``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from repro.baselines import (
    BfsIndex,
    BidirectionalBfsIndex,
    ChainCoverIndex,
    GrailIndex,
    PathTreeIndex,
    PrunedLandmarkIndex,
    PwahIndex,
)
from repro.bench.report import Table, fmt_mb, fmt_pct, fmt_ratio, fmt_us
from repro.bench.runner import (
    BuildOutcome,
    best_of,
    build_index,
    time_batch_queries,
    time_queries,
    timed,
)
from repro.core import (
    CoverDistanceOracle,
    DynamicKReachIndex,
    HKReachIndex,
    IndexGraph,
    KReachIndex,
    QueryServer,
    ShardedQueryServer,
    ThreadQueryServer,
    cover_triples_serial,
    greedy_vertex_cover,
    hhop_vertex_cover,
    load_mmap,
    partition_kreach,
    save_mmap,
    save_sharded,
    vertex_cover_2approx,
)
from repro.core.kreach import level_specs
from repro.datasets import DATASET_NAMES, paper_tables, spec
from repro.graph.digraph import DiGraph
from repro.graph.generators import celebrity_crossfire_digraph
from repro.graph.stats import shortest_path_stats, summarize
from repro.graph.traversal import bulk_reaches_within
from repro.workloads import (
    case_distribution,
    celebrity_pairs,
    churn_trace,
    random_pairs,
)

__all__ = [
    "SuiteConfig",
    "run_build",
    "run_table2",
    "run_table3_4_5",
    "run_table6",
    "run_table7",
    "run_table8",
    "run_table9",
    "run_throughput",
    "run_dynamic",
    "run_serve",
    "run_shard",
    "run_native",
    "run_ingest",
    "run_size",
    "run_ablation_covers",
    "run_ablation_general_k",
    "run_ablation_case_cost",
    "run_ablation_online_search",
    "ALL_EXPERIMENTS",
]

#: Label budget for the chain-cover (3-hop) build, mirroring the paper's
#: observation that 3-hop fails on most of these datasets.  Expressed per
#: DAG vertex so it scales with the graph.
_CHAIN_COVER_BUDGET_PER_VERTEX = 64


@dataclass
class SuiteConfig:
    """Common experiment parameters."""

    datasets: tuple[str, ...] = DATASET_NAMES
    scale: float = 0.2
    queries: int = 20_000
    bfs_queries: int = 1_000  # µ-BFS is orders slower; subsample and scale
    seed: int = 7
    serve_workers: tuple[int, ...] = (1, 2, 4, 8)  # pool sizes for 'serve'
    repeat: int = 1  # timings report the median of this many runs
    ingest_mb: int | None = None  # 'ingest': sort budget; None = KREACH_INGEST_MB
    ingest_edges: int = 200_000  # 'ingest': synthetic edge-file size
    _cache: dict = field(default_factory=dict, repr=False)

    def _cached(self, key: tuple, make: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def graph(self, name: str):
        """Build (and cache) a dataset stand-in."""
        return self._cached(("graph", name), lambda: spec(name).build(scale=self.scale))

    def pairs(self, name: str) -> np.ndarray:
        """The random query workload for a dataset (cached)."""
        rng = np.random.default_rng(self.seed)
        return self._cached(
            ("pairs", name),
            lambda: random_pairs(self.graph(name).n, self.queries, rng=rng),
        )

    def mu(self, name: str) -> int:
        """Measured median shortest-path length of the stand-in (cached)."""

        def measure() -> int:
            g = self.graph(name)
            rng = np.random.default_rng(self.seed)
            _, mu = shortest_path_stats(g, sample_size=min(g.n, 400), rng=rng)
            return max(2, mu)

        return self._cached(("mu", name), measure)

    def reachability_builds(self, name: str) -> dict[str, BuildOutcome]:
        """Build the Table 3/4/5 index field for a dataset (cached)."""

        def build() -> dict[str, BuildOutcome]:
            g = self.graph(name)
            chain_budget = _CHAIN_COVER_BUDGET_PER_VERTEX * g.n
            factories = {
                "n-reach": lambda: KReachIndex(
                    g, None, cover=vertex_cover_2approx(g)
                ),
                "PTree": lambda: PathTreeIndex(g),
                "3-hop": lambda: ChainCoverIndex(g, max_label_entries=chain_budget),
                "GRAIL": lambda: GrailIndex(g, num_labels=3, seed=self.seed),
                "PWAH": lambda: PwahIndex(g),
            }
            return {
                label: build_index(label, factory)
                for label, factory in factories.items()
            }

        return self._cached(("builds", name), build)

    def reachability_query_us(self, name: str) -> dict[str, float]:
        """Table 5's µs/query per built index over :meth:`pairs` (cached,
        so Table 6 ranks the same timings)."""

        def measure() -> dict[str, float]:
            timings = {}
            for label, outcome in self.reachability_builds(name).items():
                if not outcome.ok:
                    continue
                if label != "n-reach":
                    query_batch = outcome.index.reaches_batch
                else:
                    query_batch = outcome.index.prepare_batch().query_batch
                timings[label] = time_batch_queries(
                    query_batch, self.pairs(name)
                ).us_per_query
            return timings

        return self._cached(("query_us", name), measure)


_REACH_INDEXES = ("n-reach", "PTree", "3-hop", "GRAIL", "PWAH")


def _per_dataset(
    config: SuiteConfig,
    title: str,
    columns: list[str],
    row: Callable[[str], dict | None],
    caption: str | None = None,
) -> Table:
    """A table with one row per dataset: ``{"dataset": name, **row(name)}``.

    ``row`` returning ``None`` leaves the dataset out of the table.
    """
    table = Table(title, ["dataset", *columns], caption=caption)
    for name in config.datasets:
        cells = row(name)
        if cells is not None:
            table.add_row({"dataset": name, **cells})
    return table


class _Totals:
    """A table's TOTAL row, summed as its rows are added.

    Each row brings its raw quantity per summed column: seconds, shown
    in milliseconds, unless ``units`` names a formatter or ``per`` names
    the column to divide by (bytes per edge); a cell the row sets itself
    is kept.  ``speedup=(a, b)`` writes ``fmt_ratio(a / b)`` to every row
    and the TOTAL, whose ``agree`` is yes only if every row agreed.
    """

    def __init__(self, *, speedup=None, units=None, per=None) -> None:
        self.speedup = speedup
        self.units = units or {}
        self.per = per
        self.sums: dict[str, float] = {}
        self.agree = True

    def _fill(self, row: dict, sums: dict) -> dict:
        for col, value in sums.items():
            if col == self.per:
                cell = value
            elif self.per:
                cell = value / max(1, sums[self.per])
            else:
                cell = self.units.get(col, lambda s: 1e3 * s)(value)
            row.setdefault(col, cell)
        if self.speedup:
            a, b = self.speedup
            row["speedup"] = fmt_ratio(sums[a] / max(sums[b], 1e-9))
        return row

    def add(self, row: dict, sums: dict, agree: bool | None = None) -> dict:
        """Count ``row`` into the totals; returns it with its cells filled."""
        for col, value in sums.items():
            self.sums[col] = self.sums.get(col, 0) + value
        if agree is not None:
            self.agree &= agree
            row["agree"] = "yes" if agree else "NO"
        return self._fill(row, sums)

    def close(self, table: Table) -> Table:
        """Append the TOTAL row to ``table`` and return the table."""
        row: dict[str, object] = {table.columns[0]: "TOTAL"}
        if "agree" in table.columns:
            row["agree"] = "yes" if self.agree else "NO"
        table.add_row(self._fill(row, self.sums))
        return table


#: Table 2's columns: (column, the GraphSummary / DatasetSpec field, whether
#: the published value scales with the stand-in).
_TABLE2_COLUMNS = (
    ("|V|", "n", True), ("|E|", "m", True), ("|V_DAG|", "n_dag", True),
    ("|E_DAG|", "m_dag", True), ("Degmax", "deg_max", True),
    ("d", "diameter", False), ("mu", "mu", False),
)


def run_table2(config: SuiteConfig) -> Table:
    """Table 2: dataset statistics, generated vs published."""

    def row(name: str) -> dict:
        g = config.graph(name)
        s = spec(name)
        rng = np.random.default_rng(config.seed)
        summ = summarize(g, sample_size=min(g.n, 600), rng=rng)
        return {
            col: f"{getattr(summ, field)} / "
            f"{getattr(s, field) * (config.scale if scaled else 1):.0f}"
            for col, field, scaled in _TABLE2_COLUMNS
        }

    return _per_dataset(
        config,
        f"Table 2 — dataset statistics (scale={config.scale}; "
        "'/' separates measured vs paper-at-scale)",
        [col for col, _, _ in _TABLE2_COLUMNS],
        row,
        caption=(
            "Published values are scaled by the same factor as the stand-in "
            "for |V|/|E|/Degmax (d and µ are scale-invariant targets)."
        ),
    )


def run_table3_4_5(config: SuiteConfig) -> tuple[Table, Table, Table]:
    """Tables 3 (construction ms), 4 (size MB), 5 (query µs/query)."""

    def built(name: str, cell: Callable[[BuildOutcome], object]) -> dict:
        builds = config.reachability_builds(name).items()
        return {label: cell(out) if out.ok else None for label, out in builds}

    def query_us(name: str) -> dict:
        timings = config.reachability_query_us(name)
        return {label: fmt_us(us) for label, us in timings.items()}

    specs = (
        (
            f"Table 3 — index construction time, ms (scale={config.scale})",
            lambda name: built(name, lambda out: 1e3 * (out.seconds or 0.0)),
            "'-' = construction exceeded its budget (paper: time/memory).",
        ),
        (
            f"Table 4 — index size, MB (scale={config.scale})",
            lambda name: built(name, lambda out: fmt_mb(out.storage_bytes)),
            None,
        ),
        (
            f"Table 5 — reachability query cost, µs/query over "
            f"{config.queries} random queries (scale={config.scale}; "
            "batch query engine)",
            query_us,
            "All columns run the bulk batch API: n-reach through its "
            "vectorized engine, comparators through the generic "
            "scalar-loop fallback — so cells measure each index's cost "
            "to serve the whole workload, not loop-for-loop parity with "
            "the paper's per-query methodology.",
        ),
    )
    t3, t4, t5 = (
        _per_dataset(config, title, list(_REACH_INDEXES), row, caption)
        for title, row, caption in specs
    )
    return t3, t4, t5


def run_table6(config: SuiteConfig) -> Table:
    """Table 6: mean performance rank per index (1 = best) over the
    builds and timings of Tables 3–5; failed builds rank last."""
    ranks: dict[str, dict[str, list[int]]] = {
        metric: {label: [] for label in _REACH_INDEXES}
        for metric in ("indexing_time", "index_size", "query_time")
    }
    for name in config.datasets:
        builds = config.reachability_builds(name)
        ok = [label for label in _REACH_INDEXES if builds[label].ok]
        metric_values: dict[str, dict[str, float]] = {
            "indexing_time": {label: builds[label].seconds or 0.0 for label in ok},
            "index_size": {
                label: float(builds[label].storage_bytes or 0) for label in ok
            },
            "query_time": config.reachability_query_us(name),
        }
        for metric, values in metric_values.items():
            ordered = sorted(values, key=values.get)  # type: ignore[arg-type]
            for label in _REACH_INDEXES:
                ranks[metric][label].append(
                    ordered.index(label) + 1 if label in values else len(_REACH_INDEXES)
                )

    table = Table(
        f"Table 6 — mean performance rank, 1 = best (scale={config.scale}; "
        "'ours/paper')",
        ["metric", *_REACH_INDEXES],
        caption="Paper ranks from Table 6 of the paper.",
    )
    for metric, by_label in ranks.items():
        row: dict[str, object] = {"metric": metric}
        for label, positions in by_label.items():
            paper = paper_tables.RANKINGS[metric][label]
            ours = f"{np.mean(positions):.1f}" if positions else "-"
            row[label] = f"{ours} / {paper}"
        table.add_row(row)
    return table


def run_table7(config: SuiteConfig) -> Table:
    """Table 7: k-reach for k = 2, 4, 6, µ, n vs µ-BFS and µ-dist."""

    def row(name: str) -> dict:
        g = config.graph(name)
        pairs = config.pairs(name)
        sub_pairs = pairs[: config.bfs_queries]
        mu = config.mu(name)
        cells: dict[str, object] = {}
        cover = vertex_cover_2approx(g)
        for k, label in ((2, "2-reach"), (4, "4-reach"), (6, "6-reach"),
                         (mu, "mu-reach"), (None, "n-reach")):
            idx = KReachIndex(g, k, cover=cover).prepare_batch()
            cells[label] = fmt_us(
                time_batch_queries(idx.query_batch, pairs).us_per_query
            )
        baselines = {"mu-BFS": BfsIndex(g), "mu-dist": PrunedLandmarkIndex(g)}
        for label, index in baselines.items():
            batch = partial(index.reaches_within_batch, k=mu)
            cells[label] = fmt_us(time_batch_queries(batch, sub_pairs).us_per_query)
        return cells

    return _per_dataset(
        config,
        f"Table 7 — k-hop query cost, µs/query (scale={config.scale}, "
        f"{config.queries} queries; µ-BFS/µ-dist over {config.bfs_queries})",
        ["2-reach", "4-reach", "6-reach", "mu-reach", "n-reach", "mu-BFS",
         "mu-dist"],
        row,
        caption="µ = measured median shortest-path length of the stand-in.",
    )


def run_table8(config: SuiteConfig) -> Table:
    """Table 8: % of random queries falling into each Algorithm-2 case."""

    def row(name: str) -> dict:
        g = config.graph(name)
        # The split depends only on the cover: the paper's §4.3 one.
        idx = KReachIndex(g, 2, cover=vertex_cover_2approx(g))
        dist = case_distribution(idx, config.pairs(name))
        paper = paper_tables.CASE_PERCENTAGES.get(name)
        cells = {}
        for case in (1, 2, 3, 4):
            published = f"{paper[case - 1]:.2f}" if paper else "-"
            cells[f"Case {case}"] = f"{fmt_pct(dist[case])} / {published}"
        return cells

    return _per_dataset(
        config,
        f"Table 8 — query case mix, % (scale={config.scale}; 'ours/paper')",
        ["Case 1", "Case 2", "Case 3", "Case 4"],
        row,
    )


#: Datasets the paper reports in Table 9 (those with >20% 2-hop-VC savings).
_TABLE9_DATASETS = ("AgroCyc", "aMaze", "Anthra", "Ecoo", "Kegg", "Mtbrv",
                    "Nasa", "Vchocyc")


def run_table9(config: SuiteConfig) -> Table:
    """Table 9: vertex cover vs 2-hop cover sizes; µ-reach vs (2,µ)-reach."""

    def row(name: str) -> dict | None:
        if name not in _TABLE9_DATASETS:
            return None
        g = config.graph(name)
        pairs = config.pairs(name)
        mu = config.mu(name)
        vc = vertex_cover_2approx(g)
        pruned = hhop_vertex_cover(g, 1)
        vc2 = hhop_vertex_cover(g, 2)
        kreach = KReachIndex(g, mu, cover=vc)
        hkreach = HKReachIndex(g, 2, mu, cover=vc2, strict=False)
        paper = paper_tables.COVER_SIZES.get(name)
        sample = pairs[: config.bfs_queries]
        truth = bulk_reaches_within(g, sample[:, 0], sample[:, 1], mu).tolist()
        agree = all(
            index.query_batch(sample).tolist() == truth
            and [index.query(s, t) for s, t in sample.tolist()] == truth
            for index in (kreach, hkreach)
        )
        return {
            "|VC|": len(vc),
            "|VC| pruned": len(pruned),
            "|2hop-VC|": len(vc2),
            "shrink %": fmt_pct(1 - len(vc2) / max(1, len(vc))),
            "shrink vs pruned %": fmt_pct(1 - len(vc2) / max(1, len(pruned))),
            "mu-reach µs": fmt_us(time_queries(kreach.query, pairs).us_per_query),
            "(2,mu)-reach µs": fmt_us(time_queries(hkreach.query, pairs).us_per_query),
            "paper |VC|": paper[0] if paper else None,
            "paper |2hop-VC|": paper[1] if paper else None,
            "agree": "yes" if agree else "NO",
        }

    return _per_dataset(
        config,
        f"Table 9 — cover sizes and query cost (scale={config.scale})",
        ["|VC|", "|VC| pruned", "|2hop-VC|", "shrink %", "shrink vs pruned %",
         "mu-reach µs", "(2,mu)-reach µs", "paper |VC|", "paper |2hop-VC|",
         "agree"],
        row,
        caption=(
            "shrink % = 1 - |2hop-VC| / |VC|, the paper's column (it keeps "
            "rows above 20%), compares the pruned 2-hop cover with the "
            "unpruned §4.1.1 cover.  |VC| pruned = the same 1-hop cover "
            "after the redundancy pass the 2-hop cover gets "
            "(hhop_vertex_cover(g, 1)); shrink vs pruned % = 1 - "
            "|2hop-VC| / |VC| pruned is the like-for-like comparison.  "
            "agree = the µ-reach and (2,µ)-reach batch and scalar verdicts "
            "equal BFS on the first bfs_queries pairs."
        ),
    )


def run_build(config: SuiteConfig) -> Table:
    """Construction throughput: blocked MS-BFS vs the per-source build.

    Not a paper table — this serves the ROADMAP's build-time goal.  Every
    cell builds the same ``(graph, k, cover)`` index two ways: one BFS per
    cover vertex (:func:`~repro.core.index_graph.cover_triples_serial`
    into an ``IndexGraph``) and ``KReachIndex``'s blocked multi-source
    BFS, which inside the memory gate builds the level planes and no
    CSR.  "agree" asserts that the blocked index's derived CSR and its
    level planes equal the serial CSR and its views word for word;
    "speedup" is serial/blocked, the number the CI smoke job gates on.
    """
    table = Table(
        f"Build — construction throughput (scale={config.scale})",
        ["dataset", "k", "|S|", "|E_I|", "serial ms", "blocked ms",
         "speedup", "agree"],
        caption=(
            "serial = per-source BFS (pre-refactor Algorithm 1); blocked = "
            "64-source bit-parallel MS-BFS; speedup = serial/blocked. "
            "agree = both builders produce identical IndexGraphs: the "
            "same CSR and the same level planes."
        ),
    )
    totals = _Totals(speedup=("serial ms", "blocked ms"))
    for name in config.datasets:
        g = config.graph(name)
        cover = vertex_cover_2approx(g)
        for k in (2, 6, None):
            serial, serial_s = timed(
                lambda: IndexGraph.for_kreach(
                    g.n, cover, *cover_triples_serial(g, cover, k), k
                )
            )
            blocked, blocked_s = timed(lambda: KReachIndex(g, k, cover=cover))
            specs = level_specs(k)
            agree = serial == blocked.index_graph and all(
                np.array_equal(a, b)
                for a, b in zip(
                    serial.link_matrices(specs),
                    blocked.index_graph.link_matrices(specs),
                )
            )
            row = {
                "dataset": name,
                "k": "n" if k is None else k,
                "|S|": len(cover),
                "|E_I|": blocked.edge_count,
            }
            sums = {"serial ms": serial_s, "blocked ms": blocked_s}
            table.add_row(totals.add(row, sums, agree))
    return totals.close(table)


def run_throughput(config: SuiteConfig) -> Table:
    """Bulk-query throughput: scalar loop vs over-gate path vs gated engine.

    Not a paper table — this serves the ROADMAP's serving goal.  Every
    row pushes one workload three ways that must agree bit for bit: the
    per-pair scalar ``query`` loop; ``query_batch`` on a twin index built
    from the same cover with ``bitset_matrix_bytes=0`` ("prev": keyed
    probes with chunked cross products and the hub spill for k-reach,
    the memoized Algorithm-3 walk for (h,k)-reach); and ``query_batch``
    under the default memory gate ("bitset": the level stack and the
    bitset join).  The per-case columns time the gated engine on each
    Algorithm-2/3 case subset, exposing where the join pays off (Case 4,
    and Cases 2–4 for (h,k)-reach).  The HubStress rows run the §1
    celebrity×celebrity workload on
    :func:`~repro.graph.generators.celebrity_crossfire_digraph`, where
    every pair is an uncovered hub×hub Case 4 — the scenario that used
    to route through the scalar spill.  The TOTAL row aggregates
    wall-clock across rows; CI gates ``bitset >= scalar`` on it exactly
    like the build experiment gates blocked vs serial.
    """
    table = Table(
        f"Throughput — query engines (scale={config.scale}, "
        f"{config.queries} pairs per row, {config.bfs_queries} for HubStress)",
        ["dataset", "index", "k", "scalar µs/q", "prev µs/q", "bitset µs/q",
         "c1 µs", "c2 µs", "c3 µs", "c4 µs", "speedup", "agree"],
        caption=(
            "scalar = per-pair Python loop; prev = query_batch on a twin "
            "index built from the same cover with bitset_matrix_bytes=0 "
            "(chunked cross products + hub spill for k-reach, memoized "
            "scalar walk for (h,k)-reach); bitset = query_batch under "
            "the default memory gate (level stack + bitset join); cN = "
            "bitset µs/q on the Case-N subset ('-' when the workload has "
            "<10 such pairs); speedup = scalar/bitset; agree = all three "
            "report the same positive count.  The TOTAL row holds total "
            "milliseconds per column across all rows."
        ),
    )
    totals = _Totals(speedup=("scalar µs/q", "bitset µs/q"))
    repeat = config.repeat

    def add_row(dataset, index_label, build, pairs) -> None:
        """Time the index ``build()`` makes and its over-gate twin."""
        idx = build().prepare_batch()
        twin = build(bitset_matrix_bytes=0).prepare_batch()
        timings = {
            "scalar µs/q": time_queries(idx.query, pairs, repeat=repeat),
            "prev µs/q": time_batch_queries(twin.query_batch, pairs, repeat=repeat),
            "bitset µs/q": time_batch_queries(idx.query_batch, pairs, repeat=repeat),
        }
        row: dict[str, object] = {
            "dataset": dataset,
            "index": index_label,
            "k": "n" if idx.k is None else idx.k,
        }
        row.update({col: fmt_us(t.us_per_query) for col, t in timings.items()})
        cases = idx.query_case_batch(pairs)
        for case in (1, 2, 3, 4):
            sub = pairs[cases == case]
            row[f"c{case} µs"] = (
                fmt_us(time_batch_queries(idx.query_batch, sub).us_per_query)
                if len(sub) >= 10
                else None
            )
        agree = len({t.positives for t in timings.values()}) == 1
        sums = {col: t.seconds for col, t in timings.items()}
        table.add_row(totals.add(row, sums, agree))

    for name in config.datasets:
        g = config.graph(name)
        pairs = config.pairs(name)
        cover = vertex_cover_2approx(g)
        for k in (2, 6, None):
            add_row(name, "k-reach", partial(KReachIndex, g, k, cover=cover), pairs)
        cover2 = hhop_vertex_cover(g, 2, prune=False)
        for k in (6, None):
            hk_index = partial(HKReachIndex, g, 2, k, cover=cover2)
            add_row(name, "(2,k)-reach", hk_index, pairs)

    # The §1 hub×hub stress: brokers form the cover, celebrities stay
    # uncovered, every pair is a Case-4 celebrity×celebrity query.
    brokers = max(64, int(3000 * config.scale))
    celebs = max(8, int(300 * config.scale))
    degree = max(8, brokers // 2)
    hub = celebrity_crossfire_digraph(
        brokers, celebs, degree, seed=config.seed
    )
    hub_cover = frozenset(range(brokers))
    rng = np.random.default_rng(config.seed)
    hub_pairs = rng.integers(
        brokers, hub.n, size=(config.bfs_queries, 2), dtype=np.int64
    )
    for k in (2, 6, None):
        hub_index = partial(KReachIndex, hub, k, cover=hub_cover)
        add_row("HubStress", "k-reach", hub_index, hub_pairs)
    return totals.close(table)


def run_dynamic(config: SuiteConfig) -> Table:
    """Dynamic serving under churn: the snapshot+overlay engine measured.

    Not a paper table — this serves the ROADMAP's read-heavy-while-
    writing goal.  Each row replays one seeded :func:`churn_trace`
    (interleaved inserts, deletes, and query batches) three ways:

    * **overlay** — one :class:`DynamicKReachIndex`; updates maintain the
      delta overlay, query batches run the four-case bulk engine against
      the patched base snapshot (``query_batch``).
    * **scalar** — the same index at the same trace points answering
      through the per-pair scalar ``query`` loop (the pre-overlay
      dynamic behavior).  CI gates overlay ≥ scalar on the TOTAL row.
    * **rebuild** — the no-index-maintenance baseline: an edge set is
      kept current and a fresh static :class:`KReachIndex` is built from
      scratch at every query batch (graph snapshot construction is left
      untimed, favoring the baseline).

    All three must agree on the positive count at every batch — the
    benchmark doubles as a live differential check, like ``build`` and
    ``throughput``.  "speedup" is rebuild/overlay on combined
    update+query wall-clock; the acceptance target is >= 5x on TOTAL.
    """
    batch = max(1, config.queries // 8)
    events = 48
    table = Table(
        f"Dynamic — snapshot+overlay serving under churn "
        f"(scale={config.scale}, {events} events/row, "
        f"query batches of {batch})",
        ["dataset", "k", "writes", "queries", "update ms", "overlay µs/q",
         "scalar µs/q", "overlay ms", "rebuild ms", "compactions",
         "speedup", "agree"],
        caption=(
            "overlay = DynamicKReachIndex batch engine; scalar = "
            "same index, per-pair loop; rebuild = fresh static build per "
            "query batch; overlay ms = updates + overlay queries; "
            "speedup = rebuild/overlay total wall-clock; agree = all "
            "three report the same positive count.  The TOTAL row holds "
            "total milliseconds per column."
        ),
    )
    totals = _Totals(speedup=("rebuild ms", "overlay ms"))
    for name in config.datasets:
        g = config.graph(name)
        for k in (2, 6):
            rng = np.random.default_rng(config.seed)
            # Read-heavy with bursty ingestion, per the ROADMAP serving
            # story: ~5 query batches per write burst, each burst 8
            # consecutive writes (the shape the overlay's deferred
            # write settling absorbs into one relax/repair pass).
            trace = churn_trace(
                g,
                events,
                read_fraction=5 / 6,
                batch_size=batch,
                write_burst=8,
                rng=rng,
            )
            dyn = DynamicKReachIndex(g, k).prepare_batch()
            sums = dict.fromkeys(
                ("update ms", "overlay µs/q", "scalar µs/q", "rebuild ms"), 0.0
            )
            positives = dict.fromkeys(("overlay µs/q", "scalar µs/q", "rebuild"), 0)
            writes = queries = 0
            settled = True
            for op in trace:
                if op[0] != "query":
                    apply = dyn.insert_edge if op[0] == "insert" else dyn.delete_edge
                    sums["update ms"] += timed(lambda: apply(op[1], op[2]))[1]
                    writes += 1
                    settled = False
                    continue
                if not settled:
                    # Settling a write burst — deferred deletion repairs,
                    # possible compaction, view warmup — is maintenance;
                    # charge it to the update phase so the query columns
                    # compare steady-state reads.
                    sums["update ms"] += timed(dyn.prepare_batch)[1]
                    settled = True
                queries += len(op[1])
                timings = {
                    "overlay µs/q": time_batch_queries(dyn.query_batch, op[1]),
                    "scalar µs/q": time_queries(dyn.query, op[1]),
                }
                for col, t in timings.items():
                    sums[col] += t.seconds
                    positives[col] += t.positives
            # Rebuild-per-batch baseline: adjacency upkeep is free, the
            # index is reconstructed from scratch at every read point.
            edges = {(int(u), int(v)) for u, v in g.edges()}
            for op in trace:
                if op[0] == "insert":
                    edges.add((op[1], op[2]))
                elif op[0] == "delete":
                    edges.discard((op[1], op[2]))
                else:
                    snapshot = DiGraph(g.n, edges)
                    idx, build_s = timed(
                        lambda: KReachIndex(snapshot, k).prepare_batch()
                    )
                    t = time_batch_queries(idx.query_batch, op[1])
                    sums["rebuild ms"] += build_s + t.seconds
                    positives["rebuild"] += t.positives
            sums["overlay ms"] = sums["update ms"] + sums["overlay µs/q"]
            row = {
                "dataset": name,
                "k": k,
                "writes": writes,
                "queries": queries,
                "overlay µs/q": fmt_us(1e6 * sums["overlay µs/q"] / max(1, queries)),
                "scalar µs/q": fmt_us(1e6 * sums["scalar µs/q"] / max(1, queries)),
                "compactions": dyn.compactions,
            }
            agree = len(set(positives.values())) == 1
            table.add_row(totals.add(row, sums, agree))
    return totals.close(table)


def _served(
    config: SuiteConfig,
    table: Table,
    backends: list[tuple[Callable[[Path], object], dict[str, Callable]]],
    *,
    n_pairs: int,
    speedup: tuple[str, str],
    prepare: Callable[[DiGraph, Path, np.ndarray, dict], None] | None = None,
) -> Table:
    """The one served-throughput loop under ``serve``, ``shard`` and ``native``.

    Per dataset: write the 6-reach index's v6 file, draw ``n_pairs``
    random pairs, call ``prepare(graph, path, pairs, row)``, then time
    the in-process ``query_batch`` ("inproc ms") and each backend
    ``(open, runs)``: ``open(path)`` starts a server, warmed on 1 024
    pairs, and ``runs`` maps a column to the ``run(server, pairs)``
    timed on it.  Timings are :func:`best_of` ``max(2, --repeat)``;
    every served verdict must equal the in-process one ("agree").
    """
    reps = max(2, config.repeat)
    totals = _Totals(speedup=speedup)
    rng = np.random.default_rng(config.seed)
    with tempfile.TemporaryDirectory(prefix="kreach-served-") as tmp:
        for name in config.datasets:
            g = config.graph(name)
            idx = KReachIndex(g, 6).prepare_batch()
            path = Path(tmp) / f"{name}.kr6"
            save_mmap(idx, path)
            pairs = random_pairs(g.n, n_pairs, rng=rng)
            row: dict[str, object] = {"dataset": name, "pairs": len(pairs)}
            if prepare is not None:
                prepare(g, path, pairs, row)
            reference, inproc_s = best_of(reps, lambda: idx.query_batch(pairs))
            sums = {"inproc ms": inproc_s}
            agree = True
            for open_server, runs in backends:
                with open_server(path) as server:
                    server.query_batch(pairs[:1024])  # warm the pool
                    for column, run in runs.items():
                        served, sums[column] = best_of(
                            reps, partial(run, server, pairs)
                        )
                        agree &= bool(np.array_equal(served, reference))
            table.add_row(totals.add(row, sums, agree))
    return totals.close(table)


def _batch(server, pairs: np.ndarray) -> np.ndarray:
    """One ``query_batch`` call on a server."""
    return server.query_batch(pairs)


def _pipelined(server, pairs: np.ndarray) -> np.ndarray:
    """Pipelined ``submit``/``collect`` of 2W shards, reassembled in order."""
    shards = [sh for sh in np.array_split(pairs, 2 * server.workers) if len(sh)]
    tickets = [server.submit(sh) for sh in shards]
    return np.concatenate([server.collect(ticket) for ticket in tickets])


def run_serve(config: SuiteConfig) -> tuple[Table, Table]:
    """The serving tier measured: index file open time + multi-core throughput.

    Not a paper table — this serves the ROADMAP's "fast as the hardware
    allows" goal.  Two tables per run:

    * **Open time** — every dataset's 6-reach index is written as a v6
      file; the table reports its size and the time
      :func:`~repro.core.serialize.load_mmap` takes to open it (parse a
      header, map the file, install zero-copy views — O(header), not
      O(index); ``tests/core/test_serialize_mmap.py::TestOpenCost`` pins
      that property).
    * **Throughput** — one big random batch per dataset pushed through
      the in-process engine and through :class:`~repro.core.serve.QueryServer`
      pools of ``config.serve_workers`` sizes sharing the same file,
      plus a pipelined ``submit``/``collect`` run at the target pool
      size, through the served loop :func:`_served`.  CI gates 2-worker
      ≥ 1-worker throughput on the TOTAL row; scaling beyond that is
      hardware-bound (a 1-core runner cannot show a 4-worker speedup, a
      4-core one can).
    """
    counts = tuple(config.serve_workers)
    k = 6
    target = 4 if 4 in counts else counts[-1]
    n_pairs = 8 * config.queries
    open_table = Table(
        f"Serve — v6 index file size and open time "
        f"(scale={config.scale}, k={k})",
        ["dataset", "|E_I|", "MB", "open ms"],
        caption=(
            "open = load_mmap (header parse + zero-copy views; O(header), "
            "not O(index)).  The TOTAL row holds summed megabytes and "
            "milliseconds."
        ),
    )
    opens = _Totals(units={"MB": fmt_mb})

    def time_open(g: DiGraph, path: Path, pairs: np.ndarray, row: dict) -> None:
        index, open_s = timed(lambda: load_mmap(path))
        sums = {"MB": path.stat().st_size, "open ms": open_s}
        cells = {"dataset": row["dataset"], "|E_I|": index.edge_count}
        open_table.add_row(opens.add(cells, sums))

    tput = Table(
        f"Serve — served batch-query throughput (scale={config.scale}, "
        f"k={k}, {n_pairs} pairs per row, workers={counts})",
        ["dataset", "pairs", "inproc ms", *(f"serve@{w} ms" for w in counts),
         f"thread@{target} ms", f"pipe@{target} ms", "speedup", "agree"],
        caption=(
            "inproc = one in-process query_batch call; serve@W = the same "
            "batch through a W-worker QueryServer sharing the index file "
            f"(shared-memory dispatch); thread@{target} = the same batch "
            f"through a {target}-thread ThreadQueryServer (one address "
            f"space, zero IPC); pipe@{target} = pipelined submit/collect "
            "of slot-sized shards; speedup = inproc / "
            f"serve@{target}; agree = every served result bit-identical "
            "to in-process.  TOTAL sums milliseconds per column."
        ),
    )
    pools = {w: {f"serve@{w} ms": _batch} for w in counts}
    pools[target][f"pipe@{target} ms"] = _pipelined
    backends = [(partial(QueryServer, workers=w), runs) for w, runs in pools.items()]
    threads = partial(ThreadQueryServer, workers=target)
    backends.append((threads, {f"thread@{target} ms": _batch}))
    speedup = ("inproc ms", f"serve@{target} ms")
    _served(config, tput, backends, n_pairs=n_pairs, speedup=speedup, prepare=time_open)
    return opens.close(open_table), tput


def run_native(config: SuiteConfig) -> tuple[Table, Table]:
    """The native kernel tier measured: per-kernel microbenches + thread serving.

    Not a paper table — this serves ROADMAP item 3 (compiled kernels +
    GIL-free thread scaling).  Two tables:

    * **Kernels** — every dispatched kernel timed on a synthetic hot-path
      workload under the numpy tier (``KREACH_NATIVE=numpy`` semantics)
      and under the active tier (``auto``: compiled when numba is
      present, numpy otherwise), with a bit-identical "agree" check.  On
      a numba-equipped host the CI ``native-smoke`` job gates native ≥
      numpy on the TOTAL row (and ≥5× on at least one kernel); without
      numba the two columns measure the same code and the table is a
      dispatch-overhead check.
    * **Thread serve** — one big batch per dataset through the
      in-process engine vs :class:`~repro.core.serve.ThreadQueryServer`
      at 1 and 2 workers, bit-checked against in-process.  CI gates
      thread@2 against in-process with the same tolerance the serve
      smoke uses.
    """
    from repro import native
    from repro.bitsets import ops
    from repro.core.batch import KeyedRowStore
    from repro.graph.traversal import bfs_distances_blocked

    reps = max(2, config.repeat)
    m = max(4096, config.queries)
    words = 8
    nbits = words * 64
    rng = np.random.default_rng(config.seed)

    kernels = Table(
        f"Native — kernel tier microbenches ({m} elements/row, {words} "
        f"words/bitrow, best of {reps}; active tier: {native.describe()['active']})",
        ["kernel", "numpy ms", "native ms", "speedup", "agree"],
        caption=(
            "numpy = the vectorized baseline tier; native = the active "
            "tier (compiled via numba when installed, otherwise the same "
            "numpy path — speedup ≈ 1.0 then); agree = bit-identical "
            "results.  TOTAL sums milliseconds per column."
        ),
    )

    # Shared synthetic operands: a plausible cover-bitset shape (sparse
    # rows over a multi-word universe) and a hot gather stream.
    matrix = np.zeros((2048, words), dtype=np.uint64)
    ops.set_bits(
        matrix,
        rng.integers(0, 2048, size=8 * 2048),
        rng.integers(0, nbits, size=8 * 2048),
    )
    a = matrix[rng.integers(0, 2048, size=m)].copy()
    b = matrix[rng.integers(0, 2048, size=m)].copy()
    rows_m = rng.integers(0, 2048, size=m)
    cols_m = rng.integers(0, nbits, size=m)
    owner = np.sort(rng.integers(0, 512, size=m))
    s_idx = rng.integers(0, 2048, size=m)
    t_idx = rng.integers(0, 2048, size=m)
    keys = np.unique(rng.integers(0, 1 << 40, size=m))
    weights = rng.integers(1, 100, size=len(keys))
    probe_u = rng.integers(0, 1 << 20, size=m)
    probe_v = rng.integers(0, 1 << 20, size=m)
    g = config.graph(config.datasets[0])
    bfs_sources = np.arange(min(g.n, 192), dtype=np.int64)

    store = KeyedRowStore(keys, weights, 1 << 20)
    workloads = {
        "and_any": lambda: ops.and_any(a, b),
        "gather_and_any": lambda: native.kernel("gather_and_any")(
            matrix, matrix, s_idx, t_idx
        ),
        "or_rows_segmented": lambda: ops.or_rows_segmented(matrix, rows_m, owner, 512),
        "bit_matrix/set_bits": lambda: ops.bit_matrix(rows_m, cols_m, 2048, nbits),
        "probe_bits": lambda: ops.probe_bits(matrix, rows_m, cols_m),
        "keyed_lookup": lambda: store.lookup(probe_u, probe_v),
        f"ms-bfs ({config.datasets[0]}, k=6)": lambda: bfs_distances_blocked(
            g, bfs_sources, k=6
        ),
    }

    def matches(x, y) -> bool:
        if isinstance(x, tuple):
            return all(matches(xi, yi) for xi, yi in zip(x, y))
        return bool(np.array_equal(x, y))

    totals = _Totals(speedup=("numpy ms", "native ms"))
    for label, fn in workloads.items():
        results, sums = [], {}
        for tier, column in (("numpy", "numpy ms"), ("auto", "native ms")):
            with native.use(tier):
                results.append(fn())  # untimed: triggers the one-time JIT compile
                sums[column] = best_of(reps, fn)[1]
        kernels.add_row(totals.add({"kernel": label}, sums, matches(*results)))

    n_pairs = 4 * config.queries
    serve = Table(
        f"Native — thread-pool serving (scale={config.scale}, k=6, "
        f"{n_pairs} pairs per row, best of {reps})",
        ["dataset", "pairs", "inproc ms", "thread@1 ms", "thread@2 ms",
         "speedup", "agree"],
        caption=(
            "inproc = one in-process query_batch call; thread@W = the "
            "same batch through a W-thread ThreadQueryServer sharing the "
            "mmap'd index (zero IPC); speedup = inproc/thread@2; agree = "
            "bit-identical to in-process.  TOTAL sums milliseconds."
        ),
    )
    backends = [
        (partial(ThreadQueryServer, workers=w), {f"thread@{w} ms": _batch})
        for w in (1, 2)
    ]
    speedup = ("inproc ms", "thread@2 ms")
    _served(config, serve, backends, n_pairs=n_pairs, speedup=speedup)
    return totals.close(kernels), serve


# ----------------------------------------------------------------------
# Ablations (ours; motivated by §4.3, §4.4 and §6.3.2)
# ----------------------------------------------------------------------

def run_ablation_covers(config: SuiteConfig) -> Table:
    """Cover-strategy ablation: §4.3's degree-first pick vs alternatives."""
    rng = np.random.default_rng(config.seed)

    def row(name: str) -> dict:
        g = config.graph(name)
        pairs = config.pairs(name)
        covers = {
            "degree": vertex_cover_2approx(g, order="degree"),
            "random": vertex_cover_2approx(g, order="random", rng=rng),
            "greedy": greedy_vertex_cover(g),
        }
        cells: dict[str, object] = {}
        for label, cover in covers.items():
            idx = KReachIndex(g, None, cover=cover)
            cells[f"{label} |S|"] = len(cover)
            cells[f"{label} µs"] = fmt_us(time_queries(idx.query, pairs).us_per_query)
        return cells

    return _per_dataset(
        config,
        f"Ablation — vertex-cover strategy (scale={config.scale})",
        ["degree |S|", "random |S|", "greedy |S|", "degree µs", "random µs",
         "greedy µs"],
        row,
        caption=(
            "Cover size and n-reach query cost per strategy; §4.3 argues the "
            "degree-first pick shrinks the cover and speeds up hub queries."
        ),
    )


def run_ablation_general_k(config: SuiteConfig) -> Table:
    """General-k ablation: §4.4's cover-distance oracle on size, batch
    speed and exactness."""
    rng = np.random.default_rng(config.seed)

    def row(name: str) -> dict:
        g = config.graph(name)
        oracle = CoverDistanceOracle(g)
        sampled, _ = shortest_path_stats(g, sample_size=min(g.n, 400), rng=rng)
        diameter = max(sampled, oracle.max_distance)
        pairs = config.pairs(name)
        batch = partial(oracle.reaches_within_batch, k=6)
        batch(pairs)  # build k=6's views and warm every cache off the clock
        timing = time_batch_queries(batch, pairs, repeat=config.repeat)
        sample = pairs[:300]
        ks = rng.integers(0, diameter + 2, size=len(sample))
        agree = True
        for k in [*np.unique(ks).tolist(), None]:
            sel = sample if k is None else sample[ks == k]
            truth = bulk_reaches_within(g, sel[:, 0], sel[:, 1], k)
            agree &= np.array_equal(oracle.reaches_within_batch(sel, k), truth)
        return {
            "d": diameter,
            "|S|": oracle.cover_size,
            "oracle MB": fmt_mb(oracle.storage_bytes()),
            "views MB": fmt_mb(3 * oracle.index_graph.link_matrix_bytes()),
            "µs/q": fmt_us(timing.us_per_query),
            "agree": "yes" if agree else "NO",
        }

    return _per_dataset(
        config,
        f"Ablation — general-k oracle (scale={config.scale})",
        ["d", "|S|", "oracle MB", "views MB", "µs/q", "agree"],
        row,
        caption=(
            "One exact cover-distance oracle answers every k (§4.4). d = the "
            "longest distance seen from 400 sampled BFS sources or between "
            "two cover vertices; oracle MB = its §4.3 storage model; views "
            "MB = the three bit views one hop budget reads (inside the "
            "gate the oracle stores d + 1 planes and reads them); µs/q = "
            "reaches_within_batch at k=6 over the query workload; agree = "
            "batch verdicts equal BFS on 300 pairs, each at a random "
            "k <= d+1, and on the same pairs at k=None."
        ),
    )


def run_ablation_case_cost(config: SuiteConfig) -> Table:
    """Per-case query cost (§6.3.2: Case 4 ≈ 12× Case 1)."""

    def row(name: str) -> dict:
        g = config.graph(name)
        idx = KReachIndex(g, None, cover=vertex_cover_2approx(g))
        buckets: dict[int, list[tuple[int, int]]] = {1: [], 2: [], 3: [], 4: []}
        for s, t in config.pairs(name):
            buckets[idx.query_case(int(s), int(t))].append((int(s), int(t)))
        per_case = {
            case: time_queries(idx.query, np.asarray(bucket)).us_per_query
            for case, bucket in buckets.items()
            if len(bucket) >= 10
        }
        cells: dict[str, object] = {
            f"Case {case}": fmt_us(us) for case, us in per_case.items()
        }
        if per_case.get(1) and 4 in per_case:
            cells["Case4/Case1"] = fmt_ratio(per_case[4] / per_case[1])
        return cells

    return _per_dataset(
        config,
        f"Ablation — per-case n-reach query cost, µs (scale={config.scale})",
        ["Case 1", "Case 2", "Case 3", "Case 4", "Case4/Case1"],
        row,
    )


def run_ablation_online_search(config: SuiteConfig) -> Table:
    """Index-free search ablation: BFS vs bidirectional BFS vs k-reach,
    on uniform and celebrity-biased workloads (the §1 'Lady Gaga' story)."""
    rng = np.random.default_rng(config.seed)
    k = 6

    def row(name: str) -> dict:
        g = config.graph(name)
        uniform = config.pairs(name)[: config.bfs_queries]
        celebrity = celebrity_pairs(g, config.bfs_queries, rng=rng)
        bfs = BfsIndex(g)
        bibfs = BidirectionalBfsIndex(g)
        idx = KReachIndex(g, k)
        cells: dict[str, object] = {}
        for wl_name, wl in (("uniform", uniform), ("celebrity", celebrity)):
            for label, query in (
                ("BFS", lambda s, t: bfs.reaches_within(s, t, k)),
                ("BiBFS", lambda s, t: bibfs.reaches_within(s, t, k)),
                ("k-reach", idx.query),
            ):
                cells[f"{label} {wl_name}"] = fmt_us(
                    time_queries(query, wl).us_per_query
                )
        return cells

    return _per_dataset(
        config,
        f"Ablation — online search vs index, µs/query (scale={config.scale}, "
        f"k=6, {config.bfs_queries} queries per cell)",
        ["BFS uniform", "BiBFS uniform", "k-reach uniform", "BFS celebrity",
         "BiBFS celebrity", "k-reach celebrity"],
        row,
    )


def run_ingest(config: SuiteConfig) -> Table:
    """Streamed external-sort ingest vs the eager reader.

    Generates one synthetic ``config.ingest_edges``-edge file (plus a
    gzip twin), loads it through :func:`~repro.graph.io.read_edge_list`
    (whole file + parse arrays resident) and through
    :func:`~repro.graph.ingest.ingest_edge_list` (chunked parse +
    spill-to-disk merge sort under ``config.ingest_mb``, or
    ``KREACH_INGEST_MB`` and then the ingester's default when that is
    None), and reports
    wall time and tracemalloc peak for both, the streamed buffer peak
    against its budget, the spill-run count, and whether the two CSR
    graphs are bit-identical.  A third row reruns the stream under a
    deliberately tight budget to force a multi-run external merge.

    CI gates every row: identical must hold, the stream peak must stay
    below the eager peak, and the sort buffer must stay within budget.
    """
    import gzip
    import tracemalloc

    from repro.graph.ingest import IngestStats, ingest_edge_list
    from repro.graph.io import read_edge_list

    def measure(fn):
        tracemalloc.start()
        out, seconds = timed(fn)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return out, seconds, peak

    n_edges = config.ingest_edges
    n = max(64, n_edges // 8)
    rng = np.random.default_rng(config.seed)
    mb = float(1 << 20)
    # Budget that forces a real external merge: >= ~4 sorted runs even
    # after self-loop/duplicate drop (8 bytes per fused edge key).
    tight_mb = max(1, (8 * n_edges) // (2 * (1 << 20)))
    table = Table(
        f"Ingest — streamed external-sort CSR build vs eager reader "
        f"({n_edges} generated edges, seed={config.seed})",
        ["input", "edges", "budget MB", "eager s", "eager peak MB",
         "stream s", "stream peak MB", "buf peak MB", "runs", "identical"],
        caption=(
            "eager = read_edge_list (whole file in memory); stream = "
            "ingest_edge_list under the given sort budget; buf peak = "
            "largest resident run buffer (must stay within budget); "
            "runs = spilled sorted runs merged; identical = both CSR "
            "graphs bit-for-bit equal.  Peaks are tracemalloc-traced "
            "allocations, so the file cache is excluded for both paths."
        ),
    )
    with tempfile.TemporaryDirectory(prefix="kreach-bench-ingest-") as tmp:
        u = rng.integers(0, n, size=n_edges)
        v = rng.integers(0, n, size=n_edges)
        body = "\n".join(f"{a} {b}" for a, b in zip(u.tolist(), v.tolist()))
        payload = (f"# synthetic gnm n={n} m={n_edges}\n" + body + "\n").encode()
        del u, v, body
        plain = Path(tmp) / "edges.txt"
        plain.write_bytes(payload)
        gz = Path(tmp) / "edges.txt.gz"
        with gzip.open(gz, "wb", compresslevel=1) as fh:
            fh.write(payload)
        del payload
        for label, path, budget in (
            ("plain", plain, config.ingest_mb),
            ("gzip", gz, config.ingest_mb),
            ("plain/tight", plain, tight_mb),
        ):
            eager, eager_s, eager_peak = measure(lambda: read_edge_list(path))
            stats = IngestStats()
            streamed, stream_s, stream_peak = measure(
                lambda: ingest_edge_list(path, memory_mb=budget, stats=stats)
            )
            identical = (
                eager.n == streamed.n
                and np.array_equal(eager.out_indptr, streamed.out_indptr)
                and np.array_equal(eager.out_indices, streamed.out_indices)
                and np.array_equal(eager.in_indptr, streamed.in_indptr)
                and np.array_equal(eager.in_indices, streamed.in_indices)
            )
            table.add_row(
                {
                    "input": label,
                    "edges": int(streamed.out_indices.size),
                    "budget MB": stats.budget_bytes / mb,
                    "eager s": eager_s,
                    "eager peak MB": eager_peak / mb,
                    "stream s": stream_s,
                    "stream peak MB": stream_peak / mb,
                    "buf peak MB": stats.max_buffered_bytes / mb,
                    "runs": stats.spill_runs,
                    "identical": "yes" if identical else "NO",
                }
            )
    return table


def run_size(config: SuiteConfig) -> Table:
    """Table-4-style storage shootout: the k-reach index vs PWAH.

    Builds each dataset's n-reach index and the PWAH-8 baseline and
    reports bytes per graph edge and µs/query over the shared random
    workload.  ``dense B/e`` is :meth:`KReachIndex.storage_bytes
    <repro.core.kreach.KReachIndex.storage_bytes>`, the paper's §4.3 CSR
    model; ``file B/e`` is what :func:`~repro.core.serialize.save_mmap`
    actually writes: its header, the graph's dual CSR, the cover ids
    and, inside the memory gate, the n-reach presence plane (``|S|²/8``
    bytes) instead of a CSR.  ``agree`` checks the two verdict vectors
    bit-for-bit (n-reach == plain reachability, so PWAH must agree); CI
    gates it on every row.  The TOTAL row holds the summed edges and
    the summed bytes per summed edge.
    """
    totals = _Totals(per="m")
    with tempfile.TemporaryDirectory(prefix="kreach-size-") as tmp:
        path = Path(tmp) / "index.kri"

        def row(name: str) -> dict:
            g = config.graph(name)
            pairs = config.pairs(name)
            dense = KReachIndex(g, None, cover=vertex_cover_2approx(g))
            dense.prepare_batch()
            pwah = PwahIndex(g)
            agree = bool(
                np.array_equal(dense.query_batch(pairs), pwah.reaches_batch(pairs))
            )
            save_mmap(dense, path)
            cells = {
                "dense µs": fmt_us(
                    time_batch_queries(dense.query_batch, pairs).us_per_query
                ),
                "pwah µs": fmt_us(
                    time_batch_queries(pwah.reaches_batch, pairs).us_per_query
                ),
            }
            sums = {
                "m": max(1, int(g.out_indices.size)),
                "dense B/e": dense.storage_bytes(),
                "file B/e": path.stat().st_size,
                "pwah B/e": pwah.storage_bytes(),
            }
            return totals.add(cells, sums, agree)

        table = _per_dataset(
            config,
            f"Size — index bytes/edge and query cost, n-reach "
            f"(scale={config.scale}, {config.queries} random queries)",
            ["m", "dense B/e", "file B/e", "pwah B/e", "dense µs", "pwah µs",
             "agree"],
            row,
            caption=(
                "B/e = bytes per graph edge: dense = the §4.3 storage model "
                "(4-byte ids, 2-bit weights), file = the measured v6 file "
                "(graph CSR, cover ids, presence plane), pwah = the PWAH-8 "
                "baseline's model.  CI gates agree on every row."
            ),
        )
    return totals.close(table)


def run_shard(config: SuiteConfig) -> Table:
    """The sharded serving tier: scatter-gather throughput vs one pool.

    Serves the ROADMAP's "sharded scatter-gather" milestone.  Every
    dataset's 6-reach index is hub-aware partitioned
    (:func:`~repro.core.partition.partition_kreach`) into a 1- and a
    2-shard file; one big random batch then runs through the
    in-process engine and through
    :class:`~repro.core.sharded.ShardedQueryServer` at both shard
    counts (process pools, one worker per shard — total parallelism =
    the shard count), through the served loop :func:`_served`.  CI
    gates the TOTAL row:
    agree must hold and 2-shard throughput must be no worse than
    1-shard beyond scheduler-noise tolerance (a 1-core runner cannot
    show a 2-shard speedup; a multi-core one can — the acceptance
    target there is ≥ 1.5x).
    """
    k = 6
    shard_counts = (1, 2)
    n_pairs = 4 * config.queries
    table = Table(
        f"Shard — scatter-gather serving throughput (scale={config.scale}, "
        f"k={k}, {n_pairs} pairs per row, 1 worker per shard)",
        ["dataset", "pairs", "|B|", "cross", "part ms", "file MB",
         "inproc ms", *(f"shard@{c} ms" for c in shard_counts), "speedup",
         "agree"],
        caption=(
            "|B| = replicated boundary (hub) vertices; cross = pairs "
            "stitched through the boundary portal tables instead of a "
            "single shard; part ms = partition + save; file MB = the "
            "2-shard file; shard@N = the batch through a "
            "ShardedQueryServer over an N-shard file (process pool per "
            "shard); speedup = "
            "shard@1 / shard@2; agree = every served verdict "
            "bit-identical to the in-process global index.  TOTAL sums "
            "milliseconds; CI gates agree and shard@2 <= 1.25x shard@1 "
            "on it."
        ),
    )

    def shard_file(path: Path, count: int) -> Path:
        return path.with_name(f"{path.stem}-{count}{path.suffix}")

    def partition(g: DiGraph, path: Path, pairs: np.ndarray, row: dict) -> None:
        """Write every shard count's file; the |B|, cross and file MB
        cells describe the widest one."""
        part_s = 0.0
        for count in shard_counts:
            out = shard_file(path, count)
            sharded, seconds = timed(lambda: partition_kreach(g, k, count))
            part_s += seconds + timed(lambda: save_sharded(sharded, out))[1]
        s64, t64 = (pairs[:, i].astype(np.int64) for i in (0, 1))
        row["|B|"] = len(sharded.boundary)
        row["cross"] = int((sharded.route(s64, t64) < 0).sum())
        row["file MB"] = fmt_mb(out.stat().st_size)
        row["part ms"] = 1e3 * part_s

    backends = [
        (
            lambda path, c=count: ShardedQueryServer(
                shard_file(path, c), workers=1, backend="process"
            ),
            {f"shard@{count} ms": _batch},
        )
        for count in shard_counts
    ]
    speedup = (f"shard@{shard_counts[0]} ms", f"shard@{shard_counts[-1]} ms")
    return _served(
        config, table, backends, n_pairs=n_pairs, speedup=speedup, prepare=partition
    )


#: CLI name -> callable; each returns a Table or tuple of Tables.
ALL_EXPERIMENTS = {
    "build": run_build,
    "table2": run_table2,
    "table3-4-5": run_table3_4_5,
    "table6": run_table6,
    "table7": run_table7,
    "table8": run_table8,
    "table9": run_table9,
    "throughput": run_throughput,
    "dynamic": run_dynamic,
    "serve": run_serve,
    "shard": run_shard,
    "native": run_native,
    "ingest": run_ingest,
    "size": run_size,
    "ablation-covers": run_ablation_covers,
    "ablation-general-k": run_ablation_general_k,
    "ablation-case-cost": run_ablation_case_cost,
    "ablation-online-search": run_ablation_online_search,
}
