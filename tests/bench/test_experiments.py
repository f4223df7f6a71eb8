"""Experiment smoke tests at tiny scale (2 datasets, small workloads)."""

import pytest

import repro.bench.experiments as experiments
from repro.bench.experiments import (
    SuiteConfig,
    run_ablation_case_cost,
    run_ablation_covers,
    run_ablation_general_k,
    run_ablation_online_search,
    run_table2,
    run_table3_4_5,
    run_table6,
    run_table7,
    run_table8,
    run_table9,
)
from repro.bench.report import Table
from repro.core.kreach import KReachIndex
from repro.core.vertex_cover import vertex_cover_2approx


@pytest.fixture(scope="module")
def config():
    return SuiteConfig(
        datasets=("GO", "aMaze"),
        scale=0.03,
        queries=400,
        bfs_queries=60,
        seed=1,
    )


class TestSuiteConfig:
    def test_graph_cached(self, config):
        assert config.graph("GO") is config.graph("GO")

    def test_pairs_shape(self, config):
        pairs = config.pairs("GO")
        assert pairs.shape == (400, 2)

    def test_mu_positive(self, config):
        assert config.mu("GO") >= 2

    def test_builds_cached(self, config):
        builds = config.reachability_builds("GO")
        assert set(builds) == {"n-reach", "PTree", "3-hop", "GRAIL", "PWAH"}
        assert config.reachability_builds("GO") is builds

    def test_table6_ranks_table5_timings(self, config, monkeypatch):
        """One ``all`` run times Table 5's indexes once: Table 6 ranks the
        timings Tables 3-5 left on the config."""
        import repro.bench.experiments as experiments

        t5 = run_table3_4_5(config)[2]

        def timed_again(*args, **kwargs):
            raise AssertionError("Table 6 re-timed a Table 5 index")

        monkeypatch.setattr(experiments, "time_batch_queries", timed_again)
        assert len(run_table6(config).rows) == 3
        assert config.reachability_query_us("GO").keys() <= set(t5.columns)


class TestTables:
    def test_table2(self, config):
        table = run_table2(config)
        assert isinstance(table, Table)
        assert len(table.rows) == 2

    def test_table3_4_5(self, config):
        t3, t4, t5 = run_table3_4_5(config)
        for t in (t3, t4, t5):
            assert len(t.rows) == 2
            assert t.rows[0]["dataset"] == "GO"

    def test_table6_rank_bounds(self, config):
        table = run_table6(config)
        assert len(table.rows) == 3  # three metrics

    def test_table7(self, config):
        table = run_table7(config)
        assert len(table.rows) == 2
        assert "mu-BFS" in table.columns and "mu-dist" in table.columns

    def test_table8_percentages(self, config):
        table = run_table8(config)
        for row in table.rows:
            ours = [float(str(row[f"Case {c}"]).split(" / ")[0]) for c in (1, 2, 3, 4)]
            assert abs(sum(ours) - 100.0) < 1.0

    def test_table9(self, config):
        table = run_table9(config)
        # only aMaze is in the paper's Table 9 subset of our two datasets
        assert [r["dataset"] for r in table.rows] == ["aMaze"]
        row = table.rows[0]
        assert int(row["|2hop-VC|"]) <= int(row["|VC|"])

    def test_table9_pruned_cover_column(self):
        """The like-for-like column: the 1-hop cover after the same
        redundancy pass is never larger than the unpruned one."""
        config = SuiteConfig(
            datasets=experiments._TABLE9_DATASETS, scale=0.03, queries=50, seed=1
        )
        table = run_table9(config)
        assert len(table.rows) == len(experiments._TABLE9_DATASETS)
        for row in table.rows:
            assert int(row["|VC| pruned"]) <= int(row["|VC|"]), row
            assert float(row["shrink vs pruned %"]) <= float(row["shrink %"]), row


class TestAblations:
    def test_covers(self, config):
        table = run_ablation_covers(config)
        assert len(table.rows) == 2
        for row in table.rows:
            assert row["degree |S|"] > 0

    def test_general_k(self, config):
        table = run_ablation_general_k(config)
        assert [row["dataset"] for row in table.rows] == list(config.datasets)
        for row in table.rows:
            assert row["agree"] == "yes", row

    def test_case_cost(self, config):
        table = run_ablation_case_cost(config)
        assert len(table.rows) == 2

    def test_online_search(self, config):
        table = run_ablation_online_search(config)
        assert len(table.rows) == 2


class TestSizeExperiment:
    def test_size_agrees_and_measures_the_file(self, config):
        from repro.bench.experiments import run_size

        table = run_size(config)
        assert [row["dataset"] for row in table.rows] == ["GO", "aMaze", "TOTAL"]
        assert all(row["agree"] == "yes" for row in table.rows)
        for row in table.rows:
            assert row["dense B/e"] > 0
        for row in table.rows[:-1]:
            # The v6 file holds its header, the graph's dual CSR, the
            # cover ids and the n-reach presence plane — nothing else.
            g = config.graph(row["dataset"])
            index = KReachIndex(g, None, cover=vertex_cover_2approx(g))
            (plane,) = index.index_graph.levels
            payload = sum(
                arr.nbytes
                for arr in (
                    g.out_indptr, g.out_indices, g.in_indptr, g.in_indices,
                    index.index_graph.cover_ids, plane,
                )
            )
            file_bytes = round(row["file B/e"] * row["m"])
            # Header and 64-byte section alignment add well under 4 KiB.
            assert payload < file_bytes < payload + 4096


class TestBuildExperiment:
    def test_run_build_smoke(self):
        from repro.bench.experiments import run_build

        config = SuiteConfig(datasets=("GO",), scale=0.03, queries=50)
        table = run_build(config)
        assert table.rows[-1]["dataset"] == "TOTAL"
        # 3 k values + the aggregate row.
        assert len(table.rows) == 4
        assert all(row["agree"] == "yes" for row in table.rows)
        assert "build" in table.title.lower() or "Build" in table.title


def test_run_dynamic_smoke():
    from repro.bench.experiments import run_dynamic

    config = SuiteConfig(
        datasets=("GO",), scale=0.03, queries=320, bfs_queries=40, seed=2
    )
    table = run_dynamic(config)
    # GO at k = 2 and 6, plus the TOTAL row CI gates on.
    assert [row["dataset"] for row in table.rows] == ["GO", "GO", "TOTAL"]
    for row in table.rows:
        assert row["agree"] == "yes"
    total = table.rows[-1]
    # TOTAL holds raw millisecond sums the CI gate consumes.
    assert total["overlay µs/q"] > 0
    assert total["scalar µs/q"] > 0
    assert total["rebuild ms"] > 0


def test_run_serve_smoke():
    from repro.bench.experiments import run_serve

    config = SuiteConfig(
        datasets=("GO",), scale=0.03, queries=100, seed=2,
        serve_workers=(1, 2),
    )
    open_table, tput = run_serve(config)
    assert [r["dataset"] for r in open_table.rows] == ["GO", "TOTAL"]
    total_open = open_table.rows[-1]
    assert float(total_open["MB"]) > 0 and total_open["open ms"] > 0
    assert [r["dataset"] for r in tput.rows] == ["GO", "TOTAL"]
    total = tput.rows[-1]
    assert total["inproc ms"] > 0
    assert total["serve@1 ms"] > 0 and total["serve@2 ms"] > 0
    assert all(r["agree"] == "yes" for r in tput.rows)


def _total(table, key="dataset"):
    return next(row for row in table.rows if row[key] == "TOTAL")


def test_run_native_smoke():
    """The two tables and TOTAL keys the CI native-smoke gate reads."""
    from repro.bench.experiments import run_native

    config = SuiteConfig(
        datasets=("GO", "aMaze"), scale=0.03, queries=100, seed=2, repeat=2
    )
    kernels, serve = run_native(config)
    assert kernels.rows[-1]["kernel"] == "TOTAL"
    total = _total(kernels, "kernel")
    assert total["numpy ms"] > 0 and total["native ms"] > 0
    assert all(row["agree"] == "yes" for row in kernels.rows)
    assert [row["dataset"] for row in serve.rows] == ["GO", "aMaze", "TOTAL"]
    total = _total(serve)
    assert total["inproc ms"] > 0 and total["thread@2 ms"] > 0
    assert all(row["agree"] == "yes" for row in serve.rows)


def test_run_shard_smoke():
    """The TOTAL keys the CI shard-smoke gate reads."""
    from repro.bench.experiments import run_shard

    config = SuiteConfig(datasets=("GO", "aMaze"), scale=0.03, queries=100, seed=2)
    table = run_shard(config)
    assert [row["dataset"] for row in table.rows] == ["GO", "aMaze", "TOTAL"]
    total = _total(table)
    assert total["shard@1 ms"] > 0 and total["shard@2 ms"] > 0
    assert all(row["agree"] == "yes" for row in table.rows)
    for row in table.rows[:-1]:
        assert row["|B|"] >= 0 and 0 <= row["cross"] <= row["pairs"]
        assert float(row["file MB"]) > 0 and row["part ms"] > 0


def test_run_ingest_smoke():
    """Every row carries the cells the CI ingest-smoke gate reads."""
    from repro.bench.experiments import run_ingest

    # A 1 MiB budget holds 64 Ki edge keys per run: 100 000 edges spill
    # at least two sorted runs, so every row takes the external merge.
    config = SuiteConfig(seed=2, ingest_mb=1, ingest_edges=100_000)
    table = run_ingest(config)
    assert [row["input"] for row in table.rows] == ["plain", "gzip", "plain/tight"]
    for row in table.rows:
        assert row["identical"] == "yes", row
        assert 0 < row["stream peak MB"] < row["eager peak MB"], row
        assert 0 < row["buf peak MB"] <= row["budget MB"], row
        assert row["runs"] >= 2, row
