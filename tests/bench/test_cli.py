"""CLI tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.experiment == "table2"
        assert args.scale == 0.2
        assert args.queries == 20_000

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_all_choice(self):
        assert build_parser().parse_args(["all"]).experiment == "all"


class TestMain:
    def test_table2_tiny(self, capsys):
        rc = main(
            ["table2", "--scale", "0.03", "--queries", "100",
             "--datasets", "GO", "--seed", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "GO" in out

    def test_markdown_mode(self, capsys):
        main(["table8", "--scale", "0.03", "--queries", "100",
              "--datasets", "GO", "--markdown"])
        out = capsys.readouterr().out
        assert "### Table 8" in out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.txt"
        main(["table8", "--scale", "0.03", "--queries", "100",
              "--datasets", "GO", "--output", str(target)])
        capsys.readouterr()
        content = target.read_text()
        assert "Table 8" in content

    def test_dataset_subset_parsing(self, capsys):
        main(["table2", "--scale", "0.03", "--queries", "50",
              "--datasets", "GO, Nasa"])
        out = capsys.readouterr().out
        assert "GO" in out and "Nasa" in out


class TestJsonOutput:
    def test_json_payload_written(self, tmp_path, capsys):
        import json

        target = tmp_path / "results.json"
        rc = main(["table8", "--scale", "0.03", "--queries", "100",
                   "--datasets", "GO", "--json", str(target)])
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(target.read_text())
        assert payload["config"]["datasets"] == ["GO"]
        assert payload["config"]["scale"] == 0.03
        [record] = payload["experiments"]
        assert record["experiment"] == "table8"
        assert record["elapsed_s"] >= 0
        [table] = record["tables"]
        assert table["columns"][0] == "dataset"
        assert table["rows"][0]["dataset"] == "GO"

    def test_json_rows_are_json_native(self, tmp_path, capsys):
        import json

        target = tmp_path / "build.json"
        main(["build", "--scale", "0.03", "--datasets", "GO",
              "--json", str(target)])
        capsys.readouterr()
        rows = json.loads(target.read_text())["experiments"][0]["tables"][0]["rows"]
        total = next(r for r in rows if r["dataset"] == "TOTAL")
        assert isinstance(total["serial ms"], float)
        assert isinstance(total["blocked ms"], float)
        assert all(r["agree"] == "yes" for r in rows)


class TestDatasetNames:
    @pytest.mark.parametrize(
        "argv",
        [
            # HubStress is a throughput row name, not a dataset.
            ["throughput", "--scale", "0.05", "--datasets", "HubStress"],
            ["table8", "--datasets", "NoSuch"],
        ],
    )
    def test_unknown_name_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert argv[-1] in err and "GO" in err and "Traceback" not in err


class TestJsonMetadata:
    def test_meta_block_embedded(self, tmp_path, capsys):
        import json

        target = tmp_path / "meta.json"
        rc = main(["table8", "--scale", "0.03", "--queries", "100",
                   "--datasets", "GO", "--json", str(target)])
        capsys.readouterr()
        assert rc == 0
        meta = json.loads(target.read_text())["meta"]
        # Provenance the cross-PR bench trajectory needs.
        for key in ("git_sha", "numpy_version", "python_version",
                    "platform", "cpu_count", "timestamp_utc"):
            assert key in meta, key
        import numpy as np

        assert meta["numpy_version"] == np.__version__
        # os.cpu_count() may legitimately return None on some platforms.
        assert meta["cpu_count"] is None or meta["cpu_count"] >= 1
        assert "T" in meta["timestamp_utc"]  # ISO-8601


#: A quick table8 run, for the flags whose bad values used to be
#: clamped silently or fail deep inside an experiment.
TINY = ["table8", "--scale", "0.03", "--datasets", "GO"]


class TestNumericArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table8", "--scale", "0"],
            ["table8", "--scale", "-0.5"],
            ["serve", "--scale", "0.03", "--datasets", "GO", "--serve-workers", "0,2"],
            ["serve", "--scale", "0.03", "--datasets", "GO", "--serve-workers", "x"],
            ["serve", "--scale", "0.03", "--datasets", "GO", "--serve-workers", "1,-2"],
            [*TINY, "--queries", "-3"],
            [*TINY, "--queries", "0"],
            [*TINY, "--bfs-queries", "0"],
            [*TINY, "--repeat", "0"],
            [*TINY, "--ingest-mb", "0"],
            [*TINY, "--ingest-edges", "999"],
            [*TINY, "--queries", "100", "--seed", "-1"],
        ],
        ids=["scale-zero", "scale-negative", "workers-zero", "workers-text",
             "workers-negative", "queries-negative", "queries-zero",
             "bfs-queries-zero", "repeat-zero", "ingest-mb-zero",
             "ingest-edges-below-1000", "seed-negative"],
    )
    def test_bad_value_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert argv[-2] in err and "Traceback" not in err


class TestIngestBudget:
    """``--ingest-mb`` wins when given; unset, ``KREACH_INGEST_MB`` does,
    and the ``budget MB`` column reports the budget the ingester used."""

    @pytest.mark.parametrize(
        "flag,env,want",
        [([], "7", 7.0), (["--ingest-mb", "3"], "7", 3.0)],
        ids=["env-when-unset", "flag-wins"],
    )
    def test_budget_column(self, tmp_path, monkeypatch, capsys, flag, env, want):
        import json

        monkeypatch.setenv("KREACH_INGEST_MB", env)
        target = tmp_path / "ingest.json"
        argv = ["ingest", "--ingest-edges", "5000", *flag, "--json", str(target)]
        assert main(argv) == 0
        capsys.readouterr()
        rows = json.loads(target.read_text())["experiments"][0]["tables"][0]["rows"]
        assert [r["budget MB"] for r in rows[:2]] == [want, want]
        assert all(r["identical"] == "yes" for r in rows)


class TestClosedPipe:
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_reader_ends_quietly(self, unbuffered):
        """``kreach-bench table2 ... | head``: a reader that goes away
        before the output is written ends the run without a traceback,
        whether the output sits in the buffer until exit or not."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "table2", "--scale", "0.05",
             "--datasets", "GO,aMaze"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # the reader is gone before the first line
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err, err
