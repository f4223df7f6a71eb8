"""Command-line entry point regenerating the paper's tables.

Usage::

    python -m repro.cli table2 --scale 0.2
    python -m repro.cli table3-4-5 --scale 1.0 --queries 100000
    python -m repro.cli serve --scale 0.2 --json BENCH_serve.json
    python -m repro.cli all --scale 0.2 --output results.txt
    kreach-bench table8            # installed console script
    kreach-bench verify index.kr6 updates.krlog shards/  # checksum audit

Each experiment is described by the docstring of its ``run_*`` function
in :mod:`repro.bench.experiments` (``ALL_EXPERIMENTS`` maps the names).
``--json PATH`` also writes the tables with run provenance (git sha,
numpy version, native tier, platform, timestamp, CPU count and the
experiment parameters) so results from different commits compare.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.bench.experiments import ALL_EXPERIMENTS, SuiteConfig
from repro.bench.report import Table
from repro.datasets import DATASET_NAMES
from repro.graph.ingest import DEFAULT_BUDGET_MB

__all__ = ["main", "build_parser"]


def _positive_scale(text: str) -> float:
    """``--scale``: a number above zero (argparse turns the error into usage)."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be a number above zero, got {text!r}")
    return value


def _int_at_least(low: int):
    """An argparse type: a whole number of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an int >= {low}, got {text!r}")
        return value

    return parse


def _worker_counts(text: str) -> tuple[int, ...]:
    """``--serve-workers``: comma-separated positive pool sizes."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts or not all(part.isdigit() and int(part) > 0 for part in parts):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive ints, got {text!r}"
        )
    return tuple(int(part) for part in parts)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="kreach-bench",
        description="Regenerate the K-Reach paper's tables on synthetic stand-ins.",
    )
    parser.add_argument(
        "experiment",
        choices=[*ALL_EXPERIMENTS, "all"],
        help="which table/ablation to run ('all' runs everything)",
    )
    parser.add_argument(
        "--scale",
        type=_positive_scale,
        default=0.2,
        help="dataset scale factor; 1.0 = paper-sized graphs (default 0.2)",
    )
    parser.add_argument(
        "--queries",
        type=_int_at_least(1),
        default=20_000,
        help="random queries per dataset (paper used 1M; default 20000)",
    )
    parser.add_argument(
        "--bfs-queries",
        type=_int_at_least(1),
        default=1_000,
        help="query count for the slow online baselines (default 1000)",
    )
    parser.add_argument(
        "--datasets",
        type=str,
        default=None,
        help=f"comma-separated subset of {', '.join(DATASET_NAMES)}",
    )
    parser.add_argument(
        "--seed", type=_int_at_least(0), default=7, help="workload seed"
    )
    parser.add_argument(
        "--serve-workers",
        type=_worker_counts,
        default=(1, 2, 4, 8),
        metavar="N,N,...",
        help=(
            "comma-separated QueryServer pool sizes the 'serve' experiment "
            "measures (default 1,2,4,8)"
        ),
    )
    parser.add_argument(
        "--repeat",
        type=_int_at_least(1),
        default=1,
        metavar="N",
        help=(
            "repeat each timing N times and report the median run "
            "(default 1); smooths scheduler noise in BENCH_*.json "
            "trajectories"
        ),
    )
    parser.add_argument(
        "--ingest-mb",
        type=_int_at_least(1),
        default=None,
        metavar="MB",
        help=(
            "'ingest': memory budget for the streamed external-sort "
            "ingester (default: the KREACH_INGEST_MB env var, else "
            f"{DEFAULT_BUDGET_MB})"
        ),
    )
    parser.add_argument(
        "--ingest-edges",
        type=_int_at_least(1000),
        default=200_000,
        metavar="N",
        help=(
            "'ingest': size of the generated synthetic edge file "
            "(default 200000; CI runs 2000000)"
        ),
    )
    parser.add_argument(
        "--markdown", action="store_true", help="emit markdown instead of ASCII"
    )
    parser.add_argument(
        "--output", type=str, default=None, help="append output to this file"
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "also write results as machine-readable JSON (experiment name, "
            "config, tables, elapsed seconds) — for perf-trajectory tracking"
        ),
    )
    return parser


def _run_metadata() -> dict:
    """Provenance embedded in every ``--json`` payload.

    ``BENCH_*.json`` artifacts are compared across PRs; without the git
    sha / library versions / host facts a regression cannot be told
    apart from a runner change.  Everything here degrades to ``None``
    rather than failing the bench run.
    """
    import datetime
    import os
    import platform
    import subprocess

    import numpy as np

    try:
        # The sha is trustworthy only when this file is *tracked* by the
        # repository that contains it (the dev-checkout layout).  A bare
        # ancestor/cwd check is not enough: a venv installed inside some
        # unrelated checkout puts site-packages under that repo too, and
        # stamping its HEAD would misattribute every artifact.
        pkg_dir = os.path.dirname(os.path.abspath(__file__))
        tracked = subprocess.run(
            ["git", "ls-files", "--error-unmatch", "cli.py"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=pkg_dir,
        )
        sha = None
        if tracked.returncode == 0:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
                cwd=pkg_dir,
            )
            sha = (proc.stdout.strip() or None) if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    from repro import native

    return {
        "git_sha": sha,
        "numpy_version": np.__version__,
        "native": native.describe(),
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _emit(text: str, output: str | None) -> None:
    print(text)
    if output:
        with open(output, "a", encoding="utf-8") as fh:
            fh.write(text + "\n\n")


def _render(result: "Table | tuple[Table, ...]", markdown: bool) -> str:
    tables = result if isinstance(result, tuple) else (result,)
    rendered = [t.to_markdown() if markdown else t.render() for t in tables]
    return "\n\n".join(rendered)


def _verify_main(argv: list[str]) -> int:
    """``kreach-bench verify <file>...`` — audit on-disk checksums.

    Prints one line per section with its stored/computed CRC32 status
    and exits 0 iff every file is clean (a recoverable op-log
    ``torn-tail`` counts as clean; a ``mismatch``, or a file the loader
    refuses, printed with its reason, does not).
    """
    parser = argparse.ArgumentParser(
        prog="kreach-bench verify",
        description=(
            "Audit the integrity of k-reach on-disk artifacts: v6 index "
            "files, sharded ones included (header + per-section CRC32, "
            "then a validating open), and framed op logs (record frames)."
        ),
    )
    parser.add_argument("files", nargs="+", metavar="FILE")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the raw verify_file() reports as JSON instead of text",
    )
    args = parser.parse_args(argv)
    from repro.core.serialize import verify_file

    reports = [verify_file(path) for path in args.files]
    if args.json:
        print(json.dumps(reports, indent=2))
    else:
        for report in reports:
            verdict = "OK" if report["ok"] else "CORRUPT"
            fmt = report["format"] or "unrecognized"
            print(f"{report['path']}: {fmt} — {verdict}")
            if report["detail"]:
                print(f"  ! {report['detail']}")
            for row in report["sections"]:
                size = f"{row['bytes']} B" if "bytes" in row else "?"
                crc = ""
                if "stored" in row:
                    crc = (
                        f" crc32 stored={row['stored']:#010x} "
                        f"computed={row['computed']:#010x}"
                    )
                print(f"  {row['status']:>9}  {row['name']:<21} {size}{crc}")
    return 0 if all(r["ok"] for r in reports) else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    try:
        code = _main(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # a closed reader surfaces here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed the pipe (``kreach-bench ... | head``): stop
        # quietly, with stdout on devnull so the exit flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv: list[str]) -> int:
    # `verify` is a utility subcommand, not an experiment: intercept it
    # before the experiment parser (whose positional has a choices= set).
    if argv and argv[0] == "verify":
        return _verify_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    datasets = DATASET_NAMES
    if args.datasets:
        datasets = tuple(name.strip() for name in args.datasets.split(",") if name.strip())
        # The registry matches names case-insensitively; check them here
        # so a typo, or a table row name such as HubStress, ends in a
        # usage error rather than a traceback from deep in an experiment.
        known = {name.lower() for name in DATASET_NAMES}
        unknown = [name for name in datasets if name.lower() not in known]
        if unknown:
            parser.error(
                f"unknown --datasets name(s) {', '.join(unknown)}; "
                f"choose from {', '.join(DATASET_NAMES)}"
            )
    config = SuiteConfig(
        datasets=datasets,
        scale=args.scale,
        queries=args.queries,
        bfs_queries=args.bfs_queries,
        seed=args.seed,
        serve_workers=args.serve_workers,
        repeat=args.repeat,
        ingest_mb=args.ingest_mb,
        ingest_edges=args.ingest_edges,
    )
    from repro import native

    print(native.describe_line())
    names = list(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    records: list[dict] = []
    for name in names:
        start = time.perf_counter()
        result = ALL_EXPERIMENTS[name](config)
        elapsed = time.perf_counter() - start
        _emit(_render(result, args.markdown), args.output)
        _emit(f"[{name} finished in {elapsed:.1f}s]", args.output)
        if args.json:
            tables = result if isinstance(result, tuple) else (result,)
            records.append(
                {
                    "experiment": name,
                    "elapsed_s": round(elapsed, 3),
                    "tables": [t.to_dict() for t in tables],
                }
            )
    if args.json:
        payload = {
            "meta": _run_metadata(),
            "config": {
                "datasets": list(datasets),
                "scale": args.scale,
                "queries": args.queries,
                "bfs_queries": args.bfs_queries,
                "seed": args.seed,
                "serve_workers": list(args.serve_workers),
                "repeat": args.repeat,
                "ingest_mb": args.ingest_mb,
                "ingest_edges": args.ingest_edges,
            },
            "experiments": records,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
