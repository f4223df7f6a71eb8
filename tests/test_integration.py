"""End-to-end integration tests: dataset stand-ins -> every index -> one
truth, plus the example scripts."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import (
    BfsIndex,
    ChainCoverIndex,
    GrailIndex,
    PathTreeIndex,
    PrunedLandmarkIndex,
    PwahIndex,
    TransitiveClosureIndex,
)
from repro.core import CoverDistanceOracle, HKReachIndex, KReachIndex
from repro.datasets import load
from repro.workloads import random_pairs

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("name", ["GO", "aMaze", "Nasa", "CiteSeer"])
def test_all_indexes_agree_on_dataset_standins(name):
    g = load(name, scale=0.02)
    truth = TransitiveClosureIndex(g)
    indexes = [
        KReachIndex(g, None),
        HKReachIndex(g, 2, None),
        GrailIndex(g, num_labels=2, seed=0),
        PwahIndex(g),
        PathTreeIndex(g),
        ChainCoverIndex(g),
        PrunedLandmarkIndex(g),
    ]
    pairs = random_pairs(g.n, 300, rng=np.random.default_rng(0))
    for s, t in pairs:
        s, t = int(s), int(t)
        expected = truth.reaches(s, t)
        for ix in indexes:
            assert ix.reaches(s, t) == expected, (name, type(ix).__name__, s, t)


@pytest.mark.parametrize("name", ["GO", "Kegg"])
def test_khop_indexes_agree_on_dataset_standins(name):
    g = load(name, scale=0.02)
    bfs = BfsIndex(g)
    oracle = CoverDistanceOracle(g)
    pll = PrunedLandmarkIndex(g)
    pairs = random_pairs(g.n, 80, rng=np.random.default_rng(1))
    for k in (1, 2, 3, 6):
        idx = KReachIndex(g, k)
        batch = oracle.reaches_within_batch(pairs, k)
        for (s, t), in_batch in zip(pairs, batch):
            s, t = int(s), int(t)
            expected = bfs.reaches_within(s, t, k)
            assert idx.query(s, t) == expected, (name, k, s, t)
            assert oracle.reaches_within(s, t, k) == expected, (name, k, s, t)
            assert in_batch == expected, (name, k, s, t)
            assert pll.reaches_within(s, t, k) == expected, (name, k, s, t)


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "paper_walkthrough.py", "social_influence.py",
     "sensor_network.py", "citation_analysis.py", "index_lifecycle.py",
     "dynamic_social_graph.py"],
)
def test_example_scripts_run(script):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    result = subprocess.run(
        [sys.executable, str(path), "--fast"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"
