"""Batch engine names: ``'auto'`` and ``'scalar'``, nothing else.

``engine='native'`` is the kernel tier (``native.use`` per thread,
``KREACH_NATIVE`` per process); ``'bitset'`` and ``'chunked'`` are
memory-gate settings (``bitset_matrix_bytes``); the serving tier takes
no engine at all.  Every in-process answerer refuses the three removed
names with ValueError — even on batches that never reach a kernel — and
the servers, the front door and the CLI refuse an engine argument.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core import (
    CondensedKReach,
    DynamicKReachIndex,
    HKReachIndex,
    KReachIndex,
    QueryServer,
    ShardedQueryServer,
    ThreadQueryServer,
    partition_kreach,
    save_mmap,
    save_sharded,
)
from repro.graph.generators import gnp_digraph
from repro.serve import FrontDoor

REMOVED = ("native", "bitset", "chunked")

ANSWERERS = {
    "KReachIndex": lambda g: KReachIndex(g, 3),
    "HKReachIndex": lambda g: HKReachIndex(g, 1, 3),
    "DynamicKReachIndex": lambda g: DynamicKReachIndex(g, 3),
    "CondensedKReach": lambda g: CondensedKReach(g, 3),
    "ShardedKReach": lambda g: partition_kreach(g, 3, 2),
}


@pytest.fixture(scope="module")
def graph():
    return gnp_digraph(30, 0.1, seed=1)


@pytest.mark.parametrize("answerer", sorted(ANSWERERS))
def test_in_process_answerers_refuse_removed_names(graph, answerer):
    index = ANSWERERS[answerer](graph)
    pairs = np.array([(0, 1), (2, 3), (4, 4)], dtype=np.int64)
    reference = index.query_batch(pairs, engine="scalar")
    assert np.array_equal(index.query_batch(pairs), reference)
    for name in REMOVED:
        for batch in (pairs, np.empty((0, 2), dtype=np.int64)):
            with pytest.raises(ValueError, match="engine"):
                index.query_batch(batch, engine=name)


def test_servers_front_door_and_cli_take_no_engine(graph, tmp_path):
    path = tmp_path / "index.kr6"
    save_mmap(KReachIndex(graph, 3), path)
    manifest = tmp_path / "shards"
    save_sharded(partition_kreach(graph, 3, 2), manifest)
    # Keyword binding fails before any worker starts.
    for cls, target in (
        (QueryServer, path),
        (ThreadQueryServer, path),
        (ShardedQueryServer, manifest),
    ):
        with pytest.raises(TypeError, match="engine"):
            cls(target, engine="auto")
    with ThreadQueryServer(path, workers=1) as server:
        with pytest.raises(TypeError, match="engine"):
            server.query_batch([(0, 1)], engine="auto")
        with pytest.raises(TypeError, match="engine"):
            FrontDoor(server, engine="auto")
    with ShardedQueryServer(manifest, backend="thread") as sharded:
        with pytest.raises(TypeError, match="engine"):
            sharded.submit([(0, 1)], engine="auto")
    with pytest.raises(SystemExit):
        main(["table8", "--engine", "auto"])
