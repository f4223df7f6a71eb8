"""One batch-path selector: no engine names, one memory gate, one keyed probe.

The batch path of every Algorithm-2 answerer is picked by the memory
gate alone (``bitset_matrix_bytes`` through ``kreach.batch_views``);
the per-pair reference is ``query()``.  Every in-process answerer
refuses an ``engine`` argument with TypeError — even on batches that
never reach a kernel — as the servers, the front door and the CLI do.
"""

import numpy as np
import pytest

import repro.core.dynamic as dynamic_module
import repro.core.general_k as general_k_module
import repro.core.kreach as kreach_module
from repro.bitsets.ops import DEFAULT_MATRIX_BYTES, matrix_bytes
from repro.cli import main
from repro.core import (
    CondensedKReach,
    CoverDistanceOracle,
    DynamicKReachIndex,
    HKReachIndex,
    KReachIndex,
    QueryServer,
    ShardedQueryServer,
    ThreadQueryServer,
    partition_kreach,
    save_mmap,
    save_sharded,
    vertex_cover_2approx,
)
from repro.core.batch import KeyedRowStore
from repro.graph.generators import gnp_digraph
from repro.serve import FrontDoor
from tests.conftest import brute_force_khop, scalar_batch

REMOVED = ("auto", "scalar", "native", "bitset", "chunked")

ANSWERERS = {
    "KReachIndex": lambda g: KReachIndex(g, 3),
    "HKReachIndex": lambda g: HKReachIndex(g, 1, 3),
    "DynamicKReachIndex": lambda g: DynamicKReachIndex(g, 3),
    "CondensedKReach": lambda g: CondensedKReach(g, None),
    "ShardedKReach": lambda g: partition_kreach(g, 3, 2),
}


@pytest.fixture(scope="module")
def graph():
    return gnp_digraph(30, 0.1, seed=1)


@pytest.mark.parametrize("answerer", sorted(ANSWERERS))
def test_in_process_answerers_refuse_removed_names(graph, answerer):
    index = ANSWERERS[answerer](graph)
    pairs = np.array([(0, 1), (2, 3), (4, 4)], dtype=np.int64)
    want = [brute_force_khop(graph, s, t, index.k) for s, t in pairs.tolist()]
    assert index.query_batch(pairs).tolist() == want
    for name in REMOVED:
        for batch in (pairs, np.empty((0, 2), dtype=np.int64)):
            with pytest.raises(TypeError, match="engine"):
                index.query_batch(batch, engine=name)


def test_servers_front_door_and_cli_take_no_engine(graph, tmp_path):
    path = tmp_path / "index.kr6"
    save_mmap(KReachIndex(graph, 3), path)
    shards = tmp_path / "shards.kr6"
    save_sharded(partition_kreach(graph, 3, 2), shards)
    # Keyword binding fails before any worker starts.
    for cls, target in (
        (QueryServer, path),
        (ThreadQueryServer, path),
        (ShardedQueryServer, shards),
    ):
        with pytest.raises(TypeError, match="engine"):
            cls(target, engine="auto")
    with ThreadQueryServer(path, workers=1) as server:
        with pytest.raises(TypeError, match="engine"):
            server.query_batch([(0, 1)], engine="auto")
        with pytest.raises(TypeError, match="engine"):
            FrontDoor(server, engine="auto")
    with ShardedQueryServer(shards, backend="thread") as sharded:
        with pytest.raises(TypeError, match="engine"):
            sharded.submit([(0, 1)], engine="auto")
    with pytest.raises(SystemExit):
        main(["table8", "--engine", "auto"])


#: ``(stack, matrix)`` presence per gate setting: the level stack, keyed
#: probes with the one-view Case-4 join, keyed probes with the chunked
#: cross products.
GATE_PATHS = {
    "stack": (True, True),
    "one-view": (False, True),
    "chunked": (False, False),
}


@pytest.mark.parametrize("path", sorted(GATE_PATHS))
def test_static_oracle_and_dynamic_share_the_one_gate(graph, path, monkeypatch):
    """All three Algorithm-2 answerers pick their batch path through
    ``kreach.batch_views`` and pick the same one at each gate setting."""
    assert general_k_module.batch_views is kreach_module.batch_views
    assert dynamic_module.batch_views is kreach_module.batch_views
    gate_fn = kreach_module.batch_views
    picked = []

    def spy(*args, **kwargs):
        stack, matrix = gate_fn(*args, **kwargs)
        picked.append((stack is not None, matrix is not None))
        return stack, matrix

    for module in (kreach_module, general_k_module, dynamic_module):
        monkeypatch.setattr(module, "batch_views", spy)
    cover = vertex_cover_2approx(graph)
    size = len(cover)
    gate = {
        "stack": DEFAULT_MATRIX_BYTES,
        "one-view": matrix_bytes(size, size),
        "chunked": 0,
    }[path]
    static = KReachIndex(graph, 3, cover=cover, bitset_matrix_bytes=gate)
    oracle = CoverDistanceOracle(graph, bitset_matrix_bytes=gate)
    dynamic = DynamicKReachIndex(graph, 3, bitset_matrix_bytes=gate)
    # A write between cover vertices patches the views, cover unchanged.
    cover = sorted(static.cover)
    u, v = next(
        (u, v) for u in cover for v in cover if u != v and not graph.has_edge(u, v)
    )
    dynamic.insert_edge(u, v)
    assert oracle.cover == static.cover == frozenset(dynamic._cover)
    pairs = np.random.default_rng(0).integers(0, graph.n, size=(400, 2))
    answers = {
        "static": (static.query_batch(pairs), scalar_batch(static, pairs)),
        "oracle": (
            oracle.reaches_within_batch(pairs, 3),
            np.array([oracle.reaches_within(s, t, 3) for s, t in pairs.tolist()]),
        ),
        "dynamic": (dynamic.query_batch(pairs), scalar_batch(dynamic, pairs)),
    }
    assert picked == [GATE_PATHS[path]] * 3
    for name, (got, want) in answers.items():
        assert np.array_equal(got, want), name


def test_answerers_over_one_index_graph_share_one_keyed_store(graph, monkeypatch):
    """The keyed probe view is cached on the IndexGraph, so every
    answerer over it — a twin index, a dynamic index over it as its base
    — reads one KeyedRowStore."""
    index = KReachIndex(graph, 3, bitset_matrix_bytes=0)
    twin = KReachIndex.from_index_graph(
        graph,
        3,
        cover=index.cover,
        index_graph=index.index_graph,
        bitset_matrix_bytes=0,
    )
    dynamic = DynamicKReachIndex.from_base(index)
    built = []
    init = KeyedRowStore.__init__

    def spy(store, *args, **kwargs):
        built.append(store)
        init(store, *args, **kwargs)

    monkeypatch.setattr(KeyedRowStore, "__init__", spy)
    pairs = np.random.default_rng(1).integers(0, graph.n, size=(300, 2))
    for answerer in (index, twin, dynamic):
        assert np.array_equal(
            answerer.query_batch(pairs), scalar_batch(answerer, pairs)
        )
    assert built == [index.index_graph.keyed()]
