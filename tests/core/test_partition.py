"""Hub-aware partitioner differential suite.

Pins the sharding tier's core claim: a :class:`ShardedKReach` built by
:func:`partition_kreach` answers **bit-identically** to the single
global index (and to the BFS oracle) for every shard count, hop budget,
and engine — including hub-stress graphs where the interesting pairs
all cross shards — plus the structural invariants that make the claim
hold (boundary separation, boundary ⊆ cover), the portal tables, and
the manifest round-trip.
"""

import json
import shutil
import zlib
from collections import deque

import numpy as np
import pytest

from repro.baselines import BfsIndex
from repro.core.index_graph import IndexGraph
from repro.core.kreach import KReachIndex, level_specs
from repro.core.partition import (
    ShardedKReach,
    default_hub_count,
    partition_kreach,
)
from repro.core.serialize import (
    IndexCorruptionError,
    _manifest_digest,
    load_sharded,
    save_sharded,
    verify_file,
)
from repro.core.vertex_cover import vertex_cover_2approx
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnp_digraph
from repro.graph.scc import condensation
from repro.workloads import random_pairs


@pytest.fixture(scope="module")
def graph():
    return gnp_digraph(90, 0.05, seed=21)


@pytest.fixture(scope="module")
def pairs(graph):
    return random_pairs(graph.n, 4000, rng=np.random.default_rng(3))


def two_block_hub_graph(block=40, hubs=4, seed=9):
    """Two dense communities bridged *only* through hub vertices.

    SCC condensation keeps each community's components apart, so a
    2-shard partition puts the blocks on different shards and every
    block-to-block pair exercises the cross-shard portal stitch.
    """
    rng = np.random.default_rng(seed)
    edges = []
    n = 2 * block + hubs
    for b in range(2):
        lo = b * block
        dense = rng.random((block, block)) < 0.08
        np.fill_diagonal(dense, False)
        u, v = np.nonzero(dense)
        edges.append(np.stack([u + lo, v + lo], 1))
    for h in range(2 * block, n):
        fans = rng.choice(2 * block, size=12, replace=False)
        edges.append(np.stack([np.full(6, h), fans[:6]], 1))
        edges.append(np.stack([fans[6:], np.full(6, h)], 1))
    return DiGraph(n, np.concatenate(edges))


def bfs_levels(adjacency, source):
    """Hop distance from ``source`` to every vertex (-1 if unreachable)."""
    dist = np.full(len(adjacency), -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def resign(directory, name, arr):
    """Replace one manifest array and re-sign the manifest around it, so
    only the load-time routing checks can tell the file is wrong."""
    np.save(directory / name, arr)
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    blob = (directory / name).read_bytes()
    manifest["files"][name] = {"bytes": len(blob), "crc32": zlib.crc32(blob)}
    manifest["crc32"] = _manifest_digest(manifest)
    path.write_text(json.dumps(manifest))


def forge_manifest(directory, forge):
    """Apply ``forge`` to the manifest and re-sign it, so only the schema
    check can tell the manifest is wrong."""
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    forge(manifest)
    manifest["crc32"] = _manifest_digest(manifest)
    path.write_text(json.dumps(manifest))


#: Forged manifest fields -> (forgery, the field the refusal names).
FORGED_MANIFESTS = {
    "n-dropped": (lambda m: m.pop("n"), "n"),
    "n-string": (lambda m: m.update(n="x"), "n"),
    "n-negative": (lambda m: m.update(n=-1), "n"),
    "n-bool": (lambda m: m.update(n=True), "n"),
    "k-string": (lambda m: m.update(k="x"), "k"),
    "k-below-unbounded": (lambda m: m.update(k=-2), "k"),
    "num_shards-zero": (lambda m: m.update(num_shards=0), "num_shards"),
    "num_shards-huge": (lambda m: m.update(num_shards=10**12), "files"),
    "files-list": (lambda m: m.update(files=[]), "files"),
    "exit-unlisted": (lambda m: m["files"].pop("exit.npy"), "files"),
    "shard-unlisted": (lambda m: m["files"].pop("shard-001.kr5"), "files"),
    "extra-file": (
        lambda m: m["files"].update({"extra.npy": {"bytes": 0, "crc32": 0}}),
        "files",
    ),
    "bytes-string": (
        lambda m: m["files"]["entry.npy"].update(bytes="x"),
        "files['entry.npy']",
    ),
    "crc32-dropped": (
        lambda m: m["files"]["shard_of.npy"].pop("crc32"),
        "files['shard_of.npy']",
    ),
    "entry-not-a-table": (
        lambda m: m["files"].update({"shard-000.kr5": 7}),
        "files['shard-000.kr5']",
    ),
}


@pytest.fixture(scope="module")
def signed_shards(graph, tmp_path_factory):
    """A clean 2-shard manifest directory, copied before each forgery."""
    directory = tmp_path_factory.mktemp("signed") / "m"
    save_sharded(partition_kreach(graph, 6, 2), directory)
    return directory


class TestDifferential:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 6, None])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_sharded_vs_global_vs_bfs(self, graph, pairs, k, num_shards):
        reference = KReachIndex(graph, k).query_batch(pairs)
        bfs = BfsIndex(graph)
        sub = pairs[:300]
        oracle = np.array(
            [
                bfs.reaches(int(s), int(t))
                if k is None
                else bfs.reaches_within(int(s), int(t), k)
                for s, t in sub.tolist()
            ]
        )
        assert np.array_equal(reference[:300], oracle)
        for cover in (None, vertex_cover_2approx(graph)):
            sharded = partition_kreach(graph, k, num_shards, cover=cover)
            assert np.array_equal(sharded.query_batch(pairs), reference)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 6, None])
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_hub_stress_all_cross(self, k, num_shards):
        """Block-to-block pairs must traverse the boundary stitch."""
        g = two_block_hub_graph()
        rng = np.random.default_rng(11)
        s = rng.integers(0, 40, size=1500)
        t = rng.integers(40, 80, size=1500)
        pairs = np.stack(
            [np.concatenate([s, t]), np.concatenate([t, s])], axis=1
        )
        reference = KReachIndex(g, k).query_batch(pairs)
        sharded = partition_kreach(g, k, num_shards, hub_count=4)
        owner = sharded.route(
            pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64)
        )
        assert (owner < 0).sum() > 0, "stress graph must produce cross pairs"
        assert np.array_equal(sharded.query_batch(pairs), reference)

    @pytest.mark.parametrize("k", [1, 2, 6, None])
    def test_default_shards_cover_their_vertex_map(self, graph, pairs, k):
        """Inside the gate the global cover is V, so every shard covers
        all of its vertices and answers every pair as Case 1."""
        sharded = partition_kreach(graph, k, 3)
        for shard in sharded.shards:
            assert shard.index.cover == frozenset(range(len(shard.vertex_map)))
        bfs = BfsIndex(graph)
        oracle = np.array(
            [
                bfs.reaches(s, t) if k is None else bfs.reaches_within(s, t, k)
                for s, t in pairs[:400].tolist()
            ]
        )
        reference = KReachIndex(graph, k).query_batch(pairs)
        assert np.array_equal(reference[:400], oracle)
        assert np.array_equal(sharded.query_batch(pairs), reference)

    def test_self_pairs_and_duplicates(self, graph):
        vertices = np.arange(graph.n, dtype=np.int64)
        self_pairs = np.stack([vertices, vertices], axis=1)
        sharded = partition_kreach(graph, 6, 3)
        assert bool(sharded.query_batch(self_pairs).all())
        dup = np.tile(self_pairs[:5], (40, 1))
        reference = KReachIndex(graph, 6).query_batch(dup)
        assert np.array_equal(sharded.query_batch(dup), reference)


class TestInvariants:
    def test_boundary_separates_interiors(self, graph):
        sharded = partition_kreach(graph, 6, 3)
        shard_of = sharded.shard_of
        for u, v in graph.edges():
            if shard_of[u] >= 0 and shard_of[v] >= 0:
                assert shard_of[u] == shard_of[v], (
                    f"edge ({u},{v}) joins two different shard interiors"
                )

    def test_boundary_inside_every_shard_cover(self, graph):
        sharded = partition_kreach(graph, 6, 3)
        for shard in sharded.shards:
            local_boundary = shard.to_local(sharded.boundary)
            assert set(local_boundary.tolist()) <= set(shard.index.cover)

    def test_top_hub_is_boundary(self, graph):
        sharded = partition_kreach(graph, 6, 2)
        top = int(np.argmax(graph.degrees()))
        assert top in set(sharded.boundary.tolist())

    def test_shards_cover_all_vertices(self, graph):
        sharded = partition_kreach(graph, 6, 4)
        seen = np.zeros(graph.n, dtype=bool)
        for shard in sharded.shards:
            seen[shard.vertex_map] = True
        assert bool(seen.all())

    def test_num_shards_validation(self, graph):
        with pytest.raises(ValueError, match="num_shards"):
            partition_kreach(graph, 6, 0)

    @pytest.mark.parametrize("k", [2, 6, None])
    def test_plane_slices_equal_triple_slices(self, graph, k):
        """Each shard's planes, cut from the global planes, are the planes
        of the global CSR triples filtered to the shard, on the default
        cover (V) and on the §4.3 cover."""
        for base in (None, vertex_cover_2approx(graph)):
            sharded = partition_kreach(graph, k, 3, cover=base)
            self._check_plane_slices(graph, k, sharded)

    @staticmethod
    def _check_plane_slices(graph, k, sharded):
        cover = set()
        for shard in sharded.shards:
            cover.update(shard.vertex_map[list(shard.index.cover)].tolist())
        reference = KReachIndex(graph, k, cover=cover, bitset_matrix_bytes=0)
        triples = reference.index_graph.triples()  # the triple-built CSR
        specs = level_specs(k)
        for shard in sharded.shards:
            ig = shard.index.index_graph
            assert ig.levels is not None
            member = np.zeros(graph.n, dtype=bool)
            member[shard.vertex_map] = True
            heads, targets, weights = triples
            keep = member[heads] & member[targets]
            expected = IndexGraph.for_kreach(
                shard.n,
                ig.cover_ids,
                np.searchsorted(shard.vertex_map, heads[keep]),
                np.searchsorted(shard.vertex_map, targets[keep]),
                weights[keep],
                k,
            )
            for got, want in zip(
                ig.link_matrices(specs), expected.link_matrices(specs)
            ):
                assert np.array_equal(got, want)
            assert ig == expected

    def test_default_hub_count_scales(self):
        assert default_hub_count(0) >= 1
        assert default_hub_count(100) >= 10
        assert default_hub_count(10_000) >= 100

    @pytest.mark.parametrize("k", [1, 3, None])
    @pytest.mark.parametrize(
        "make", [two_block_hub_graph, lambda: gnp_digraph(120, 0.03, seed=4)],
        ids=["hub-stress", "gnp"],
    )
    def test_portal_tables_are_clipped_bfs_distances(self, make, k):
        """``exit[v, j]`` / ``entry[v, j]`` are the distances to / from
        ``boundary[j]`` clipped at k+1 (0/1 reachability for k=None)."""
        g = make()
        assert condensation(g).num_components < g.n, "graph must be cyclic"
        sharded = partition_kreach(g, k, 2, hub_count=4)
        cap = 1 if k is None else k + 1
        assert len(sharded.boundary)
        assert sharded.exit.shape == sharded.entry.shape == (g.n, len(sharded.boundary))
        out_adj, in_adj = g.out_lists(), g.in_lists()
        for j, b in enumerate(sharded.boundary.tolist()):
            for table, adjacency in ((sharded.entry, out_adj), (sharded.exit, in_adj)):
                dist = bfs_levels(adjacency, b)
                reached = dist >= 0
                want = np.full(g.n, cap)
                want[reached] = 0 if k is None else np.minimum(dist[reached], cap)
                assert np.array_equal(table[:, j], want), (j, b)

    def test_summary_shape(self, graph):
        summary = partition_kreach(graph, 6, 2).summary()
        assert summary["num_shards"] == 2
        assert len(summary["shard_sizes"]) == 2
        assert summary["boundary_size"] >= default_hub_count(graph.n)


class TestManifest:
    @pytest.mark.parametrize("k", [6, None])
    def test_roundtrip_bit_identical(self, tmp_path, graph, pairs, k):
        sharded = partition_kreach(graph, k, 2)
        directory = tmp_path / f"m{k}"
        save_sharded(sharded, directory)
        loaded = ShardedKReach.from_manifest(
            load_sharded(directory, verify=True)
        )
        assert np.array_equal(
            loaded.query_batch(pairs), sharded.query_batch(pairs)
        )
        assert loaded.k == sharded.k
        assert np.array_equal(loaded.boundary, sharded.boundary)
        assert np.array_equal(loaded.exit, sharded.exit)
        assert np.array_equal(loaded.entry, sharded.entry)
        for got, want in zip(loaded.shards, sharded.shards):
            assert np.array_equal(got.vertex_map, want.vertex_map)

    def test_writes_only_underivable_files(self, tmp_path, graph):
        directory = tmp_path / "m"
        save_sharded(partition_kreach(graph, 6, 3), directory)
        assert sorted(p.name for p in directory.iterdir()) == [
            "entry.npy",
            "exit.npy",
            "manifest.json",
            "shard-000.kr5",
            "shard-001.kr5",
            "shard-002.kr5",
            "shard_of.npy",
        ]

    def test_verify_file_clean_and_corrupt(self, tmp_path, graph):
        directory = tmp_path / "m"
        save_sharded(partition_kreach(graph, 6, 2), directory)
        report = verify_file(directory)
        assert report["ok"], report
        assert any(r["name"] == "manifest.json" for r in report["sections"])
        # Also accepts the manifest path itself.
        assert verify_file(directory / "manifest.json")["ok"]
        # Flip one byte mid-shard-file: the audit must name the file.
        victim = directory / "shard-001.kr5"
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        report = verify_file(directory)
        assert not report["ok"]
        assert any(
            r["status"] == "mismatch" and r["name"] == "shard-001.kr5"
            for r in report["sections"]
        )

    def test_load_rejects_missing_and_resized(self, tmp_path, graph):
        directory = tmp_path / "m"
        save_sharded(partition_kreach(graph, 6, 2), directory)
        victim = directory / "entry.npy"
        original = victim.read_bytes()
        victim.unlink()
        with pytest.raises(IndexCorruptionError, match="missing"):
            load_sharded(directory)
        victim.write_bytes(original + b"\x00")
        with pytest.raises(IndexCorruptionError, match="size mismatch"):
            load_sharded(directory)

    def test_load_rejects_manifest_tamper(self, tmp_path, graph):
        directory = tmp_path / "m"
        save_sharded(partition_kreach(graph, 6, 2), directory)
        manifest = directory / "manifest.json"
        text = manifest.read_text().replace('"n": 90', '"n": 91')
        manifest.write_text(text)
        with pytest.raises(IndexCorruptionError, match="CRC32"):
            load_sharded(directory)

    def test_load_rejects_out_of_range_shard_id(self, tmp_path, graph):
        """A same-size byte flip in shard_of.npy must not reach routing."""
        directory = tmp_path / "m"
        save_sharded(partition_kreach(graph, 6, 2), directory)
        victim = directory / "shard_of.npy"
        size = victim.stat().st_size
        shard_of = np.load(victim)
        shard_of[int(np.flatnonzero(shard_of >= 0)[0])] = 7
        np.save(victim, shard_of)
        assert victim.stat().st_size == size
        with pytest.raises(IndexCorruptionError, match="shard_of.npy") as info:
            load_sharded(directory)
        assert info.value.path == str(victim)

    def test_load_rejects_wrong_shape_table(self, tmp_path, graph):
        directory = tmp_path / "m"
        save_sharded(partition_kreach(graph, 6, 2), directory)
        table = np.load(directory / "exit.npy")
        resign(directory, "exit.npy", table[:, :-1])
        with pytest.raises(IndexCorruptionError, match="exit.npy") as info:
            load_sharded(directory, verify=True)
        assert info.value.section == "exit.npy"
        resign(directory, "exit.npy", table.astype(np.int64))
        with pytest.raises(IndexCorruptionError, match="exit.npy"):
            load_sharded(directory, verify=True)

    def test_load_rejects_vertex_map_disagreeing_with_shard(self, tmp_path, graph):
        directory = tmp_path / "m"
        save_sharded(partition_kreach(graph, 6, 2), directory)
        shard_of = np.load(directory / "shard_of.npy")
        shard_of[int(np.flatnonzero(shard_of == 0)[0])] = 1
        resign(directory, "shard_of.npy", shard_of)
        with pytest.raises(IndexCorruptionError, match="shard-000.kr5"):
            load_sharded(directory, verify=True)

    def test_v1_manifest_refused_by_version(self, tmp_path, graph):
        directory = tmp_path / "m"
        save_sharded(partition_kreach(graph, 6, 2), directory)
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 1
        manifest["crc32"] = _manifest_digest(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(
            IndexCorruptionError,
            match="v1 shard manifest; this reader opens only v2 — rebuild it "
            "with partition_kreach \\+ save_sharded",
        ):
            load_sharded(directory)
        report = verify_file(directory)
        assert not report["ok"]
        assert report["format"] == "kreach-shards(v1)"
        assert "v1 shard manifest" in report["detail"]
        assert not any(r["status"] == "malformed" for r in report["sections"])

    @pytest.mark.parametrize("forgery", sorted(FORGED_MANIFESTS))
    def test_forged_manifest_refused(self, tmp_path, signed_shards, forgery):
        """A re-signed manifest passes its CRC32, so the schema check is
        what must refuse it, naming the field, in the loader and the
        audit alike."""
        forge, field = FORGED_MANIFESTS[forgery]
        directory = shutil.copytree(signed_shards, tmp_path / "m")
        forge_manifest(directory, forge)
        with pytest.raises(IndexCorruptionError, match="malformed") as info:
            load_sharded(directory)
        assert info.value.section == field
        report = verify_file(directory)
        assert not report["ok"]
        assert field in report["detail"]
