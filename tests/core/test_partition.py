"""Hub-aware partitioner differential suite.

Pins the sharding tier's core claim: a :class:`ShardedKReach` built by
:func:`partition_kreach` answers **bit-identically** to the single
global index (and to the BFS oracle) for every shard count, hop budget,
and engine — including hub-stress graphs where the interesting pairs
all cross shards — plus the structural invariants that make the claim
hold (boundary separation, boundary ⊆ cover), the portal tables, and
the sharded file's round trip and integrity checks.
"""

import json
from collections import deque

import numpy as np
import pytest

from repro import faults
from repro.baselines import BfsIndex
from repro.core.index_graph import IndexGraph
from repro.core.kreach import KReachIndex, level_specs
from repro.core.partition import default_hub_count, partition_kreach
from repro.core.serialize import (
    IndexCorruptionError,
    load_mmap,
    load_sharded,
    save_mmap,
    save_sharded,
    verify_file,
)
from repro.core.sharded import ShardedQueryServer
from repro.core.vertex_cover import vertex_cover_2approx
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnp_digraph
from repro.graph.scc import condensation
from repro.workloads import random_pairs
from tests.conftest import (
    header_of,
    resigned_section,
    tampered_header,
    tampered_section,
)


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


#: Re-signed header forgeries of a sharded file -> (forgery, the header
#: field or section the refusal names).  The ids are the fields of the
#: retired manifest directory; each forgery moves to the header field or
#: section-table entry that took its place (``num_shards`` is the length
#: of ``shards``, and ``files`` the section table).
FORGED_MANIFESTS = {
    "n-dropped": (lambda h: h.pop("n"), "n"),
    "n-string": (lambda h: h.update(n="x"), "n"),
    "n-negative": (lambda h: h.update(n=-1), "n"),
    "n-bool": (lambda h: h.update(n=True), "n"),
    "k-string": (lambda h: h.update(k="x"), "k"),
    "k-below-unbounded": (lambda h: h.update(k=-2), "k"),
    "num_shards-zero": (lambda h: h.update(shards=[]), "shards"),
    "num_shards-huge": (
        lambda h: h["shards"].extend(h["shards"] * 500),
        "s2/graph_out_indptr",
    ),
    "files-list": (lambda h: h.update(sections=[]), "sections"),
    "exit-unlisted": (lambda h: h["sections"].pop("exit"), "exit"),
    "shard-unlisted": (lambda h: h["sections"].pop("s1/cover_ids"), "s1/cover_ids"),
    "extra-file": (
        lambda h: h["sections"].update(extra=dict(h["sections"]["exit"])),
        "extra",
    ),
    "bytes-string": (lambda h: h["sections"]["entry"].update(count="x"), "entry"),
    "crc32-dropped": (lambda h: h["sections"]["shard_of"].pop("crc32"), "shard_of"),
    "entry-not-a-table": (
        lambda h: h["sections"].update({"s0/cover_ids": 7}),
        "s0/cover_ids",
    ),
}


@pytest.fixture(scope="module")
def signed_shards(graph, tmp_path_factory):
    """A clean 2-shard file, copied by each forgery."""
    path = tmp_path_factory.mktemp("signed") / "shards.kr6"
    save_sharded(partition_kreach(graph, 6, 2), path)
    return path


def manifest_directory(sharded, directory, version=2):
    """A sharded index laid out as the retired shard-manifest directory:
    ``manifest.json``, the routing arrays as ``.npy`` files and one v6
    file per shard."""
    directory.mkdir()
    manifest = {"format": "kreach-shards", "format_version": version}
    (directory / "manifest.json").write_text(json.dumps(manifest))
    for name in ("shard_of", "entry", "exit"):
        np.save(directory / f"{name}.npy", getattr(sharded, name))
    for i, shard in enumerate(sharded.shards):
        save_mmap(shard.index, directory / f"shard-{i:03d}.kr5")
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
    """The sharded file: one v6 file whose header and section table are
    the manifest of the routing arrays and of every shard's sections."""

    @pytest.mark.parametrize("k", [6, None])
    def test_roundtrip_bit_identical(self, tmp_path, graph, pairs, k):
        sharded = partition_kreach(graph, k, 2)
        path = tmp_path / f"m{k}.kr6"
        assert save_sharded(sharded, path) == path
        loaded = load_sharded(path, verify=True)
        assert np.array_equal(
            loaded.query_batch(pairs), sharded.query_batch(pairs)
        )
        assert loaded.k == sharded.k
        assert np.array_equal(loaded.boundary, sharded.boundary)
        assert np.array_equal(loaded.exit, sharded.exit)
        assert np.array_equal(loaded.entry, sharded.entry)
        for got, want in zip(loaded.shards, sharded.shards):
            assert np.array_equal(got.vertex_map, want.vertex_map)
            assert not got.index.index_graph.cover_ids.flags.writeable

    def test_writes_only_underivable_files(self, tmp_path, graph):
        """The section table names the routing arrays and each shard's
        index sections, nothing derivable (boundary, vertex maps)."""
        path = tmp_path / "m.kr6"
        sharded = partition_kreach(graph, 6, 3)
        save_sharded(sharded, path)
        header = header_of(path)
        shard_sections = [
            "graph_out_indptr", "graph_out_indices", "graph_in_indptr",
            "graph_in_indices", "cover_ids", "level_planes",
        ]
        assert list(header["sections"]) == ["shard_of", "entry", "exit"] + [
            f"s{i}/{name}" for i in range(3) for name in shard_sections
        ]
        assert header["kind"] == "kreach-shards"
        assert (header["k"], header["n"]) == (6, graph.n)
        assert [
            sorted(fields) for fields in header["shards"]
        ] == [["layout", "n", "weight_base", "weight_bits"]] * 3
        assert [fields["n"] for fields in header["shards"]] == [
            shard.n for shard in sharded.shards
        ]

    def test_verify_file_clean_and_corrupt(self, tmp_path, graph):
        path = tmp_path / "m.kr6"
        save_sharded(partition_kreach(graph, 6, 2), path)
        report = verify_file(path)
        assert report["ok"], report
        names = [row["name"] for row in report["sections"]]
        assert names[:4] == ["<header>", "shard_of", "entry", "exit"]
        assert "s1/cover_ids" in names
        # Flip the bits of shard 1's first edge target: the audit must
        # name that section and no other.
        bad = tampered_section(
            path, tmp_path / "bad.kr6", "s1/graph_out_indices",
            lambda arr: np.concatenate([arr[:1] ^ 0xFF, arr[1:]]),
        )
        report = verify_file(bad)
        assert not report["ok"]
        assert [
            row["name"] for row in report["sections"] if row["status"] != "ok"
        ] == ["s1/graph_out_indices"]

    def test_load_rejects_missing_and_resized(self, tmp_path, graph):
        """A truncated file and a grown one are both refused at open."""
        path = tmp_path / "m.kr6"
        save_sharded(partition_kreach(graph, 6, 2), path)
        raw = path.read_bytes()
        short = tmp_path / "short.kr6"
        short.write_bytes(raw[:-8])
        with pytest.raises(IndexCorruptionError, match="truncated"):
            load_sharded(short)
        grown = tmp_path / "grown.kr6"
        grown.write_bytes(raw + b"\x00")
        with pytest.raises(IndexCorruptionError, match="runs on to byte") as info:
            load_sharded(grown)
        assert info.value.section == header_of(path)["sections"].popitem()[0]
        for bad in (short, grown):
            assert not verify_file(bad)["ok"]

    def test_load_rejects_manifest_tamper(self, tmp_path, graph):
        """An edit to the header without re-signing fails its CRC32."""
        path = tmp_path / "m.kr6"
        save_sharded(partition_kreach(graph, 6, 2), path)
        raw = path.read_bytes()
        assert raw.count(b'"n":90') == 1
        path.write_bytes(raw.replace(b'"n":90', b'"n":91'))
        with pytest.raises(IndexCorruptionError, match="header checksum"):
            load_sharded(path)

    def test_load_rejects_out_of_range_shard_id(self, tmp_path, graph):
        """A same-size byte flip in shard_of must not reach routing."""
        path = tmp_path / "m.kr6"
        sharded = partition_kreach(graph, 6, 2)
        save_sharded(sharded, path)
        first = int(np.flatnonzero(sharded.shard_of >= 0)[0])

        def flip(shard_of):
            shard_of[first] = 7
            return shard_of

        bad = tampered_section(path, tmp_path / "bad.kr6", "shard_of", flip)
        with pytest.raises(IndexCorruptionError, match="'shard_of'") as info:
            load_sharded(bad)
        assert info.value.path == str(bad)
        assert info.value.section == "shard_of"

    def test_load_rejects_wrong_shape_table(self, tmp_path, graph):
        path = tmp_path / "m.kr6"
        sharded = partition_kreach(graph, 6, 2)
        save_sharded(sharded, path)
        narrow = resigned_section(
            path, tmp_path / "narrow.kr6", "exit", lambda arr: sharded.exit[:, :-1]
        )
        with pytest.raises(IndexCorruptionError, match="'exit'") as info:
            load_sharded(narrow, verify=True)
        assert info.value.section == "exit"

        def widen(header):
            header["sections"]["exit"]["dtype"] = "<i8"
            return header

        wide = tampered_header(path, tmp_path / "wide.kr6", widen)
        with pytest.raises(IndexCorruptionError, match="'exit'"):
            load_sharded(wide, verify=True)

    def test_load_rejects_vertex_map_disagreeing_with_shard(self, tmp_path, graph):
        path = tmp_path / "m.kr6"
        sharded = partition_kreach(graph, 6, 2)
        save_sharded(sharded, path)
        shard_of = sharded.shard_of.copy()
        shard_of[int(np.flatnonzero(shard_of == 0)[0])] = 1
        bad = resigned_section(
            path, tmp_path / "bad.kr6", "shard_of", lambda arr: shard_of
        )
        with pytest.raises(IndexCorruptionError, match="s0/graph_out_indptr") as info:
            load_sharded(bad, verify=True)
        assert info.value.section == "s0/graph_out_indptr"

    def test_v1_manifest_refused_by_version(self, tmp_path, graph):
        """A v1 shard-manifest directory is refused with the rebuild, by
        the loader and the audit alike."""
        directory = manifest_directory(
            partition_kreach(graph, 6, 2), tmp_path / "m", version=1
        )
        with pytest.raises(
            IndexCorruptionError,
            match="shard-manifest directories are no longer read — rebuild "
            "the index with partition_kreach \\+ save_sharded",
        ):
            load_sharded(directory)
        report = verify_file(directory)
        assert not report["ok"]
        assert report["format"] == "directory"
        assert "partition_kreach + save_sharded" in report["detail"]

    @pytest.mark.parametrize("forgery", sorted(FORGED_MANIFESTS))
    def test_forged_manifest_refused(self, tmp_path, signed_shards, forgery):
        """A re-signed header passes its CRC32, so the header and
        section-table checks are what must refuse it, naming the field,
        in the loader and the audit alike."""
        forge, field = FORGED_MANIFESTS[forgery]

        def mutate(header):
            forge(header)
            return header

        bad = tampered_header(signed_shards, tmp_path / "bad.kr6", mutate)
        with pytest.raises(IndexCorruptionError) as info:
            load_sharded(bad)
        assert info.value.section == field
        report = verify_file(bad)
        assert not report["ok"]
        assert field in report["detail"]

    def test_aborted_resave_keeps_previous_file(self, tmp_path):
        """A save aborted mid-payload over an existing file leaves it
        byte-identical: the routing tables of the new partition (same
        boundary, other portal distances) never meet the old shards."""
        g = gnp_digraph(400, 0.006, seed=5)
        old = partition_kreach(g, 6, 2)
        new = partition_kreach(g, 2, 2)
        assert np.array_equal(old.boundary, new.boundary)
        assert not np.array_equal(old.exit, new.exit)
        path = tmp_path / "shards.kr6"
        save_sharded(old, path)
        before = path.read_bytes()
        with faults.inject("serialize.v4_write_mid", "error"):
            with pytest.raises(faults.FaultInjected):
                save_sharded(new, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["shards.kr6"]
        pairs = random_pairs(g.n, 20000, rng=np.random.default_rng(1))
        loaded = load_sharded(path)
        assert loaded.k == 6
        assert np.array_equal(loaded.query_batch(pairs), old.query_batch(pairs))

    def test_manifest_directory_refused(self, tmp_path, graph):
        """The retired directory layout is refused with the rebuild by
        the loader, the server and the audit."""
        directory = manifest_directory(partition_kreach(graph, 6, 2), tmp_path / "m")
        rebuild = "rebuild the index with partition_kreach \\+ save_sharded"
        with pytest.raises(IndexCorruptionError, match=rebuild):
            load_sharded(directory)
        with pytest.raises(IndexCorruptionError, match=rebuild):
            ShardedQueryServer(directory, backend="thread")
        report = verify_file(directory)
        assert not report["ok"]
        assert "partition_kreach + save_sharded" in report["detail"]

    @pytest.mark.parametrize("k", [2, None])
    def test_load_mmap_opens_one_shard(self, tmp_path, graph, k):
        """``load_mmap(path, shard=i)`` answers like the shard that
        ``load_sharded`` opens; the wrong kind of call names the right
        one."""
        sharded = partition_kreach(graph, k, 2, cover=vertex_cover_2approx(graph))
        path = tmp_path / "shards.kr6"
        save_sharded(sharded, path)
        loaded = load_sharded(path)
        for i, shard in enumerate(loaded.shards):
            one = load_mmap(path, shard=i, validate=True, verify=True)
            local = np.stack(np.divmod(np.arange(shard.n**2), shard.n), axis=1)
            assert one.cover == shard.index.cover
            assert np.array_equal(
                one.query_case_batch(local), shard.index.query_case_batch(local)
            )
            assert np.array_equal(
                one.query_batch(local), sharded.shards[i].index.query_batch(local)
            )
        with pytest.raises(ValueError, match="load_sharded\\(path\\)"):
            load_mmap(path)
        for bad in (-1, 2, "0"):
            with pytest.raises(ValueError, match="shard must be"):
                load_mmap(path, shard=bad)
        plain = tmp_path / "plain.kr6"
        save_mmap(KReachIndex(graph, k), plain)
        with pytest.raises(ValueError, match="without shard="):
            load_mmap(plain, shard=0)
        with pytest.raises(ValueError, match="load_mmap\\(path\\)"):
            load_sharded(plain)
