"""The v6 index file: roundtrip, diagnostics, read-only serving.

The contract under test (see ``repro/core/serialize.py``):

* a ``save_mmap`` → ``load_mmap`` roundtrip answers bit-identically to
  the in-memory index, for both engines and every memory-gate path;
* files of the retired layouts raise :class:`ValueError` — v4 / v5
  index files naming their version, v6 files with a ``storage`` header
  field (the retired WAH rows) naming it, v2 / v3 npz dumps as bad
  magic;
* truncated files, corrupt headers, and bad section offsets raise
  :class:`ValueError` naming what is broken;
* the whole query path runs off ``mode='r'`` read-only pages without a
  single write fault — every lazily built structure is copy-on-build.

An index inside the memory gate saves its level planes, one past it the
CSR (the layout every file had before the planes).  Tests that name a
CSR section pin that layout with :func:`csr_index`; the plane layout
has its own tests in :class:`TestPlaneFile`.  Tests of a query path
build on the §4.3 cover (:func:`~tests.conftest.split_index`): on these
small graphs the default cover is all of V, where every pair is Case 1.
"""

import json
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.core.kreach import KReachIndex
from repro.core.vertex_cover import vertex_cover_2approx
from repro.core.serialize import (
    _MMAP_PROLOGUE,
    IndexCorruptionError,
    load_mmap,
    save_mmap,
    verify_file,
)
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnp_digraph, paper_example_graph
from tests.conftest import (
    assert_every_case,
    header_of,
    resigned_section,
    scalar_batch,
    split_index,
    tampered_header,
    tampered_section,
    vector_gate,
)


def saved(tmp_path, index, name="index.kr4"):
    path = tmp_path / name
    save_mmap(index, path)
    return path


def csr_index(g, k, **options):
    """An index past the memory gate: it is stored, and saved, as CSR."""
    return KReachIndex(g, k, bitset_matrix_bytes=0, **options)


def all_pairs(n):
    return np.array(
        [(s, t) for s in range(n) for t in range(n)], dtype=np.int64
    )


class TestRoundTrip:
    @pytest.mark.parametrize("k", [0, 2, 6, None])
    def test_answers_identical(self, tmp_path, k):
        g = gnp_digraph(40, 0.1, seed=2)
        index = split_index(g, k)
        loaded = load_mmap(saved(tmp_path, index))
        assert loaded.k == index.k
        assert loaded.cover == index.cover
        assert loaded.weighted_edges() == index.weighted_edges()
        pairs = all_pairs(g.n)
        assert_every_case(loaded, pairs)
        assert np.array_equal(loaded.query_batch(pairs), index.query_batch(pairs))
        for s, t in pairs[:200].tolist():
            assert loaded.query(s, t) == index.query(s, t)

    @pytest.mark.parametrize("k", [2, None])
    def test_v4_equals_v2_load(self, tmp_path, k):
        """The loaded index equals its source, embedded graph included."""
        g = gnp_digraph(35, 0.12, seed=5)
        index = split_index(g, k)
        loaded = load_mmap(saved(tmp_path, index))
        assert loaded.cover == index.cover
        assert loaded.index_graph == index.index_graph
        assert loaded.graph == g
        pairs = all_pairs(g.n)
        assert np.array_equal(loaded.query_batch(pairs), index.query_batch(pairs))

    def test_paper_example(self, tmp_path):
        g = paper_example_graph()
        ids = {lab: g.vertex_id(lab) for lab in "abcdefghij"}
        index = KReachIndex(g, 3, cover=frozenset(ids[x] for x in "bdgi"))
        loaded = load_mmap(saved(tmp_path, index))
        assert loaded.query(ids["c"], ids["f"]) is True
        assert loaded.query(ids["c"], ids["h"]) is False

    def test_validate_mode_accepts_good_dump(self, tmp_path):
        g = gnp_digraph(30, 0.15, seed=7)
        index = KReachIndex(g, 4)
        loaded = load_mmap(saved(tmp_path, index), validate=True)
        assert loaded.weighted_edges() == index.weighted_edges()

    def test_empty_cover_roundtrip(self, tmp_path):
        g = gnp_digraph(6, 0.0, seed=1)  # edgeless graph, empty cover
        index = KReachIndex(g, 3)
        loaded = load_mmap(saved(tmp_path, index))
        assert loaded.edge_count == 0
        pairs = all_pairs(g.n)
        assert np.array_equal(loaded.query_batch(pairs), index.query_batch(pairs))


def as_old_layout(path, out_path, version):
    """Rewrite a v6 file's prologue and header in the v4 or v5 layout.

    v5 had v6's 20-byte prologue (magic, header length, header CRC32);
    v4 had a 16-byte one and no checksums anywhere.  Both also stored
    sorted-key and int64-weight sections, but the reader refuses them
    at the magic, before any section is read.
    """
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[_MMAP_PROLOGUE : _MMAP_PROLOGUE + hlen])
    header["format_version"] = version
    if version == 4:
        for section in header["sections"].values():
            section.pop("crc32")
    blob = json.dumps(header, separators=(",", ":")).encode()
    prologue = b"KREACH%d\x00" % version + len(blob).to_bytes(8, "little")
    if version == 5:
        prologue += zlib.crc32(blob).to_bytes(4, "little")
    old_base = (_MMAP_PROLOGUE + hlen + 63) // 64 * 64
    new_base = (len(prologue) + len(blob) + 63) // 64 * 64
    out_path.write_bytes(
        prologue
        + blob
        + b"\x00" * (new_base - len(prologue) - len(blob))
        + raw[old_base:]
    )
    return out_path


def npz_dump(path, version):
    """A compressed npz shaped like a retired v2 (static) or v3 (dynamic)
    dump: a zip archive, so no index-file magic."""
    np.savez_compressed(
        path, format_version=np.int64(version), log=np.zeros((0, 3), np.int64)
    )
    return path


class TestCrossVersion:
    """Files of every retired layout are refused with a ValueError."""

    def test_v2_rejected_by_load_mmap(self, tmp_path):
        path = npz_dump(tmp_path / "static.npz", 2)
        with pytest.raises(ValueError, match="bad magic"):
            load_mmap(path)

    def test_v3_rejected_by_load_mmap(self, tmp_path):
        path = npz_dump(tmp_path / "dyn.npz", 3)
        with pytest.raises(ValueError, match="bad magic"):
            load_mmap(path)
        assert not verify_file(path)["ok"]

    @pytest.mark.parametrize("version", [4, 5])
    def test_old_layout_refused_by_version(self, tmp_path, version):
        index = KReachIndex(gnp_digraph(20, 0.1, seed=3), 3)
        old = as_old_layout(saved(tmp_path, index), tmp_path / "old.kr", version)
        with pytest.raises(
            ValueError, match=f"v{version} k-reach index file.*save_mmap"
        ):
            load_mmap(old)
        report = verify_file(old)
        assert not report["ok"]
        assert report["format"] == f"v{version} index file"

    def test_wah_storage_header_refused(self, tmp_path):
        """Only ``storage='wah'`` ever wrote a ``storage`` header field;
        such a file is refused with the fix, and audited as not ok."""
        index = KReachIndex(gnp_digraph(20, 0.1, seed=3), 3)
        old = tampered_header(
            saved(tmp_path, index),
            tmp_path / "wah.kr",
            lambda h: {**h, "storage": "wah"},
        )
        with pytest.raises(
            IndexCorruptionError, match="'wah' row storage.*rebuild.*save_mmap"
        ):
            load_mmap(old)
        report = verify_file(old)
        assert not report["ok"]
        assert "save_mmap" in report["detail"]

    def test_dense_file_has_no_storage_field(self, tmp_path):
        path = saved(tmp_path, KReachIndex(gnp_digraph(30, 0.1, seed=17), 2))
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[_MMAP_PROLOGUE : _MMAP_PROLOGUE + hlen])
        assert "storage" not in header


#: Re-signed forgeries of a plain file's header -> (forgery, the field
#: or section the refusal names).  Every header scalar and section entry
#: must be a JSON integer in range, and the table must name exactly the
#: layout's sections.
FORGED_HEADERS = {
    "k-list": (lambda h: h.update(k=[1]), "k"),
    "k-float": (lambda h: h.update(k=1.5), "k"),
    "k-negative": (lambda h: h.update(k=-5), "k"),
    "k-bool": (lambda h: h.update(k=True), "k"),
    "k-dropped": (lambda h: h.pop("k"), "k"),
    "n-string": (lambda h: h.update(n="60"), "n"),
    "n-float": (lambda h: h.update(n=float(h["n"])), "n"),
    "weight_bits-zero": (lambda h: h.update(weight_bits=0), "weight_bits"),
    "weight_base-string": (lambda h: h.update(weight_base="1"), "weight_base"),
    "layout-list": (lambda h: h.update(layout=["planes"]), "layout"),
    "kind-sharded": (lambda h: h.update(kind="kreach-shards"), "shards"),
    "offset-float": (
        lambda h: h["sections"]["cover_ids"].update(
            offset=float(h["sections"]["cover_ids"]["offset"])
        ),
        "cover_ids",
    ),
    "crc32-dropped": (lambda h: h["sections"]["cover_ids"].pop("crc32"), "cover_ids"),
    "extra-section": (
        lambda h: h["sections"].update(extra=dict(h["sections"]["cover_ids"])),
        "extra",
    ),
    "payload_bytes-string": (
        lambda h: h.update(payload_bytes=str(h["payload_bytes"])),
        "payload_bytes",
    ),
}


class TestCorruption:
    @pytest.fixture()
    def path(self, tmp_path):
        return saved(tmp_path, KReachIndex(gnp_digraph(25, 0.12, seed=6), 3))

    @pytest.mark.parametrize("forgery", sorted(FORGED_HEADERS))
    def test_forged_header_refused(self, tmp_path, path, forgery, capsys):
        """A re-signed header passes its CRC32, so the one header check
        must refuse it with the typed error naming the field, in the
        loader, the audit and ``kreach-bench verify`` alike."""
        from repro.cli import main as cli_main

        forge, field = FORGED_HEADERS[forgery]

        def mutate(header):
            forge(header)
            return header

        bad = tampered_header(path, tmp_path / "forged.kr", mutate)
        with pytest.raises(IndexCorruptionError) as info:
            load_mmap(bad)
        assert info.value.section == field
        report = verify_file(bad)
        assert not report["ok"]
        assert field in report["detail"]
        assert cli_main(["verify", str(bad)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_grown_file_refused(self, tmp_path, path):
        """A file must end where its last section does."""
        grown = tmp_path / "grown.kr"
        grown.write_bytes(path.read_bytes() + b"\x00" * 64)
        with pytest.raises(IndexCorruptionError, match="runs on to byte") as info:
            load_mmap(grown)
        assert info.value.section == "level_planes"
        assert not verify_file(grown)["ok"]

    @pytest.fixture()
    def csr_path(self, tmp_path):
        return saved(tmp_path, csr_index(gnp_digraph(25, 0.12, seed=6), 3))

    def test_truncated_prologue(self, tmp_path, path):
        stub = tmp_path / "stub.kr4"
        stub.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match="prologue"):
            load_mmap(stub)

    def test_bad_magic(self, tmp_path, path):
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTKREAC"
        bad = tmp_path / "bad.kr4"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            load_mmap(bad)

    def test_corrupt_header_length(self, tmp_path, path):
        raw = bytearray(path.read_bytes())
        raw[8:16] = (1 << 40).to_bytes(8, "little")
        bad = tmp_path / "len.kr4"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="header length"):
            load_mmap(bad)

    def test_corrupt_header_json(self, tmp_path, path):
        raw = bytearray(path.read_bytes())
        hlen = int.from_bytes(raw[8:16], "little")
        raw[_MMAP_PROLOGUE : _MMAP_PROLOGUE + hlen] = b"{" * hlen
        bad = tmp_path / "json.kr4"
        bad.write_bytes(bytes(raw))
        # Garbled header bytes are caught by the always-on header CRC
        # before the JSON parser ever sees them.
        with pytest.raises(ValueError, match="header checksum"):
            load_mmap(bad)

    def test_unsupported_version(self, tmp_path, path):
        bad = tampered_header(
            path, tmp_path / "v9.kr4",
            lambda h: {**h, "format_version": 9},
        )
        with pytest.raises(ValueError, match="version 9"):
            load_mmap(bad)

    @pytest.mark.parametrize("header", [[1], "x", None, 3])
    def test_header_not_an_object(self, tmp_path, path, header):
        """A CRC-valid header whose JSON is not an object is refused
        with the typed error, and audited as not ok."""
        bad = tampered_header(path, tmp_path / "shape.kr4", lambda h: header)
        with pytest.raises(ValueError, match="corrupt header.*not a JSON object"):
            load_mmap(bad)
        report = verify_file(bad)
        assert not report["ok"]
        assert "not a JSON object" in report["detail"]

    def test_missing_section(self, tmp_path, csr_path):
        def mutate(h):
            del h["sections"]["index_targets"]
            return h

        bad = tampered_header(csr_path, tmp_path / "missing.kr4", mutate)
        with pytest.raises(ValueError, match="missing section 'index_targets'"):
            load_mmap(bad)
        # Every listed section still checks out; the audit must open it.
        report = verify_file(bad)
        assert not report["ok"] and "missing section" in report["detail"]

    def test_bad_offset_runs_past_eof(self, tmp_path, csr_path):
        def mutate(h):
            h["sections"]["index_targets"]["offset"] += 1 << 24
            return h

        bad = tampered_header(csr_path, tmp_path / "offset.kr4", mutate)
        with pytest.raises(ValueError, match="truncated.*'index_targets'"):
            load_mmap(bad)

    def test_misaligned_offset(self, tmp_path, path):
        def mutate(h):
            h["sections"]["cover_ids"]["offset"] += 8
            return h

        bad = tampered_header(path, tmp_path / "align.kr4", mutate)
        with pytest.raises(ValueError, match="'cover_ids' has a misaligned offset"):
            load_mmap(bad)

    def test_wrong_dtype(self, tmp_path, csr_path):
        def mutate(h):
            h["sections"]["weight_words"]["dtype"] = "<i4"
            return h

        bad = tampered_header(csr_path, tmp_path / "dtype.kr4", mutate)
        with pytest.raises(ValueError, match="'weight_words' declares dtype"):
            load_mmap(bad)

    def test_truncated_payload(self, tmp_path, path):
        raw = path.read_bytes()
        bad = tmp_path / "trunc.kr4"
        bad.write_bytes(raw[: len(raw) - (len(raw) // 4)])
        with pytest.raises(ValueError, match="truncated"):
            load_mmap(bad)

    def test_inconsistent_indptr(self, tmp_path, csr_path):
        def mutate(h):
            h["sections"]["index_indptr"]["count"] -= 1
            return h

        bad = tampered_header(csr_path, tmp_path / "indptr.kr4", mutate)
        with pytest.raises(ValueError, match="'index_indptr'"):
            load_mmap(bad)

    def test_corrupt_cover_id_rejected_at_open(self, tmp_path, path):
        """A flipped sign bit in cover_ids must fail loudly at open, not
        silently corrupt the cover-flag scatter."""

        def negate_first(arr):
            arr[0] = -arr[-1] - 1  # negative id; count/dtype/alignment still fine
            return arr

        bad = tampered_section(
            path, tmp_path / "cover.kr4", "cover_ids", negate_first
        )
        with pytest.raises(ValueError, match="'cover_ids'"):
            load_mmap(bad)

    def test_validate_catches_tampered_rows(self, tmp_path, csr_path):
        # Reverse the target array: structurally plausible (every O(1)
        # header check passes) but the rows are no longer sorted.
        bad = tampered_section(
            csr_path, tmp_path / "rows.kr4", "index_targets", lambda a: a[::-1]
        )
        with pytest.raises(ValueError):
            load_mmap(bad, validate=True)

    def test_bad_mode_rejected(self, path):
        with pytest.raises(ValueError, match="mode"):
            load_mmap(path, mode="r+")


class TestReadOnlyServing:
    """Every query path runs off mode='r' pages with no write fault."""

    @pytest.mark.parametrize("k", [2, 6, None])
    @pytest.mark.parametrize(
        "path", [None, "bitset", "chunked"], ids=["scalar", "bitset", "chunked"]
    )
    def test_engine_matrix(self, tmp_path, k, path):
        g = gnp_digraph(45, 0.09, seed=9)
        index = split_index(g, k)
        gate = {} if path is None else {"bitset_matrix_bytes": vector_gate(index, path)}
        stored = csr_index(g, k, cover=index.cover)
        loaded = load_mmap(saved(tmp_path, stored), mode="r", **gate)
        # The mapped arrays really are read-only...
        ig = loaded.index_graph
        for arr in (ig.cover_ids, ig.indptr, ig.targets, ig.packed.words,
                    loaded.graph.out_indices):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            ig.targets[0] = 0
        # ...and every path runs without a write fault: the per-pair
        # query loop, or query_batch past the gate.
        loaded.prepare_batch()
        pairs = all_pairs(g.n)
        assert_every_case(loaded, pairs)
        expected = index.query_batch(pairs)
        got = scalar_batch(loaded, pairs) if path is None else loaded.query_batch(pairs)
        assert np.array_equal(got, expected)
        for s, t in pairs[: 3 * g.n].tolist():
            assert loaded.query(s, t) == index.query(s, t)

    def test_read_only_in_memory_structures(self):
        """HKReach and the distance oracle also tolerate frozen arrays."""
        from repro.core.general_k import CoverDistanceOracle
        from repro.core.hkreach import HKReachIndex

        g = gnp_digraph(40, 0.1, seed=11)
        pairs = all_pairs(g.n)
        hk = HKReachIndex(g, 2, 6)
        oracle = CoverDistanceOracle(g)
        reference_hk = hk.query_batch(pairs).copy()
        reference_d = oracle.distance_batch(pairs).copy()
        for ig in (hk.index_graph, oracle.index_graph):
            for arr in (ig.cover_ids, ig.indptr, ig.targets, ig.packed.words):
                arr.setflags(write=False)
        for g_arr in (g.out_indptr, g.out_indices, g.in_indptr, g.in_indices):
            g_arr.setflags(write=False)
        hk2 = HKReachIndex(g, 2, 6, cover=hk.cover)
        # run against the frozen arrays of the original structures
        assert hk._bitset_ready()
        assert np.array_equal(hk.query_batch(pairs), reference_hk)
        assert np.array_equal(scalar_batch(hk, pairs), reference_hk)
        assert np.array_equal(oracle.distance_batch(pairs), reference_d)
        assert np.array_equal(
            oracle.reaches_within_batch(pairs, 4), reference_d <= 4
        )
        assert np.array_equal(hk2.query_batch(pairs), reference_hk)


class TestOpenCost:
    def test_open_does_not_materialize_adjacency(self, tmp_path):
        """The O(header) open must not build the O(n) adjacency lists,
        nor derive any O(|E_I|) view of the stored arrays."""
        g = gnp_digraph(60, 0.08, seed=12)
        index = KReachIndex(g, 3, cover=vertex_cover_2approx(g))
        loaded = load_mmap(saved(tmp_path, index))
        assert loaded._out_lists is None and loaded._in_lists is None
        assert loaded._scalar is None
        ig = loaded.index_graph
        assert ig._keys is None and ig._store is None and ig._weights64 is None
        assert not ig._matrices
        assert loaded.query(0, 1) in (True, False)  # lazily built on use

    def test_case1_query_skips_adjacency_build(self, tmp_path):
        """A covered-pair scalar query needs no O(n + m) adjacency lists."""
        g = gnp_digraph(60, 0.08, seed=12)
        index = KReachIndex(g, 3, cover=vertex_cover_2approx(g))
        loaded = load_mmap(saved(tmp_path, index))
        u, v = sorted(loaded.cover)[:2]
        assert loaded.query(u, v) in (True, False)  # Case 1
        assert loaded._out_lists is None and loaded._in_lists is None
        uncovered = next(x for x in range(g.n) if x not in loaded.cover)
        loaded.query(u, uncovered)  # Case 2 builds only the in-direction
        assert loaded._in_lists is not None and loaded._out_lists is None

    def test_zero_copy_views(self, tmp_path):
        """Loaded arrays are views into one shared mapping, not copies."""
        import mmap

        g = gnp_digraph(30, 0.1, seed=13)
        loaded = load_mmap(saved(tmp_path, csr_index(g, 3)))
        ig = loaded.index_graph
        bases = {
            id(arr.base)
            for arr in (
                ig.cover_ids,
                ig.indptr,
                ig.targets,
                ig.packed.words,
                loaded.graph.out_indices,
            )
        }
        assert len(bases) == 1  # one buffer backs them all...
        raw = ig.cover_ids.base.base  # ...and that buffer is the mapping
        assert isinstance(raw, memoryview) and isinstance(raw.obj, mmap.mmap)


class TestPlaneFile:
    """The plane layout: what an index inside the memory gate saves."""

    @pytest.fixture()
    def graph(self):
        return gnp_digraph(90, 0.05, seed=21)  # §4.3 cover: 78, two-word rows

    @pytest.fixture()
    def path(self, tmp_path, graph):
        return saved(tmp_path, split_index(graph, 3), "planes.kr")

    @pytest.mark.parametrize("k", [0, 1, 2, 6, None])
    def test_layout_and_size(self, tmp_path, graph, k):
        index = split_index(graph, k)
        header = header_of(saved(tmp_path, index))
        assert header["layout"] == "planes"
        assert set(header["sections"]) == {
            "graph_out_indptr", "graph_out_indices", "graph_in_indptr",
            "graph_in_indices", "cover_ids", "level_planes",
        }
        words = (index.cover_size + 63) // 64
        levels = 1 if k is None else 3
        assert header["sections"]["level_planes"]["count"] == (
            levels * index.cover_size * words
        )
        csr = header_of(saved(tmp_path, csr_index(graph, k), "csr.kr"))
        assert csr["layout"] == "csr" and "level_planes" not in csr["sections"]

    @pytest.mark.parametrize("k", [2, 6, None])
    def test_round_trip_shares_the_mapping(self, tmp_path, graph, k):
        """The loaded level stack is the mapping itself: no view is
        built, and the answers are bit-identical."""
        import mmap

        index = split_index(graph, k)
        loaded = load_mmap(saved(tmp_path, index), mode="r").prepare_batch()
        ig = loaded.index_graph
        assert ig._targets is None and not ig._matrices
        raw = np.frombuffer(ig.cover_ids.base.base.obj, dtype=np.uint8)
        assert isinstance(ig.cover_ids.base.base.obj, mmap.mmap)
        for plane in loaded._batch_views()[0]:
            assert not plane.flags.writeable
            assert np.shares_memory(plane, raw)
        with pytest.raises(ValueError):
            ig.levels[0][0, 0] = 0
        pairs = all_pairs(graph.n)
        assert_every_case(loaded, pairs)
        assert np.array_equal(loaded.query_batch(pairs), index.query_batch(pairs))
        for s, t in pairs[:: 7].tolist():
            assert loaded.query(s, t) == index.query(s, t)
            assert loaded.weight(s, t) == index.weight(s, t)
        assert loaded.edge_count == index.edge_count
        assert ig._targets is None  # no scalar probe derived the CSR
        assert loaded.index_graph == index.index_graph

    def test_audit_reads_the_mapped_sections(self, tmp_path):
        """``verify_file`` checks each section's CRC32 on its mapped view
        (the loader's parser): auditing a 9 MiB plane file allocates
        under 1 MiB, and the report lists the header, then every section
        in file order."""
        n = 5000  # all of V in the cover: three 5000 x 79-word planes
        path = saved(tmp_path, KReachIndex(DiGraph(n), 3, cover=range(n)))
        assert path.stat().st_size >= 8 << 20
        tracemalloc.start()
        try:
            report = verify_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["ok"], report
        assert peak < 1 << 20, peak
        rows = report["sections"]
        assert rows[0]["name"] == "<header>"
        assert [row["name"] for row in rows[1:]] == list(header_of(path)["sections"])
        offsets = [row["offset"] for row in rows]
        assert offsets == sorted(offsets)
        fields = {"name", "bytes", "offset", "stored", "computed", "status"}
        assert all(set(row) == fields for row in rows)

    @pytest.mark.parametrize("k", [2, 6, None])
    def test_csr_file_still_opens(self, tmp_path, graph, k):
        """A CSR-layout file (the only layout before the planes, with no
        ``layout`` header field) opens and answers the same."""
        index = split_index(graph, k)
        path = saved(tmp_path, csr_index(graph, k, cover=index.cover), "csr.kr")
        old = tampered_header(
            path, tmp_path / "old.kr",
            lambda h: {key: v for key, v in h.items() if key != "layout"},
        )
        for source in (path, old):
            loaded = load_mmap(source, validate=True)
            assert loaded.index_graph.levels is None
            assert loaded.index_graph == index.index_graph
            pairs = all_pairs(graph.n)
            assert np.array_equal(loaded.query_batch(pairs), index.query_batch(pairs))
            assert verify_file(source)["ok"]

    def test_gate_caps_only_private_views(self, tmp_path, graph):
        """``bitset_matrix_bytes`` caps the views a process would build:
        mapped planes stay the level stack at any setting, while a CSR
        file past the gate builds none."""
        index = split_index(graph, 6)
        pairs = all_pairs(graph.n)
        loaded = load_mmap(saved(tmp_path, index), bitset_matrix_bytes=0)
        assert loaded._batch_views()[0] is not None
        assert not loaded.index_graph._matrices
        assert np.array_equal(loaded.query_batch(pairs), index.query_batch(pairs))
        csr = load_mmap(
            saved(tmp_path, csr_index(graph, 6, cover=index.cover), "csr.kr"),
            bitset_matrix_bytes=0,
        )
        assert csr._batch_views()[0] is None and csr._batch_views()[1] is None
        assert np.array_equal(csr.query_batch(pairs), index.query_batch(pairs))

    def test_missing_plane_section(self, tmp_path, path):
        def mutate(h):
            del h["sections"]["level_planes"]
            return h

        bad = tampered_header(path, tmp_path / "missing.kr", mutate)
        with pytest.raises(IndexCorruptionError, match="missing section 'level_planes'"):
            load_mmap(bad)
        assert not verify_file(bad)["ok"]

    def test_truncated_plane_section(self, tmp_path, path):
        raw = path.read_bytes()
        bad = tmp_path / "trunc.kr"
        bad.write_bytes(raw[:-8])
        with pytest.raises(IndexCorruptionError, match="truncated.*'level_planes'"):
            load_mmap(bad)
        assert not verify_file(bad)["ok"]

    @pytest.mark.parametrize("field", ["k", "count"])
    def test_plane_shape_disagrees(self, tmp_path, path, field):
        def mutate(h):
            if field == "k":
                h["k"] = None  # 3 planes stored, n-reach has 1
            else:
                h["sections"]["level_planes"]["count"] -= 1
                h["payload_bytes"] -= 8
            return h

        bad = tampered_header(path, tmp_path / "shape.kr", mutate)
        with pytest.raises(IndexCorruptionError, match="'level_planes'"):
            load_mmap(bad)
        assert not verify_file(bad)["ok"]

    def test_unknown_layout(self, tmp_path, path):
        bad = tampered_header(path, tmp_path / "layout.kr", lambda h: {**h, "layout": "x"})
        with pytest.raises(ValueError, match="unknown layout"):
            load_mmap(bad)
        assert not verify_file(bad)["ok"]

    @pytest.mark.parametrize(
        "damage,match",
        [
            ("nesting", "contain the plane below"),
            ("diagonal", "diagonal"),
            ("padding", "padding"),
        ],
    )
    def test_validate_rejects_bad_planes(self, tmp_path, path, damage, match):
        """Planes re-signed with valid checksums but broken invariants
        open without ``validate`` (O(header)) and fail with it."""
        header = header_of(path)
        size = len(load_mmap(path).cover)
        words = (size + 63) // 64

        def transform(arr):
            planes = arr.reshape(3, size, words)
            if damage == "nesting":
                planes[0, 0, 0] |= ~planes[1, 0, 0]
            elif damage == "diagonal":
                planes[2, 1, 0] &= ~np.uint64(2)
            else:
                planes[1, 0, -1] |= np.uint64(1) << np.uint64(63)
            return planes.reshape(-1)

        resigned = resigned_section(
            path, tmp_path / "bad.kr", "level_planes", transform
        )
        assert header["sections"]["level_planes"]["count"] == 3 * size * words
        assert size % 64  # the padding damage lands past |S|
        load_mmap(resigned)  # the O(header) open does not scan payloads
        with pytest.raises(ValueError, match=match):
            load_mmap(resigned, validate=True)
        report = verify_file(resigned)
        assert not report["ok"]
        assert match.split()[0] in report["detail"]
