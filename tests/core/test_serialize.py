"""Index persistence round trips on the one file format.

A static index round-trips through ``save_mmap`` → ``load_mmap``; a
dynamic index persists as its base snapshot plus an ``OpLog`` journal
and comes back through ``recover_dynamic``.  The format's own
diagnostics (header, sections, checksums) are pinned in
``test_serialize_mmap.py`` and ``test_crash_recovery.py``.  Tests that
tamper with a CSR section build their index past the memory gate
(``bitset_matrix_bytes=0``), which saves the CSR layout rather than the
level planes.
"""

import numpy as np
import pytest

from repro.core.dynamic import OP_INSERT, DynamicKReachIndex
from repro.core.kreach import KReachIndex
from repro.core.serialize import (
    OpLog,
    load_mmap,
    read_oplog,
    recover_dynamic,
    save_mmap,
)
from repro.graph.generators import gnp_digraph, paper_example_graph, path_graph
from tests.conftest import tampered_header, tampered_section


def round_trip(tmp_path, index):
    path = tmp_path / "index.kr6"
    save_mmap(index, path)
    return load_mmap(path, validate=True)


class TestRoundTrip:
    @pytest.mark.parametrize("k", [0, 2, 5, None])
    def test_answers_identical(self, tmp_path, k):
        g = gnp_digraph(30, 0.12, seed=2)
        index = KReachIndex(g, k)
        loaded = round_trip(tmp_path, index)
        assert loaded.k == index.k
        assert loaded.cover == index.cover
        assert loaded.weighted_edges() == index.weighted_edges()
        for s in range(g.n):
            for t in range(g.n):
                assert loaded.query(s, t) == index.query(s, t), (k, s, t)

    def test_graph_embedded(self, tmp_path):
        g = path_graph(8)
        loaded = round_trip(tmp_path, KReachIndex(g, 3))
        assert loaded.graph == g

    def test_paper_example_round_trip(self, tmp_path):
        g = paper_example_graph()
        ids = {lab: g.vertex_id(lab) for lab in "abcdefghij"}
        index = KReachIndex(g, 3, cover=frozenset(ids[x] for x in "bdgi"))
        loaded = round_trip(tmp_path, index)
        assert loaded.weighted_edges() == index.weighted_edges()
        assert loaded.query(ids["c"], ids["f"]) is True
        assert loaded.query(ids["c"], ids["h"]) is False

    def test_version_check(self, tmp_path):
        path = tmp_path / "index.kr6"
        save_mmap(KReachIndex(path_graph(4), 2), path)
        tampered_header(path, path, lambda h: {**h, "format_version": 99})
        with pytest.raises(ValueError, match="version"):
            load_mmap(path)


class TestLoadValidation:
    def test_corrupted_index_arrays_rejected(self, tmp_path):
        path = tmp_path / "index.kr6"
        g = gnp_digraph(20, 0.15, seed=6)
        save_mmap(KReachIndex(g, 3, bitset_matrix_bytes=0), path)
        # Reversed targets: every row unsorted, every header check intact.
        tampered_section(path, path, "index_targets", lambda a: a[::-1])
        with pytest.raises(ValueError, match="ascending|indptr|range"):
            load_mmap(path, validate=True)

    def test_truncated_indptr_rejected(self, tmp_path):
        path = tmp_path / "index.kr6"
        g = gnp_digraph(20, 0.15, seed=6)
        save_mmap(KReachIndex(g, 3, bitset_matrix_bytes=0), path)
        def mutate(h):
            h["sections"]["index_indptr"]["count"] = 0
            return h

        tampered_header(path, path, mutate)
        with pytest.raises(ValueError):
            load_mmap(path)


# ----------------------------------------------------------------------
# Dynamic indexes: base snapshot + journaled delta log
# ----------------------------------------------------------------------
def churned_dynamic(k=3, *, n=20, seed=3, steps=25, auto_compact=False, **options):
    """A dynamic index with a non-trivial overlay and pending log."""
    g = gnp_digraph(n, 0.12, seed=seed)
    dyn = DynamicKReachIndex(g, k, auto_compact=auto_compact, **options)
    rng = np.random.default_rng(seed)
    edges = list(g.edges())
    for _ in range(steps):
        if edges and rng.random() < 0.4:
            u, v = edges.pop(int(rng.integers(0, len(edges))))
            dyn.delete_edge(u, v)
        else:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v and (u, v) not in edges:
                dyn.insert_edge(u, v)
                edges.append((u, v))
    return dyn


def persist(tmp_path, dyn):
    """Write ``dyn`` at rest: its base as an index file, its log as a journal."""
    base, log = tmp_path / "base.kr6", tmp_path / "updates.krlog"
    save_mmap(dyn.base, base)
    with OpLog(log, fsync=False) as journal:
        journal.extend(dyn.pending_log())
    return base, log


def all_pairs(n):
    return np.array([(s, t) for s in range(n) for t in range(n)], dtype=np.int64)


class TestDynamicRoundTrip:
    @pytest.mark.parametrize("k", [2, 3, None])
    def test_mid_churn_roundtrip(self, tmp_path, k):
        dyn = churned_dynamic(k)
        assert dyn.pending_ops > 0  # the journal must carry a real log
        loaded = recover_dynamic(
            *persist(tmp_path, dyn),
            compaction_ratio=dyn.compaction_ratio,
            auto_compact=dyn.auto_compact,
        )
        n = dyn.n
        pairs = all_pairs(n)
        assert np.array_equal(loaded.query_batch(pairs), dyn.query_batch(pairs))
        assert loaded.pending_ops == dyn.pending_ops
        assert loaded.cover_size == dyn.cover_size
        assert loaded.edge_count == dyn.edge_count
        assert loaded.compaction_ratio == dyn.compaction_ratio
        assert loaded.auto_compact == dyn.auto_compact
        # the recovered index keeps serving updates
        loaded.insert_edge(0, n - 1)
        dyn.insert_edge(0, n - 1)
        assert np.array_equal(loaded.query_batch(pairs), dyn.query_batch(pairs))

    @pytest.mark.parametrize("k", [2, 3, None])
    def test_plane_base_recovers_like_csr_base(self, tmp_path, k):
        """The same journal replayed over a plane-layout base and over a
        CSR-layout base of the same snapshot gives the same index."""
        dyn = churned_dynamic(k)
        assert dyn.base.index_graph.levels is not None
        base, log = persist(tmp_path, dyn)
        csr = tmp_path / "csr.kr6"
        snapshot = dyn.base
        rebuilt = KReachIndex(
            snapshot.graph, k, cover=snapshot.cover, bitset_matrix_bytes=0
        )
        assert rebuilt.index_graph == snapshot.index_graph
        save_mmap(rebuilt, csr)
        planes = recover_dynamic(base, log)
        rows = recover_dynamic(csr, log)
        assert planes.base.index_graph.levels is not None
        assert rows.base.index_graph.levels is None
        pairs = all_pairs(dyn.n)
        want = dyn.query_batch(pairs)
        assert np.array_equal(planes.query_batch(pairs), want)
        assert np.array_equal(rows.query_batch(pairs), want)
        assert planes.edge_count == rows.edge_count == dyn.edge_count
        assert planes.freeze().index_graph == rows.freeze().index_graph

    def test_settled_roundtrip_has_empty_log(self, tmp_path):
        dyn = churned_dynamic(3)
        dyn.compact()
        base, log = persist(tmp_path, dyn)
        assert len(read_oplog(log)) == 0
        loaded = recover_dynamic(base, log)
        assert loaded.pending_ops == 0
        pairs = all_pairs(dyn.n)
        assert np.array_equal(loaded.query_batch(pairs), dyn.query_batch(pairs))

    def test_version_cross_errors(self, tmp_path):
        """Swapping the base and the journal is diagnosed, not replayed."""
        base, log = persist(tmp_path, churned_dynamic(3))
        with pytest.raises(ValueError, match="bad magic"):
            recover_dynamic(log, base)
        with pytest.raises(ValueError, match="not a k-reach op log"):
            read_oplog(base)


class TestDynamicCorruption:
    def test_truncated_file(self, tmp_path):
        base, log = persist(tmp_path, churned_dynamic(3))
        raw = base.read_bytes()
        base.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match="truncated"):
            recover_dynamic(base, log)

    def test_unknown_op_code(self, tmp_path):
        base, log = persist(tmp_path, churned_dynamic(3))
        with OpLog(log, fsync=False) as journal:  # valid CRC, bad content
            journal.append(7, 0, 1)
        with pytest.raises(ValueError, match="unknown op code"):
            recover_dynamic(base, log)

    def test_log_vertex_out_of_range(self, tmp_path):
        dyn = churned_dynamic(3)
        base, log = persist(tmp_path, dyn)
        with OpLog(log, fsync=False) as journal:  # valid CRC, bad content
            journal.append(OP_INSERT, 0, dyn.n + 5)
        with pytest.raises(ValueError, match="out of range"):
            recover_dynamic(base, log)

    def test_corrupt_base_csr_rejected(self, tmp_path):
        base, log = persist(tmp_path, churned_dynamic(3, bitset_matrix_bytes=0))

        def break_indptr(indptr):
            indptr[1] = -4  # breaks monotonicity / bounds
            return indptr

        tampered_section(base, base, "index_indptr", break_indptr)
        with pytest.raises(ValueError):
            recover_dynamic(base, log)

    def test_missing_field(self, tmp_path):
        base, log = persist(tmp_path, churned_dynamic(3, bitset_matrix_bytes=0))
        def mutate(h):
            del h["sections"]["weight_words"]
            return h

        tampered_header(base, base, mutate)
        with pytest.raises(ValueError, match="missing section 'weight_words'"):
            recover_dynamic(base, log)

    def test_bitset_matrix_bytes_roundtrips(self, tmp_path):
        """The memory gate is a deployment setting, not part of the file:
        pass it to load_mmap before wrapping the base."""
        g = gnp_digraph(20, 0.15, seed=4)
        dyn = DynamicKReachIndex(g, 3, bitset_matrix_bytes=0)
        dyn.insert_edge(0, 19)
        assert dyn._batch_views() == (None, None)  # ceiling gates the views off
        base, log = persist(tmp_path, dyn)
        loaded = DynamicKReachIndex.from_base(
            load_mmap(base, mode="c", validate=True, bitset_matrix_bytes=0)
        )
        loaded.replay(read_oplog(log))
        assert loaded.bitset_matrix_bytes == 0
        assert loaded.base.bitset_matrix_bytes == 0
        assert loaded._batch_views() == (None, None)  # still gated after reload
        pairs = all_pairs(g.n)
        assert np.array_equal(loaded.query_batch(pairs), dyn.query_batch(pairs))
