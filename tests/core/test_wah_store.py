"""WAH compressed row-store tests (``storage='wah'``).

Three layers under test, each differential against its dense twin:

* the vectorized WAH codec (:func:`encode_bits` word-identical to the
  reference loop encoder, decode round-trips);
* :class:`WahRowStore` keeping :class:`KeyedRowStore`'s exact ``lookup``
  contract, and :class:`WahBitMatrix` keeping the dense link-matrix
  semantics through the Case-4 bitset join;
* a ``storage='wah'`` index answering bit-identically to dense on every
  batch path (the Case-4 bitset join, the chunked cross products under
  a zero memory gate, the scalar loop), surviving a v6 mmap round-trip,
  and staying out of the dynamic tier (which requires dense rows).
"""

import numpy as np
import pytest

from repro.bitsets.wah import (
    WahBitMatrix,
    WahBitVector,
    decode_bits,
    decode_indices,
    encode_bits,
)
from repro.core.batch import MISSING_WEIGHT, KeyedRowStore
from repro.core.dynamic import DynamicKReachIndex
from repro.core.kreach import KReachIndex
from repro.core.rowstore import WahRowStore
from repro.core.serialize import load_mmap, save_mmap
from repro.graph.generators import (
    complete_digraph,
    gnp_digraph,
    random_dag,
    star_graph,
)
from tests.conftest import gated_twin


def random_bits(size, density, seed):
    rng = np.random.default_rng(seed)
    return rng.random(size) < density


class TestCodec:
    @pytest.mark.parametrize("density", [0.0, 0.001, 0.03, 0.5, 0.97, 1.0])
    @pytest.mark.parametrize("size", [0, 1, 30, 31, 32, 62, 63, 500, 4096])
    def test_encode_matches_reference(self, size, density):
        bits = random_bits(size, density, seed=size + int(density * 1000))
        fast = encode_bits(bits)
        ref = WahBitVector.compress_reference(bits)
        assert fast.tolist() == ref.words, (size, density)

    def test_decode_round_trip(self):
        for seed in range(5):
            bits = random_bits(2000, 0.05, seed)
            words = encode_bits(bits)
            assert np.array_equal(decode_bits(words, bits.size), bits)
            assert np.array_equal(
                decode_indices(words, bits.size), np.flatnonzero(bits)
            )

    def test_clustered_runs_compress(self):
        bits = np.zeros(100_000, dtype=bool)
        bits[500:600] = True
        words = encode_bits(bits)
        assert words.nbytes < 200  # two fills + a few literals
        assert np.array_equal(decode_bits(words, bits.size), bits)

    def test_corrupt_stream_rejected(self):
        words = encode_bits(random_bits(310, 0.5, seed=0))
        with pytest.raises(ValueError, match="corrupt WAH"):
            decode_bits(words[:-1], 310)


class TestWahBitMatrix:
    def test_take_matches_dense(self):
        rng = np.random.default_rng(2)
        ncols = 300
        nwords = (ncols + 63) // 64
        dense = rng.integers(0, 1 << 63, size=(40, nwords), dtype=np.uint64)
        # Mask tail bits beyond ncols so dense and decoded agree.
        tail = ncols % 64
        if tail:
            dense[:, -1] &= np.uint64((1 << tail) - 1)
        mat = WahBitMatrix.from_dense(dense, ncols, hot_rows=4)
        assert mat.shape == dense.shape and mat.ndim == 2
        rows = rng.integers(0, 40, size=200)
        assert np.array_equal(mat.take(rows), dense[rows])

    def test_storage_smaller_on_sparse_rows(self):
        dense = np.zeros((64, 64), dtype=np.uint64)
        dense[7, 3] = 1
        mat = WahBitMatrix.from_dense(dense, 64 * 64)
        assert mat.storage_bytes() < mat.dense_bytes()


class TestWahRowStore:
    def build(self, seed=3, n=120, p=0.06, k=6):
        g = gnp_digraph(n, p, seed=seed)
        idx = KReachIndex(g, k)
        ig = idx.index_graph
        return ig, KeyedRowStore(ig.keys(), ig.weights64(), ig.n)

    def test_lookup_matches_keyed(self):
        ig, keyed = self.build()
        wah = WahRowStore.from_index_graph(ig, hot_rows=2)
        rng = np.random.default_rng(4)
        u = rng.integers(0, ig.n, size=3000)
        v = rng.integers(0, ig.n, size=3000)
        assert np.array_equal(wah.lookup(u, v), keyed.lookup(u, v))
        assert len(wah) == len(keyed)

    def test_lookup_empty(self):
        ig, _ = self.build()
        wah = WahRowStore.from_index_graph(ig)
        out = wah.lookup(np.empty(0, np.int64), np.empty(0, np.int64))
        assert out.size == 0

    def test_weight_of_scalar(self):
        ig, keyed = self.build(seed=5)
        wah = WahRowStore.from_index_graph(ig)
        cover = ig.cover_ids.tolist()
        for u in cover[:5]:
            for v in range(0, ig.n, 7):
                expect = keyed.lookup(
                    np.array([u], np.int64), np.array([v], np.int64)
                )[0]
                got = wah.weight_of(u, v)
                # weight_of keeps the scalar probe contract: None when
                # the store holds no (u, v) entry, plain int otherwise.
                assert got == (None if expect == MISSING_WEIGHT else expect)

    def test_missing_is_missing(self):
        ig, _ = self.build(seed=6)
        wah = WahRowStore.from_index_graph(ig)
        non_cover = sorted(set(range(ig.n)) - set(ig.cover_ids.tolist()))
        if non_cover:
            assert wah.weight_of(non_cover[0], 0) is None

    def test_storage_accounts_all_arrays(self):
        ig, _ = self.build(seed=7)
        wah = WahRowStore.from_index_graph(ig)
        assert wah.storage_bytes() >= wah.words.nbytes + wah.cover_ids.nbytes


class TestWahIndexParity:
    def graphs(self):
        return [
            gnp_digraph(100, 0.05, seed=8),
            random_dag(80, 300, seed=9),
            star_graph(64),
            complete_digraph(12),
        ]

    @pytest.mark.parametrize("k", [2, 6, None])
    def test_all_engines_match_dense(self, k):
        rng = np.random.default_rng(10)
        for g in self.graphs():
            dense = KReachIndex(g, k)
            wah = KReachIndex(g, k, cover=dense.cover, storage="wah")
            assert wah.index_graph.storage == "wah"
            pairs = rng.integers(0, g.n, size=(500, 2))
            ref = dense.query_batch(pairs)
            for got in (
                wah.query_batch(pairs),  # WAH rows never build the stack
                gated_twin(wah, "chunked").query_batch(pairs),
                wah.query_batch(pairs, engine="scalar"),
            ):
                assert np.array_equal(ref, got), (g.n, k)

    def test_scalar_query_matches_dense(self):
        g = gnp_digraph(60, 0.08, seed=11)
        dense = KReachIndex(g, 6)
        wah = KReachIndex(g, 6, cover=dense.cover, storage="wah")
        for s in range(0, g.n, 5):
            for t in range(g.n):
                assert wah.query(s, t) == dense.query(s, t), (s, t)

    def test_storage_bytes_smaller_on_compressible_index(self):
        g = gnp_digraph(300, 0.04, seed=12)
        dense = KReachIndex(g, None)
        wah = KReachIndex(g, None, cover=dense.cover, storage="wah")
        assert wah.storage_bytes() < dense.storage_bytes()

    def test_invalid_storage_rejected(self):
        g = gnp_digraph(20, 0.1, seed=13)
        with pytest.raises(ValueError):
            KReachIndex(g, 2, storage="zip")


class TestWahSerialization:
    def test_mmap_round_trip(self, tmp_path):
        g = gnp_digraph(150, 0.05, seed=14)
        wah = KReachIndex(g, 6, storage="wah")
        path = tmp_path / "wah.kri"
        save_mmap(wah, path)
        loaded = load_mmap(path, verify=True, validate=True)
        assert loaded.index_graph.storage == "wah"
        pairs = np.random.default_rng(15).integers(0, g.n, size=(800, 2))
        ref = wah.query_batch(pairs)
        for got in (
            loaded.query_batch(pairs),
            load_mmap(path, bitset_matrix_bytes=0).query_batch(pairs),
            loaded.query_batch(pairs, engine="scalar"),
        ):
            assert np.array_equal(ref, got)

    def test_wah_file_smaller_than_dense(self, tmp_path):
        """The compressed rows a wah file adds cost fewer bytes than the
        dense keyed row store (int64 key + int64 weight per index edge)
        they stand in for, which a dense index derives in memory."""
        g = gnp_digraph(300, 0.04, seed=16)
        dense = KReachIndex(g, None)
        wah = KReachIndex(g, None, cover=dense.cover, storage="wah")
        save_mmap(dense, tmp_path / "d.kri")
        save_mmap(wah, tmp_path / "w.kri")
        added = (tmp_path / "w.kri").stat().st_size - (
            tmp_path / "d.kri"
        ).stat().st_size
        assert 0 < added < 16 * dense.edge_count

    def test_dense_file_has_no_storage_field(self, tmp_path):
        import json

        g = gnp_digraph(30, 0.1, seed=17)
        save_mmap(KReachIndex(g, 2), tmp_path / "d.kri")
        raw = (tmp_path / "d.kri").read_bytes()
        hlen = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[20 : 20 + hlen])
        assert "storage" not in header

    def test_unknown_storage_rejected(self, tmp_path):
        import json
        import zlib

        g = gnp_digraph(30, 0.1, seed=18)
        path = tmp_path / "d.kri"
        save_mmap(KReachIndex(g, 2), path)
        raw = bytearray(path.read_bytes())
        hlen = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[20 : 20 + hlen])
        header["storage"] = "lzma"
        blob = json.dumps(header, separators=(",", ":")).encode()
        blob = blob.ljust(hlen, b" ")  # keep every payload offset intact
        raw[8:16] = len(blob).to_bytes(8, "little")
        raw[16:20] = zlib.crc32(blob).to_bytes(4, "little")
        raw[20 : 20 + len(blob)] = blob
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="storage"):
            load_mmap(path)


class TestDynamicGuard:
    def test_dynamic_rejects_wah_base(self):
        g = gnp_digraph(40, 0.1, seed=19)
        wah = KReachIndex(g, 2, storage="wah")
        with pytest.raises(ValueError, match="dense-storage"):
            DynamicKReachIndex.from_base(wah)
