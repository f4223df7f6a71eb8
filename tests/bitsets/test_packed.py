"""PackedIntArray tests: bit packing across word boundaries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitsets.packed import PackedIntArray, bits_needed


class TestBitsNeeded:
    def test_values(self):
        assert bits_needed(1) == 1
        assert bits_needed(2) == 1
        assert bits_needed(3) == 2
        assert bits_needed(4) == 2
        assert bits_needed(5) == 3
        assert bits_needed(256) == 8

    def test_invalid(self):
        with pytest.raises(ValueError):
            bits_needed(0)


class TestPackedIntArray:
    def test_default_zero(self):
        a = PackedIntArray(10, bits=3)
        assert a.to_list() == [0] * 10

    def test_set_get(self):
        a = PackedIntArray(5, bits=2)
        a[0] = 3
        a[4] = 1
        assert a[0] == 3 and a[1] == 0 and a[4] == 1

    def test_word_boundary_straddle(self):
        # 5-bit entries: entry 12 spans bits 60..64 (crosses the word edge)
        a = PackedIntArray(20, bits=5)
        a[12] = 0b10101
        a[11] = 0b01010
        a[13] = 0b11111
        assert a[12] == 0b10101
        assert a[11] == 0b01010
        assert a[13] == 0b11111

    def test_overwrite(self):
        a = PackedIntArray(3, bits=4)
        a[1] = 9
        a[1] = 4
        assert a[1] == 4

    def test_value_range_validation(self):
        a = PackedIntArray(3, bits=2)
        with pytest.raises(ValueError):
            a[0] = 4
        with pytest.raises(ValueError):
            a[0] = -1

    def test_index_bounds(self):
        a = PackedIntArray(3, bits=2)
        with pytest.raises(IndexError):
            a[3]
        with pytest.raises(IndexError):
            a[-1] = 0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PackedIntArray(-1, bits=2)
        with pytest.raises(ValueError):
            PackedIntArray(3, bits=0)
        with pytest.raises(ValueError):
            PackedIntArray(3, bits=33)

    def test_from_values(self):
        a = PackedIntArray.from_numpy(np.array([1, 2, 3, 0, 3]), bits=2)
        assert a.to_list() == [1, 2, 3, 0, 3]

    def test_len(self):
        assert len(PackedIntArray(7, bits=2)) == 7

    def test_storage_bytes(self):
        # 100 entries * 2 bits = 200 bits = 25 bytes
        assert PackedIntArray(100, bits=2).storage_bytes() == 25
        assert PackedIntArray(0, bits=2).storage_bytes() == 0

    def test_zero_length(self):
        a = PackedIntArray(0, bits=2)
        assert a.to_list() == []


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=17),
    st.lists(st.integers(min_value=0, max_value=2**17 - 1), min_size=1, max_size=100),
)
def test_property_round_trip(bits, values):
    mask = (1 << bits) - 1
    clipped = [v & mask for v in values]
    a = PackedIntArray.from_numpy(np.asarray(clipped, dtype=np.int64), bits=bits)
    assert a.to_list() == clipped


class TestVectorizedPackUnpack:
    def test_numpy_round_trip(self):
        rng = np.random.default_rng(3)
        for bits in (1, 2, 4, 5, 8, 13, 32):
            values = rng.integers(0, 1 << bits, size=523, dtype=np.int64)
            a = PackedIntArray.from_numpy(values, bits=bits)
            assert np.array_equal(a.as_numpy(), values)
            narrow = a.as_numpy(np.uint8 if bits <= 8 else np.uint32)
            assert narrow.dtype.itemsize < 8 and np.array_equal(narrow, values)
            # Scalar and vectorized decoders agree on the same words.
            assert a.to_list()[:17] == values[:17].tolist()

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 5, 8])
    def test_from_numpy_words_match_packbits_reference(self, bits):
        """Byte-split (widths dividing 8) and bit-stream encoders write
        the words of a plain little-endian packbits stream."""
        rng = np.random.default_rng(bits)
        for length in (1, 7, 65, 523):
            values = rng.integers(0, 1 << bits, size=length, dtype=np.int64)
            stream = ((values[:, None] >> np.arange(bits)) & 1).astype(np.uint8)
            packed = np.packbits(stream.reshape(-1), bitorder="little")
            a = PackedIntArray.from_numpy(values, bits=bits)
            want = np.zeros(a.words.nbytes, dtype=np.uint8)
            want[: len(packed)] = packed
            assert np.array_equal(a.words.view(np.uint8), want)
            for bad in (1 << bits, -1):
                with pytest.raises(ValueError):
                    PackedIntArray.from_numpy(np.append(values, bad), bits=bits)

    def test_from_numpy_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PackedIntArray.from_numpy(np.array([4]), bits=2)
        with pytest.raises(ValueError):
            PackedIntArray.from_numpy(np.array([-1]), bits=2)

    def test_words_round_trip(self):
        values = np.array([3, 1, 2, 0, 3, 3, 1], dtype=np.int64)
        a = PackedIntArray.from_numpy(values, bits=2)
        b = PackedIntArray.from_words(a.words, len(values), bits=2)
        assert b.to_list() == values.tolist()

    def test_from_words_rejects_oversized(self):
        with pytest.raises(ValueError):
            PackedIntArray.from_words(np.zeros(9, dtype=np.uint64), 3, bits=2)

    def test_empty(self):
        a = PackedIntArray.from_numpy(np.empty(0, dtype=np.int64), bits=4)
        assert a.as_numpy().shape == (0,)

    def test_scalar_writes_visible_to_vectorized_reader(self):
        a = PackedIntArray(70, bits=5)
        a[0] = 21
        a[12] = 19  # straddles the first word boundary
        a[69] = 31
        dense = a.as_numpy()
        assert dense[0] == 21 and dense[12] == 19 and dense[69] == 31
