"""Packed small-integer arrays.

§4.3 of the paper observes that a k-reach edge weight takes one of only
three values — ``k-2``, ``k-1``, ``k`` — so 2 bits per edge suffice, and the
(h,k)-reach generalization needs ``ceil(log2(2h+1))`` bits.  This module
provides the fixed-width packed array the index's storage model is built on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PackedIntArray", "bits_needed"]


def bits_needed(num_values: int) -> int:
    """Bits per entry to distinguish ``num_values`` distinct values (>= 1)."""
    if num_values < 1:
        raise ValueError(f"num_values must be >= 1, got {num_values}")
    return max(1, int(num_values - 1).bit_length())


class PackedIntArray:
    """A fixed-length array of ``bits``-wide unsigned integers.

    Entries are packed little-endian into a uint64 word array; random access
    is O(1).  Values must fit in ``bits`` bits.

    >>> a = PackedIntArray(5, bits=2)
    >>> a[0] = 3; a[4] = 1
    >>> a[0], a[1], a[4]
    (3, 0, 1)
    >>> a.storage_bytes()  # 5 entries x 2 bits -> 2 bytes
    2
    """

    __slots__ = ("length", "bits", "_words", "_mask")

    _WORD_BITS = 64

    @classmethod
    def _words_needed(cls, length: int, bits: int) -> int:
        """Backing words for ``length`` entries, validating the parameters.

        Includes the spare word that lets a straddling entry read two
        words unconditionally — the one formula both the allocating
        constructor and the zero-copy install path must agree on.
        """
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        if not 1 <= bits <= 32:
            raise ValueError(f"bits must be in [1, 32], got {bits}")
        return (length * bits + cls._WORD_BITS - 1) // cls._WORD_BITS + 1

    def __init__(self, length: int, *, bits: int) -> None:
        nwords = self._words_needed(length, bits)
        self.length = length
        self.bits = bits
        self._words = np.zeros(nwords, dtype=np.uint64)
        self._mask = (1 << bits) - 1

    @classmethod
    def from_values(cls, values: "list[int] | np.ndarray", *, bits: int) -> "PackedIntArray":
        """Pack an existing sequence (vectorized; see :meth:`from_numpy`)."""
        return cls.from_numpy(np.asarray(values, dtype=np.int64), bits=bits)

    @classmethod
    def from_numpy(cls, values: np.ndarray, *, bits: int) -> "PackedIntArray":
        """Pack a numpy integer array without a Python-level loop.

        The inverse of :meth:`as_numpy`.  Widths that divide 8 (the §4.3
        2-bit weights among them) OR each byte's fields together directly,
        one byte-wide pass per field; other widths assemble the
        little-endian bit stream with ``np.packbits``.  Either way packing
        |E_I|-sized weight arrays during index construction costs a
        handful of vectorized passes instead of one ``__setitem__`` per
        entry.

        >>> PackedIntArray.from_numpy(np.array([3, 0, 1]), bits=2).to_list()
        [3, 0, 1]
        """
        values = np.asarray(values, dtype=np.int64)
        arr = cls(len(values), bits=bits)
        if len(values) == 0:
            return arr
        if int(values.min()) < 0 or int(values.max()) > arr._mask:
            raise ValueError(f"values do not fit in {bits} bits")
        if 8 % bits == 0:
            per_byte = 8 // bits
            fields = np.zeros(-(-len(values) // per_byte) * per_byte, dtype=np.uint8)
            fields[: len(values)] = values
            fields = fields.reshape(-1, per_byte)
            raw = arr._words.view(np.uint8)[: len(fields)]
            raw[:] = fields[:, 0]
            for j in range(1, per_byte):
                raw |= fields[:, j] << np.uint8(j * bits)
            return arr
        stream = (
            (values[:, None] >> np.arange(bits, dtype=np.int64)) & 1
        ).astype(np.uint8)
        packed = np.packbits(stream.reshape(-1), bitorder="little")
        buf = np.zeros(arr._words.nbytes, dtype=np.uint8)
        buf[: len(packed)] = packed
        arr._words = buf.view(np.uint64)
        return arr

    @classmethod
    def from_words(
        cls, words: np.ndarray, length: int, *, bits: int, copy: bool = True
    ) -> "PackedIntArray":
        """Rebuild from a raw word array (the on-disk form; see :attr:`words`).

        With ``copy=False`` the word array is installed **as the backing
        store** — no allocation and no pass over the payload, which is what
        lets the memory-mapped loader open a packed weight array in O(1).
        The zero-copy path requires the array to carry the exact padded
        word count (``nwords + 1``, the spare straddle word included), and
        the result must be treated as frozen: writes through
        ``__setitem__`` would write through to the caller's buffer (and
        fault on a read-only mmap).
        """
        words = np.asarray(words, dtype=np.uint64)
        if not copy:
            arr = object.__new__(cls)
            needed = cls._words_needed(length, bits)
            if len(words) != needed:
                raise ValueError(
                    f"zero-copy install needs exactly {needed} words "
                    f"(spare included) for {length} {bits}-bit entries, "
                    f"got {len(words)}"
                )
            arr.length = length
            arr.bits = bits
            arr._words = words
            arr._mask = (1 << bits) - 1
            return arr
        arr = cls(length, bits=bits)
        if len(words) > len(arr._words):
            raise ValueError(
                f"{len(words)} words exceed the {len(arr._words)} needed "
                f"for {length} {bits}-bit entries"
            )
        arr._words[: len(words)] = words
        return arr

    @property
    def words(self) -> np.ndarray:
        """The backing uint64 word array (including the spare padding word)."""
        return self._words

    def as_numpy(self, dtype=np.int64) -> np.ndarray:
        """Unpack every entry into a ``dtype`` array (vectorized).

        The inverse of :meth:`from_numpy`, with no Python loop.  Widths
        that divide 8 (the §4.3 2-bit weights among them) split each
        byte into its fields directly, so a narrow ``dtype`` such as
        uint8 costs one byte per entry and no wider temporary.  Other
        widths take one ``np.unpackbits`` pass plus a matmul against
        the bit weights.
        """
        if self.length == 0:
            return np.empty(0, dtype=dtype)
        if 8 % self.bits == 0:
            per_byte = 8 // self.bits
            raw = self._words.view(np.uint8)[: -(-self.length // per_byte)]
            shifts = np.arange(0, 8, self.bits, dtype=np.uint8)
            fields = (raw[:, None] >> shifts) & np.uint8(self._mask)
            return fields.reshape(-1)[: self.length].astype(dtype, copy=False)
        stream = np.unpackbits(
            self._words.view(np.uint8),
            count=self.length * self.bits,
            bitorder="little",
        )
        bit_matrix = stream.reshape(self.length, self.bits).astype(np.int64)
        values = bit_matrix @ (np.int64(1) << np.arange(self.bits, dtype=np.int64))
        return values.astype(dtype, copy=False)

    def _locate(self, i: int) -> tuple[int, int]:
        if not 0 <= i < self.length:
            raise IndexError(f"index {i} out of range [0, {self.length})")
        bit = i * self.bits
        return bit // self._WORD_BITS, bit % self._WORD_BITS

    def __getitem__(self, i: int) -> int:
        word, offset = self._locate(i)
        lo = int(self._words[word]) >> offset
        if offset + self.bits > self._WORD_BITS:
            hi = int(self._words[word + 1]) << (self._WORD_BITS - offset)
            lo |= hi
        return lo & self._mask

    def __setitem__(self, i: int, value: int) -> None:
        if not 0 <= value <= self._mask:
            raise ValueError(f"value {value} does not fit in {self.bits} bits")
        word, offset = self._locate(i)
        current = int(self._words[word])
        current &= ~(self._mask << offset) & 0xFFFFFFFFFFFFFFFF
        current |= (value << offset) & 0xFFFFFFFFFFFFFFFF
        self._words[word] = np.uint64(current)
        if offset + self.bits > self._WORD_BITS:
            spill = self.bits - (self._WORD_BITS - offset)
            nxt = int(self._words[word + 1])
            nxt &= ~((1 << spill) - 1)
            nxt |= value >> (self.bits - spill)
            self._words[word + 1] = np.uint64(nxt)

    def __len__(self) -> int:
        return self.length

    def to_list(self) -> list[int]:
        """Unpack to a plain Python list."""
        return [self[i] for i in range(self.length)]

    def storage_bytes(self) -> int:
        """Bytes actually needed: ``ceil(length * bits / 8)`` (the disk model,
        excluding the spare padding word)."""
        return (self.length * self.bits + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PackedIntArray(length={self.length}, bits={self.bits})"
