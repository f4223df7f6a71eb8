"""Word-Aligned Hybrid (WAH) bitmap compression.

The PWAH baseline of the paper (van Schaik & de Moor, SIGMOD 2011 — [28])
stores each transitive-closure row as a compressed bitmap.  This module
implements the classic 32-bit WAH codec that family of indexes is built on:

* the bit stream is cut into 31-bit *groups*;
* a group that is not all-0s/all-1s becomes a **literal word**
  (MSB = 0, 31 payload bits);
* a maximal run of identical all-0/all-1 groups becomes a **fill word**
  (MSB = 1, next bit = fill value, low 30 bits = run length in groups).

Membership tests (:meth:`WahBitVector.test`) walk the compressed words and
never materialize the bitmap — exactly how the PWAH index probes a
transitive-closure entry at query time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WahBitVector", "encode_bits", "decode_bits"]

GROUP_BITS = 31
_FILL_FLAG = 1 << 31
_FILL_VALUE = 1 << 30
_RUN_MASK = _FILL_VALUE - 1
_LITERAL_MASK = (1 << GROUP_BITS) - 1
_ALL_ONES_GROUP = _LITERAL_MASK

_SHIFTS = np.arange(GROUP_BITS, dtype=np.int64)
_WEIGHTS = np.int64(1) << _SHIFTS


def _group_values(bits: np.ndarray) -> np.ndarray:
    """31-bit group payloads of a boolean array (zero-padded tail)."""
    size = len(bits)
    ngroups = (size + GROUP_BITS - 1) // GROUP_BITS
    if ngroups == 0:
        return np.empty(0, dtype=np.int64)
    padded = np.zeros(ngroups * GROUP_BITS, dtype=bool)
    padded[:size] = bits
    return padded.reshape(ngroups, GROUP_BITS) @ _WEIGHTS


def encode_bits(bits: np.ndarray) -> np.ndarray:
    """WAH-encode a boolean array into a ``uint32`` word array.

    Word-for-word identical to :meth:`WahBitVector.compress` (which
    delegates here), but fully vectorized: run boundaries, fill-run
    splitting at :data:`_RUN_MASK`, and literal emission all happen as
    array ops, so compressing the PWAH baseline's closure rows costs no
    Python-level loop over groups.
    """
    values = _group_values(np.asarray(bits, dtype=bool))
    ngroups = values.size
    if ngroups == 0:
        return np.empty(0, dtype=np.uint32)
    is_lit = (values != 0) & (values != _ALL_ONES_GROUP)
    # A run starts where the payload changes or a literal is adjacent
    # (every literal group is its own single-word "run").
    starts = np.empty(ngroups, dtype=bool)
    starts[0] = True
    np.logical_or(values[1:] != values[:-1], is_lit[1:], out=starts[1:])
    np.logical_or(starts[1:], is_lit[:-1], out=starts[1:])
    start_idx = np.flatnonzero(starts)
    run_len = np.diff(np.append(start_idx, ngroups))
    run_val = values[start_idx]
    run_lit = is_lit[start_idx]

    # Fill runs longer than the 30-bit run field split into several
    # words: full _RUN_MASK chunks then the remainder (1.._RUN_MASK).
    nwords = np.where(run_lit, 1, (run_len + _RUN_MASK - 1) // _RUN_MASK)
    run_of_word = np.repeat(np.arange(run_len.size), nwords)
    first_word = np.cumsum(nwords) - nwords
    pos = np.arange(run_of_word.size, dtype=np.int64) - first_word[run_of_word]
    last = pos == (nwords[run_of_word] - 1)
    chunk = np.where(
        last, run_len[run_of_word] - pos * _RUN_MASK, _RUN_MASK
    )
    fill_bit = np.where(run_val[run_of_word] == _ALL_ONES_GROUP, _FILL_VALUE, 0)
    words = np.where(
        run_lit[run_of_word],
        run_val[run_of_word],
        _FILL_FLAG | fill_bit | chunk,
    )
    return words.astype(np.uint32)


def _decode_values(words: np.ndarray, ngroups: int) -> np.ndarray:
    """Expand a WAH word array back into 31-bit group payloads."""
    words = np.asarray(words, dtype=np.uint32).astype(np.int64)
    if words.size == 0:
        if ngroups:
            raise ValueError("corrupt WAH stream: group count mismatch")
        return np.empty(0, dtype=np.int64)
    is_fill = (words & _FILL_FLAG) != 0
    runs = np.where(is_fill, words & _RUN_MASK, 1)
    if int(runs.sum()) != ngroups:
        raise ValueError("corrupt WAH stream: group count mismatch")
    payload = np.where(
        is_fill,
        np.where((words & _FILL_VALUE) != 0, _ALL_ONES_GROUP, 0),
        words & _LITERAL_MASK,
    )
    return np.repeat(payload, runs)


def decode_bits(words: np.ndarray, size: int) -> np.ndarray:
    """Decode a WAH word array into its boolean array of length ``size``."""
    ngroups = (size + GROUP_BITS - 1) // GROUP_BITS
    values = _decode_values(words, ngroups)
    bits = ((values[:, None] >> _SHIFTS) & 1).astype(bool).reshape(-1)
    return bits[:size]


class WahBitVector:
    """An immutable WAH-compressed bit vector.

    Build with :meth:`compress`; probe with :meth:`test`; recover the
    original bits with :meth:`decompress`.

    >>> bits = np.zeros(200, dtype=bool); bits[::50] = True
    >>> w = WahBitVector.compress(bits)
    >>> w.test(50), w.test(51)
    (True, False)
    >>> bool(np.array_equal(w.decompress(), bits))
    True
    """

    __slots__ = ("words", "size")

    def __init__(self, words: list[int], size: int) -> None:
        self.words = words
        self.size = size

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    @classmethod
    def compress(cls, bits: np.ndarray) -> "WahBitVector":
        """Compress a boolean array (vectorized via :func:`encode_bits`)."""
        bits = np.asarray(bits, dtype=bool)
        return cls([int(w) for w in encode_bits(bits)], len(bits))

    @classmethod
    def compress_reference(cls, bits: np.ndarray) -> "WahBitVector":
        """The original word-at-a-time encoder.

        Kept as the executable specification :func:`encode_bits` is
        differential-tested against — the two must agree word for word
        on every input.
        """
        bits = np.asarray(bits, dtype=bool)
        size = len(bits)
        values = _group_values(bits)

        words: list[int] = []
        run_value = -1  # payload of the current fill run (0 or ALL_ONES)
        run_length = 0

        def flush_run() -> None:
            nonlocal run_length, run_value
            while run_length > 0:
                chunk = min(run_length, _RUN_MASK)
                fill_bit = _FILL_VALUE if run_value == _ALL_ONES_GROUP else 0
                words.append(_FILL_FLAG | fill_bit | chunk)
                run_length -= chunk
            run_value = -1

        for value in values:
            value = int(value)
            if value == 0 or value == _ALL_ONES_GROUP:
                if value == run_value:
                    run_length += 1
                else:
                    flush_run()
                    run_value = value
                    run_length = 1
            else:
                flush_run()
                words.append(value)
        flush_run()
        return cls(words, size)

    @classmethod
    def from_indices(cls, size: int, indices: "np.ndarray | list[int]") -> "WahBitVector":
        """Compress the bitmap with exactly ``indices`` set."""
        bits = np.zeros(size, dtype=bool)
        idx = np.asarray(indices, dtype=np.int64)
        if len(idx):
            bits[idx] = True
        return cls.compress(bits)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def test(self, i: int) -> bool:
        """Whether stream bit ``i`` is set, by scanning compressed words."""
        if not 0 <= i < self.size:
            raise IndexError(f"bit {i} out of range [0, {self.size})")
        target_group, offset = divmod(i, GROUP_BITS)
        group = 0
        for word in self.words:
            if word & _FILL_FLAG:
                run = word & _RUN_MASK
                if target_group < group + run:
                    return bool(word & _FILL_VALUE)
                group += run
            else:
                if target_group == group:
                    return bool((word >> offset) & 1)
                group += 1
        return False

    def decompress(self) -> np.ndarray:
        """The original boolean array (vectorized via :func:`decode_bits`)."""
        return decode_bits(np.asarray(self.words, dtype=np.uint32), self.size)

    def count(self) -> int:
        """Number of set bits (without materializing the bitmap)."""
        total = 0
        group = 0
        tail_group = (self.size - 1) // GROUP_BITS if self.size else -1
        tail_bits = self.size - tail_group * GROUP_BITS
        for word in self.words:
            if word & _FILL_FLAG:
                run = word & _RUN_MASK
                if word & _FILL_VALUE:
                    full = run
                    # Clamp the final partial group.
                    if group + run - 1 == tail_group and tail_bits < GROUP_BITS:
                        total += (full - 1) * GROUP_BITS + tail_bits
                    else:
                        total += full * GROUP_BITS
                group += run
            else:
                payload = word & _LITERAL_MASK
                if group == tail_group and tail_bits < GROUP_BITS:
                    payload &= (1 << tail_bits) - 1
                total += int(payload).bit_count()
                group += 1
        return total

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        """4 bytes per compressed word (the on-disk model)."""
        return 4 * len(self.words)

    def compression_ratio(self) -> float:
        """Uncompressed bytes / compressed bytes (>= 1 is a win)."""
        raw = (self.size + 7) // 8
        compressed = self.storage_bytes()
        return raw / compressed if compressed else float("inf")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WahBitVector):
            return NotImplemented
        return self.size == other.size and self.words == other.words

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WahBitVector(size={self.size}, words={len(self.words)})"
