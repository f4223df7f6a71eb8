"""Bitset substrate: WAH compression, packed small integers, and the
packed-uint64 join kernels the batch query engines run on."""

from repro.bitsets.ops import (
    DEFAULT_MATRIX_BYTES,
    and_any,
    bit_matrix,
    matrix_bytes,
    or_rows_segmented,
    probe_bits,
    words_for,
)
from repro.bitsets.packed import PackedIntArray, bits_needed
from repro.bitsets.wah import WahBitVector

__all__ = [
    "PackedIntArray",
    "bits_needed",
    "WahBitVector",
    "DEFAULT_MATRIX_BYTES",
    "and_any",
    "bit_matrix",
    "matrix_bytes",
    "or_rows_segmented",
    "probe_bits",
    "words_for",
]
