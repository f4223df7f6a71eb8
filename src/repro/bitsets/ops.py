"""Packed-uint64 bitset-join kernels for the batch query engines.

The query side of every index in this package ultimately asks set
questions — "does some out-neighbor of ``s`` link to some in-neighbor of
``t`` within budget?" — and the scalar escape hatches (hub×hub cross
products, per-pair Algorithm-3 walks) all stem from answering them one
element at a time.  This module provides the word-parallel primitives the
bitset engines are built on: sets of *cover positions* packed 64 per
uint64 word, so a membership join is a handful of vectorized ``AND`` /
``OR`` passes instead of a Python loop.

Layout convention: a "bit row" over a universe of ``nbits`` positions is
a ``words_for(nbits)``-long uint64 array, little-endian within the word
(position ``p`` lives in word ``p >> 6`` at bit ``p & 63``) — the same
layout as the MS-BFS frontier masks in :mod:`repro.graph.traversal`.

All kernels are allocation-bounded: the fan-out helpers chunk their
temporaries to at most ``max_words`` uint64 words, so a celebrity vertex
with a graph-sized neighbor list cannot blow up transient memory the way
the materialized cross products could.

Each kernel exists in two tiers (see :mod:`repro.native`): the vectorized
numpy implementation below — always available, the differential baseline —
and a loop-level body in :mod:`repro.native_kernels` that numba compiles
to a GIL-releasing machine loop with no temporaries at all.  The public
functions dispatch per call; semantics are byte-identical across tiers.
"""

from __future__ import annotations

import numpy as np

from repro import native
from repro import native_kernels as _nk

__all__ = [
    "DEFAULT_MATRIX_BYTES",
    "words_for",
    "matrix_bytes",
    "bit_matrix",
    "set_bits",
    "or_rows_segmented",
    "and_any",
    "probe_bits",
    "bit_submatrix",
]

#: Default ceiling on the bytes the cover-local link matrices of one index
#: may occupy together — the k-reach stack of three nested level views,
#: or the (h,k)-reach stack of per-budget matrices — before the batch
#: engines fall back to their keyed/chunked/scalar paths.  64 MiB admits
#: the k-reach stack for covers up to ~13k vertices (one matrix alone up
#: to ~23k) — far beyond the paper's datasets.
DEFAULT_MATRIX_BYTES = 64 << 20

_WORD_BITS = 64


def words_for(nbits: int) -> int:
    """uint64 words needed to hold ``nbits`` bit positions."""
    return (int(nbits) + _WORD_BITS - 1) >> 6


def matrix_bytes(rows: int, nbits: int) -> int:
    """Bytes of a ``(rows, words_for(nbits))`` uint64 bit matrix."""
    return int(rows) * words_for(nbits) * 8


def _group_bounds(keys: np.ndarray) -> np.ndarray:
    """Start offsets of each run of equal values in a sorted key array."""
    new_group = np.empty(len(keys), dtype=bool)
    new_group[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new_group[1:])
    return np.flatnonzero(new_group)


def bit_matrix(
    rows: np.ndarray, cols: np.ndarray, num_rows: int, nbits: int
) -> np.ndarray:
    """A ``(num_rows, words)`` uint64 matrix with bit ``cols[i]`` set in
    row ``rows[i]``.

    Duplicate ``(row, col)`` entries are OR-merged.  On the numpy tier,
    sorted ``(row, col)`` input (the natural order of CSR-derived
    streams) takes a pure reduceat path and unsorted input pays one
    argsort; the native tier scatters bits directly and never sorts.
    """
    words = words_for(nbits)
    out = np.zeros((num_rows, words), dtype=np.uint64)
    if len(rows) == 0 or words == 0:
        return out
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    fn, tier = native.resolve("set_bits")
    if tier != "numpy":
        return fn(out, rows, cols)
    keys = rows * words + (cols >> 6)
    values = np.uint64(1) << (cols & 63).astype(np.uint64)
    if len(keys) > 1 and np.any(keys[:-1] > keys[1:]):
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        values = values[order]
    bounds = _group_bounds(keys)
    flat = out.reshape(-1)
    flat[keys[bounds]] = np.bitwise_or.reduceat(values, bounds)
    return out


def _set_bits_numpy(matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Numpy twin of :func:`repro.native_kernels.set_bits_into`."""
    np.bitwise_or.at(
        matrix,
        (rows, cols >> 6),
        np.uint64(1) << (cols & 63).astype(np.uint64),
    )
    return matrix


def set_bits(matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """In-place scatter: set bit ``cols[i]`` of ``matrix[rows[i]]``.

    The patch half of an overlay rebuild: unlike a fancy-index ``|=``
    (which silently drops duplicate ``(row, word)`` targets), the
    unbuffered ``bitwise_or.at`` accumulates every entry, so callers may
    pass arbitrary duplicated scatter streams.  Returns ``matrix``.
    """
    if len(rows) == 0:
        return matrix
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    return native.kernel("set_bits")(matrix, rows, cols)


def _or_rows_into_numpy(
    matrix: np.ndarray, rows: np.ndarray, owner: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Numpy twin of :func:`repro.native_kernels.or_rows_into`.

    Unbuffered accumulate handles duplicate owners regardless of order;
    this is the unchunked reference the compile-time smoke check runs —
    the chunked ``max_words`` production path lives in
    :func:`or_rows_segmented` itself.
    """
    np.bitwise_or.at(out, owner, matrix[rows])
    return out


def or_rows_segmented(
    matrix: np.ndarray,
    rows: np.ndarray,
    owner: np.ndarray,
    num_segments: int,
    *,
    out: np.ndarray | None = None,
    max_words: int = 1 << 23,
) -> np.ndarray:
    """Per-segment OR of matrix rows: ``out[owner[i]] |= matrix[rows[i]]``.

    This is the fan-out half of a bitset join — e.g. "OR together the
    index rows of every out-neighbor of ``s``".  ``owner`` must be sorted
    ascending (the order :func:`~repro.core.batch.gather_segments`
    produces); on the numpy tier the row gather is chunked so the
    transient ``(chunk, words)`` block never exceeds ``max_words`` words.
    The native tier runs one pass over the stream with no temporaries,
    so ``max_words`` does not apply there.
    """
    words = matrix.shape[1] if matrix.ndim == 2 else 0
    if out is None:
        out = np.zeros((num_segments, words), dtype=np.uint64)
    if len(rows) == 0 or words == 0:
        return out
    fn, tier = native.resolve("or_rows")
    if tier != "numpy":
        return fn(
            matrix,
            np.asarray(rows, dtype=np.int64),
            np.asarray(owner, dtype=np.int64),
            out,
        )
    step = max(1, max_words // max(1, words))
    for start in range(0, len(rows), step):
        sel_rows = rows[start : start + step]
        sel_owner = owner[start : start + step]
        bounds = _group_bounds(sel_owner)
        ored = np.bitwise_or.reduceat(matrix[sel_rows], bounds, axis=0)
        # Owners are unique within the chunk's bounds, so the fancy-index
        # OR-assign is safe; a segment split across chunks merges here.
        targets = sel_owner[bounds]
        out[targets] |= ored
    return out


def _and_any_numpy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Numpy twin of :func:`repro.native_kernels.and_any`."""
    if a.shape[0] == 0 or a.shape[1] == 0:
        return np.zeros(a.shape[0], dtype=bool)
    return np.any(a & b, axis=1)


def and_any(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise non-empty-intersection test: ``any(a[i] & b[i])``."""
    return native.kernel("and_any")(a, b)


def _probe_bits_numpy(
    matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Numpy twin of :func:`repro.native_kernels.probe_bits`."""
    word = matrix[rows, cols >> 6]
    return ((word >> (cols & 63).astype(np.uint64)) & np.uint64(1)).astype(bool)


def probe_bits(matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Per-element membership probe: is bit ``cols[i]`` set in
    ``matrix[rows[i]]``?  One word gather + shift per element."""
    if len(rows) == 0:
        return np.zeros(0, dtype=bool)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    return native.kernel("probe_bits")(matrix, rows, cols)


def bit_submatrix(
    matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Rows ``rows`` and bit columns ``cols`` of a bit matrix, repacked:
    bit ``j`` of row ``i`` is bit ``cols[j]`` of ``matrix[rows[i]]``.

    Unpacks the selected rows in blocks of about 4M bits, so the
    transient bytes stay bounded for any matrix.
    """
    out = np.zeros((len(rows), words_for(len(cols))), dtype=np.uint64)
    if not len(rows) or not len(cols):
        return out
    step = max(1, (1 << 22) // (matrix.shape[1] * _WORD_BITS))
    flat = out.view(np.uint8)
    for start in range(0, len(rows), step):
        block = np.ascontiguousarray(matrix[rows[start : start + step]])
        bits = np.unpackbits(block.view(np.uint8), axis=1, bitorder="little")
        packed = np.packbits(bits[:, cols], axis=1, bitorder="little")
        flat[start : start + len(block), : packed.shape[1]] = packed
    return out


# ----------------------------------------------------------------------
# Native-tier registration.  Samples cover multi-word rows, duplicate
# scatter targets, and cross-word bit positions; each call returns fresh
# arrays because the in-place kernels mutate their inputs.
# ----------------------------------------------------------------------

def _sample_matrix() -> np.ndarray:
    m = np.zeros((4, 2), dtype=np.uint64)
    m[0, 0] = np.uint64(0b1011)
    m[1, 1] = np.uint64(1) << np.uint64(5)
    m[2, 0] = np.uint64(1) << np.uint64(63)
    m[3, 1] = np.uint64(0xF0)
    return m


def _and_any_sample():
    a = _sample_matrix()
    b = np.zeros_like(a)
    b[0, 0] = np.uint64(0b0010)   # hit in word 0
    b[1, 1] = np.uint64(1) << np.uint64(5)   # hit in word 1
    b[2, 0] = np.uint64(1)        # miss
    return a, b


def _set_bits_sample():
    rows = np.array([0, 2, 2, 0, 3], dtype=np.int64)
    cols = np.array([1, 64, 65, 1, 127], dtype=np.int64)  # dups + both words
    return np.zeros((4, 2), dtype=np.uint64), rows, cols


def _or_rows_sample():
    rows = np.array([0, 2, 3, 1], dtype=np.int64)
    owner = np.array([0, 0, 1, 2], dtype=np.int64)  # duplicate owner 0
    return _sample_matrix(), rows, owner, np.zeros((3, 2), dtype=np.uint64)


def _probe_bits_sample():
    rows = np.array([0, 0, 1, 2, 3], dtype=np.int64)
    cols = np.array([0, 2, 69, 63, 127], dtype=np.int64)
    return _sample_matrix(), rows, cols


native.register(
    "and_any",
    numpy_impl=_and_any_numpy,
    python_impl=_nk.and_any,
    parallel=True,
    sample=_and_any_sample,
)
native.register(
    "set_bits",
    numpy_impl=_set_bits_numpy,
    python_impl=_nk.set_bits_into,
    sample=_set_bits_sample,
)
native.register(
    "or_rows",
    numpy_impl=_or_rows_into_numpy,
    python_impl=_nk.or_rows_into,
    sample=_or_rows_sample,
)
native.register(
    "probe_bits",
    numpy_impl=_probe_bits_numpy,
    python_impl=_nk.probe_bits,
    parallel=True,
    sample=_probe_bits_sample,
)
