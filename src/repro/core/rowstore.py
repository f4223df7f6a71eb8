"""Compressed storage for high-degree index rows (§4.3).

The paper notes that high-degree vertices of ``G`` tend to be high-degree
in the index graph ``I`` too, inflating both storage and Case-2/3/4 scan
cost, and proposes storing their neighbor sets "in a more compact way,
such as interval lists or partitioned word aligned hybrid compression …
we only need to locate the corresponding interval or bits for query
processing, instead of searching the list of neighbors."

:class:`CompressedRow` implements exactly that: one WAH bitmap per weight
level over the vertex-id space.  Because a k-reach row has at most three
weight levels (``k-2``, ``k-1``, ``k``), membership-with-budget reduces to
at most three compressed bit probes.  The class quacks like the plain
``dict`` rows (:meth:`get`, ``in``, ``len``, :meth:`items`), so the query
algorithms in :mod:`repro.core.kreach` are storage-agnostic.
"""

from __future__ import annotations

import collections
from typing import Iterator

import numpy as np

from repro import faults
from repro.bitsets.wah import WahBitVector, decode_indices, encode_bits

__all__ = ["CompressedRow", "WahRowStore", "compress_rows", "rows_to_arrays"]


class CompressedRow:
    """A k-reach index row stored as per-weight-level WAH bitmaps.

    Parameters
    ----------
    row:
        The plain ``{target: weight}`` dict to compress.
    universe:
        Vertex-id universe size (bitmap width).

    Examples
    --------
    >>> row = CompressedRow({2: 1, 5: 3, 9: 1}, universe=16)
    >>> row.get(5), row.get(4)
    (3, None)
    >>> 2 in row, len(row)
    (True, 3)
    """

    __slots__ = ("_levels", "_size", "universe")

    def __init__(self, row: dict[int, int], universe: int) -> None:
        by_weight: dict[int, list[int]] = {}
        for v, w in row.items():
            by_weight.setdefault(w, []).append(v)
        self._levels: list[tuple[int, WahBitVector]] = [
            (w, WahBitVector.from_indices(universe, sorted(targets)))
            for w, targets in sorted(by_weight.items())
        ]
        self._size = len(row)
        self.universe = universe

    @classmethod
    def from_arrays(
        cls, targets: np.ndarray, weights: np.ndarray, universe: int
    ) -> "CompressedRow":
        """Build from aligned (targets, weights) arrays without a dict.

        The vectorized construction path for the CSR-native index: one
        bitmap per distinct weight level, targets split by boolean mask.
        """
        self = object.__new__(cls)
        targets = np.asarray(targets, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        self._levels = [
            (
                int(w),
                WahBitVector.from_indices(
                    universe, np.sort(targets[weights == w]).tolist()
                ),
            )
            for w in np.unique(weights).tolist()
        ]
        self._size = len(targets)
        self.universe = universe
        return self

    def get(self, v: int, default: int | None = None) -> int | None:
        """The stored weight for target ``v`` (bit probes, low level first)."""
        if not 0 <= v < self.universe:
            return default
        for weight, bitmap in self._levels:
            if bitmap.test(v):
                return weight
        return default

    def __contains__(self, v: int) -> bool:
        return self.get(v) is not None

    def __len__(self) -> int:
        return self._size

    def items(self) -> Iterator[tuple[int, int]]:
        """Iterate ``(target, weight)`` pairs (decompresses; not a hot path)."""
        for weight, bitmap in self._levels:
            for v in np.flatnonzero(bitmap.decompress()):
                yield int(v), weight

    def keys(self) -> Iterator[int]:
        """Iterate target ids."""
        for v, _ in self.items():
            yield v

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The row as parallel ``(targets, weights)`` int64 arrays.

        Vectorized per-level bitmap decode — this is how the batch query
        engine (:mod:`repro.core.batch`) bulk-loads compressed hub rows
        into its keyed lookup structure without a Python-level loop over
        the row's entries.
        """
        targets: list[np.ndarray] = []
        weights: list[np.ndarray] = []
        for weight, bitmap in self._levels:
            hit = np.flatnonzero(bitmap.decompress()).astype(np.int64)
            targets.append(hit)
            weights.append(np.full(len(hit), weight, dtype=np.int64))
        if not targets:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(targets), np.concatenate(weights)

    def weight_levels(self) -> list[int]:
        """The distinct weights present (≤ 3 for a fixed-k index)."""
        return [w for w, _ in self._levels]

    def storage_bytes(self) -> int:
        """Compressed words across all levels (4 bytes each)."""
        return sum(bitmap.storage_bytes() for _, bitmap in self._levels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CompressedRow(size={self._size}, levels={self.weight_levels()})"


class WahRowStore:
    """WAH-compressed row store — the ``storage='wah'`` batch probe view.

    The drop-in compressed alternative to
    :class:`~repro.core.batch.KeyedRowStore`: where the dense store holds
    16 bytes per index edge (flat int64 keys + weights), this one holds a
    WAH bitmap per ``(cover row, weight level)`` over the vertex-id
    universe — a k-reach row has at most three levels (§4.3), and sparse
    or clustered rows compress to a fraction of the dense bytes.

    :meth:`lookup` keeps the same contract (aligned ``(u, v)`` arrays →
    int64 weights, ``MISSING_WEIGHT`` on absence) so every batch engine
    runs unchanged; rows decompress **on touch** into a small FIFO of hot
    uncompressed ``(targets, weights)`` pairs, which a batch grouped by
    source row (the common Case-2/3 shape) hits repeatedly.

    Layout (four flat arrays, each a zero-copy mmap section in the v6
    format's ``storage='wah'`` flavor):

    * ``row_indptr``  — int64, ``|S| + 1``: level span of each cover row;
    * ``level_weights`` — int64 per level: the stored weight;
    * ``level_indptr`` — int64, levels + 1: word span of each level;
    * ``words`` — uint32 WAH payload.
    """

    __slots__ = (
        "cover_ids",
        "n",
        "row_indptr",
        "level_weights",
        "level_indptr",
        "words",
        "_size",
        "_hot",
        "_hot_cap",
    )

    def __init__(
        self,
        cover_ids: np.ndarray,
        n: int,
        row_indptr: np.ndarray,
        level_weights: np.ndarray,
        level_indptr: np.ndarray,
        words: np.ndarray,
        *,
        size: int | None = None,
        hot_rows: int = 32,
    ) -> None:
        self.cover_ids = np.asarray(cover_ids, dtype=np.int64)
        self.n = int(n)
        self.row_indptr = np.asarray(row_indptr, dtype=np.int64)
        self.level_weights = np.asarray(level_weights, dtype=np.int64)
        self.level_indptr = np.asarray(level_indptr, dtype=np.int64)
        self.words = np.asarray(words, dtype=np.uint32)
        if len(self.row_indptr) != len(self.cover_ids) + 1:
            raise ValueError("row_indptr must have |cover| + 1 entries")
        if len(self.level_indptr) != len(self.level_weights) + 1:
            raise ValueError("level_indptr must have levels + 1 entries")
        self._size = size  # total stored edges; counted on demand
        self._hot: "collections.OrderedDict[int, tuple[np.ndarray, np.ndarray]]" = (
            collections.OrderedDict()
        )
        self._hot_cap = max(1, int(hot_rows))

    @classmethod
    def from_index_graph(cls, ig, *, hot_rows: int = 32) -> "WahRowStore":
        """Compress an :class:`~repro.core.index_graph.IndexGraph`'s rows."""
        weights = ig.weights64()
        targets = ig.targets
        n_rows = len(ig.cover_ids)
        row_indptr = np.zeros(n_rows + 1, dtype=np.int64)
        level_weights: list[int] = []
        level_sizes: list[int] = []
        word_parts: list[np.ndarray] = []
        bits = np.zeros(ig.n, dtype=bool)
        for r in range(n_rows):
            lo, hi = int(ig.indptr[r]), int(ig.indptr[r + 1])
            row_t = targets[lo:hi]
            row_w = weights[lo:hi]
            for w in np.unique(row_w).tolist():
                hit = row_t[row_w == w]
                bits[hit] = True
                part = encode_bits(bits)
                bits[hit] = False
                word_parts.append(part)
                level_weights.append(int(w))
                level_sizes.append(part.size)
            row_indptr[r + 1] = len(level_weights)
        level_indptr = np.zeros(len(level_weights) + 1, dtype=np.int64)
        np.cumsum(np.asarray(level_sizes, dtype=np.int64), out=level_indptr[1:])
        words = (
            np.concatenate(word_parts)
            if word_parts
            else np.empty(0, dtype=np.uint32)
        )
        return cls(
            ig.cover_ids,
            ig.n,
            row_indptr,
            np.asarray(level_weights, dtype=np.int64),
            level_indptr,
            words,
            size=len(targets),
            hot_rows=hot_rows,
        )

    def __len__(self) -> int:
        if self._size is None:
            total = 0
            for r in range(len(self.cover_ids)):
                total += len(self._row_arrays(r)[0])
            self._size = total
        return self._size

    def _row_arrays(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``r`` decoded to sorted ``(targets, weights)`` (FIFO-cached)."""
        cached = self._hot.get(r)
        if cached is not None:
            self._hot.move_to_end(r)
            return cached
        t_parts: list[np.ndarray] = []
        w_parts: list[np.ndarray] = []
        for li in range(int(self.row_indptr[r]), int(self.row_indptr[r + 1])):
            wlo, whi = int(self.level_indptr[li]), int(self.level_indptr[li + 1])
            hit = decode_indices(self.words[wlo:whi], self.n)
            t_parts.append(hit)
            w_parts.append(
                np.full(len(hit), int(self.level_weights[li]), dtype=np.int64)
            )
        if t_parts:
            targets = np.concatenate(t_parts)
            weights = np.concatenate(w_parts)
            order = np.argsort(targets, kind="stable")
            pair = (targets[order], weights[order])
        else:
            pair = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        self._hot[r] = pair
        if len(self._hot) > self._hot_cap:
            self._hot.popitem(last=False)
        return pair

    def lookup(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Stored weights for aligned (u, v) arrays — the
        :meth:`~repro.core.batch.KeyedRowStore.lookup` contract, served
        from decompress-on-touch rows."""
        from repro.core.batch import MISSING_WEIGHT

        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if len(u) == 0:
            return np.empty(0, dtype=np.int64)
        if faults.ENABLED:
            faults.fire("batch.kernel_slow")
        out = np.full(len(u), MISSING_WEIGHT, dtype=np.int64)
        n_rows = len(self.cover_ids)
        if n_rows == 0:
            return out
        ri = np.minimum(np.searchsorted(self.cover_ids, u), n_rows - 1)
        vi = np.flatnonzero(self.cover_ids[ri] == u)
        if vi.size == 0:
            return out
        vi = vi[np.argsort(ri[vi], kind="stable")]  # group probes by row
        uniq_rows, starts = np.unique(ri[vi], return_index=True)
        bounds = np.append(starts, vi.size)
        for j, r in enumerate(uniq_rows.tolist()):
            sel = vi[bounds[j] : bounds[j + 1]]
            targets, weights = self._row_arrays(r)
            if targets.size == 0:
                continue
            pos = np.minimum(
                np.searchsorted(targets, v[sel]), targets.size - 1
            )
            hit = targets[pos] == v[sel]
            out[sel[hit]] = weights[pos[hit]]
        return out

    def weight_of(self, u: int, v: int) -> int | None:
        """Scalar probe (the compressed scalar-view backend)."""
        from repro.core.batch import MISSING_WEIGHT

        w = self.lookup(
            np.asarray([u], dtype=np.int64), np.asarray([v], dtype=np.int64)
        )[0]
        return None if w == MISSING_WEIGHT else int(w)

    def storage_bytes(self) -> int:
        """Compressed payload + offsets + the cover-id table."""
        return int(
            self.words.nbytes
            + self.level_indptr.nbytes
            + self.level_weights.nbytes
            + self.row_indptr.nbytes
            + self.cover_ids.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WahRowStore(rows={len(self.cover_ids)}, "
            f"levels={len(self.level_weights)}, words={len(self.words)})"
        )


def rows_to_arrays(rows: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a legacy ``{u: row}`` mapping to ``(u * n + v, weight)`` arrays.

    Conversion helper for code that still holds nested-dict rows (tests,
    tools, the dynamic index): plain dict rows flatten through chained
    ``fromiter`` columns, :class:`CompressedRow` values through their
    vectorized :meth:`CompressedRow.arrays` decode.  Keys come back sorted
    when the input rows list their targets in ascending order (the common
    case); callers that cannot guarantee it should sort.
    """
    from itertools import chain

    key_parts: list[np.ndarray] = []
    weight_parts: list[np.ndarray] = []
    plain: list[tuple[int, dict]] = []
    compressed: list[tuple[int, CompressedRow]] = []
    for u, row in rows.items():
        if isinstance(row, dict):
            plain.append((u, row))
        else:
            compressed.append((u, row))
    plain.sort(key=lambda item: item[0])
    if plain:
        counts = np.fromiter(
            (len(row) for _, row in plain), dtype=np.int64, count=len(plain)
        )
        total = int(counts.sum())
        targets = np.fromiter(
            chain.from_iterable(row.keys() for _, row in plain),
            dtype=np.int64,
            count=total,
        )
        weights = np.fromiter(
            chain.from_iterable(row.values() for _, row in plain),
            dtype=np.int64,
            count=total,
        )
        sources = np.repeat(
            np.fromiter((u for u, _ in plain), dtype=np.int64, count=len(plain)),
            counts,
        )
        key_parts.append(sources * n + targets)
        weight_parts.append(weights)
    for u, row in compressed:  # vectorized per-level bitmap decode
        targets, weights = row.arrays()
        key_parts.append(np.int64(u) * n + targets)
        weight_parts.append(weights)
    if not key_parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    keys = np.concatenate(key_parts) if len(key_parts) > 1 else key_parts[0]
    weights = (
        np.concatenate(weight_parts) if len(weight_parts) > 1 else weight_parts[0]
    )
    return keys, weights


def compress_rows(
    rows: dict[int, dict[int, int]], universe: int, threshold: int
) -> dict[int, "dict[int, int] | CompressedRow"]:
    """Compress every row with at least ``threshold`` entries.

    Small rows stay plain dicts (a bitmap would cost more than it saves and
    dict probes are faster); hub rows become :class:`CompressedRow`.
    """
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    out: dict[int, dict[int, int] | CompressedRow] = {}
    for u, row in rows.items():
        if len(row) >= threshold:
            out[u] = CompressedRow(row, universe)
        else:
            out[u] = row
    return out
