"""Loop-level kernel bodies for the native (JIT-compiled) tier.

Every function here is written twice-compatible: it runs as plain Python
(slow, but exactly the semantics the tests pin) and it compiles cleanly
under ``numba.njit(nogil=True)`` — :mod:`repro.native` applies the
decorator lazily the first time the numba tier is activated, validates
the compiled kernel against its numpy twin on a smoke input, and falls
back to numpy if anything about the compile or the validation goes
wrong.  This module must therefore import without numba installed; the
only conditional is ``prange``, which degrades to ``range``.

Rules the bodies follow so numba's type inference stays happy:

* uint64 bit arithmetic never mixes with signed ints (the classic numba
  pitfall where ``uint64 + int64`` promotes to ``float64``): shifts and
  masks go through explicit ``np.uint64`` casts.
* ``prange`` is used only where iterations are independent; kernels with
  cross-iteration writes (segmented OR, bit scatter) stay sequential —
  they are still an order of magnitude past numpy because they run in
  one pass with no temporaries.
* Scratch buffers that must be vertex-sized are passed in by the caller
  (allocated once per public call, reused across BFS levels) and
  restored to all-zeros before returning.

The dispatched signatures are the contract: :mod:`repro.bitsets.ops`,
:mod:`repro.core.batch` and :mod:`repro.graph.traversal` register each
body together with a numpy implementation of the *same* signature, and
``tests/test_native.py`` pins them equal across tiers.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only on numba-equipped hosts
    from numba import prange
except ImportError:  # plain-Python fallback: prange is just range
    prange = range

__all__ = [
    "and_any",
    "gather_and_any",
    "or_rows_into",
    "set_bits_into",
    "probe_bits",
    "keyed_lookup",
    "expand_frontier",
]


def and_any(a, b):
    """Row-wise ``any(a[i] & b[i])`` without materializing ``a & b``.

    The numpy twin allocates a full ``(rows, words)`` temporary and
    scans it; this body short-circuits per row at the first hot word.
    """
    rows = a.shape[0]
    words = a.shape[1]
    out = np.zeros(rows, dtype=np.bool_)
    for i in prange(rows):
        hit = False
        for w in range(words):
            if a[i, w] & b[i, w]:
                hit = True
                break
        out[i] = hit
    return out


def gather_and_any(ubits, tbits, s_idx, t_idx):
    """Fused gather + AND-any: ``any(ubits[s_idx[i]] & tbits[t_idx[i]])``.

    The Case-4 verdict loop: one row of per-source OR-folded link bits
    against one row of per-target neighbor bits, per pair, with no
    gathered ``(pairs, words)`` temporaries.
    """
    m = s_idx.shape[0]
    words = ubits.shape[1]
    out = np.zeros(m, dtype=np.bool_)
    for i in prange(m):
        si = s_idx[i]
        ti = t_idx[i]
        hit = False
        for w in range(words):
            if ubits[si, w] & tbits[ti, w]:
                hit = True
                break
        out[i] = hit
    return out


def or_rows_into(matrix, rows, owner, out):
    """Segmented OR of matrix rows: ``out[owner[i]] |= matrix[rows[i]]``.

    Sequential on purpose — ``owner`` carries duplicates, so iterations
    are not independent — but it runs in one pass over the gather stream
    with no ``(chunk, words)`` temporaries or reduceat bookkeeping.
    ``owner`` need not be sorted here (the numpy twin requires it).
    """
    words = matrix.shape[1]
    for i in range(rows.shape[0]):
        r = rows[i]
        o = owner[i]
        for w in range(words):
            out[o, w] |= matrix[r, w]
    return out


def set_bits_into(matrix, rows, cols):
    """Bit scatter: set bit ``cols[i]`` of ``matrix[rows[i]]``, in place.

    Duplicate ``(row, col)`` targets accumulate (like
    ``np.bitwise_or.at``, unlike a fancy-index ``|=``).
    """
    one = np.uint64(1)
    for i in range(rows.shape[0]):
        c = cols[i]
        matrix[rows[i], c >> 6] |= one << np.uint64(c & 63)
    return matrix


def probe_bits(matrix, rows, cols):
    """Per-element membership probe: is bit ``cols[i]`` set in
    ``matrix[rows[i]]``?"""
    m = rows.shape[0]
    out = np.zeros(m, dtype=np.bool_)
    one = np.uint64(1)
    zero = np.uint64(0)
    for i in prange(m):
        c = cols[i]
        word = matrix[rows[i], c >> 6]
        out[i] = ((word >> np.uint64(c & 63)) & one) != zero
    return out


def keyed_lookup(keys, weights, u, v, n, missing):
    """Bulk sorted-key weight lookup: one binary search per (u, v) pair.

    ``keys`` are the sorted ``u * n + v`` edge keys of a
    :class:`~repro.core.batch.KeyedRowStore`; misses yield ``missing``.
    Embarrassingly parallel — each probe is an independent search.
    """
    m = u.shape[0]
    kn = keys.shape[0]
    out = np.empty(m, dtype=np.int64)
    for i in prange(m):
        probe = u[i] * n + v[i]
        lo = 0
        hi = kn
        while lo < hi:
            mid = (lo + hi) >> 1
            if keys[mid] < probe:
                lo = mid + 1
            else:
                hi = mid
        if lo < kn and keys[lo] == probe:
            out[i] = weights[lo]
        else:
            out[i] = missing
    return out


def expand_frontier(indptr, indices, front_v, front_m, visited, next_mask):
    """One level of blocked MS-BFS: expand ``(front_v, front_m)`` by the CSR.

    Returns ``(nv, nm)`` — the newly reached vertices in ascending order
    with their (not-yet-visited) source-bit masks, exactly the numpy
    twin's gather → OR-merge → novelty-filter output, computed as a
    direct scatter: each traversed edge ORs its mask into a
    vertex-indexed accumulator, so the per-level cost is O(edges
    traversed) with no gathered neighbor/mask temporaries and no sort of
    the whole adjacency stream (only the touched vertices are sorted).

    ``visited`` is read, not written — the caller commits ``nv``/``nm``
    after emitting, same as the numpy path.  ``next_mask`` is caller-
    provided all-zeros uint64 scratch of length ``n``; it is restored to
    zeros before returning.
    """
    zero = np.uint64(0)
    touched = np.empty(visited.shape[0], dtype=np.int64)
    count = 0
    for i in range(front_v.shape[0]):
        u = front_v[i]
        mask = front_m[i]
        for e in range(indptr[u], indptr[u + 1]):
            v = indices[e]
            fresh = mask & ~visited[v]
            if fresh != zero:
                if next_mask[v] == zero:
                    touched[count] = v
                    count += 1
                next_mask[v] |= fresh
    nv = np.sort(touched[:count])
    nm = np.empty(count, dtype=np.uint64)
    for j in range(count):
        nm[j] = next_mask[nv[j]]
    for j in range(count):
        next_mask[touched[j]] = zero
    return nv, nm
