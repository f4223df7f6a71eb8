"""An independent k-hop reachability oracle for checking verdicts.

A bit-parallel breadth-first search over plain edge arrays, sharing no
code with the program under test: 64 sources share one ``uint64`` word
per vertex, and each level ORs the frontier words of every edge's head
into its tail.  It answers ``d(s, t) <= k`` exactly (``s == t`` is
always reachable).
"""

from __future__ import annotations

import numpy as np

_WORD = 64


class _Levels:
    """The edges grouped by tail, ready for one BFS level per call."""

    def __init__(self, n: int, edges: np.ndarray, k: int) -> None:
        by_tail = np.argsort(edges[:, 1], kind="stable")
        self.n, self.k = n, k
        self.heads = edges[by_tail, 0]
        tails = edges[by_tail, 1]
        self.starts = np.flatnonzero(np.r_[True, tails[1:] != tails[:-1]])
        self.reached = tails[self.starts]

    def seen(self, members: np.ndarray) -> np.ndarray:
        """Bit ``i`` of word ``v``: ``v`` is within ``k`` hops of ``members[i]``."""
        seen = np.zeros(self.n, dtype=np.uint64)
        seen[members] = np.uint64(1) << np.arange(len(members), dtype=np.uint64)
        frontier = seen.copy()
        for _level in range(self.k if len(self.heads) else 0):
            step = np.zeros(self.n, dtype=np.uint64)
            step[self.reached] = np.bitwise_or.reduceat(frontier[self.heads], self.starts)
            frontier = step & ~seen
            if not frontier.any():
                break
            seen |= frontier
        return seen


class Closure:
    """Every source's k-hop ball, one bit per pair: ``n * n / 8`` bytes."""

    def __init__(self, n: int, edges: np.ndarray, k: int) -> None:
        levels = _Levels(n, edges, k)
        self._rows = np.stack([
            levels.seen(np.arange(lo, min(lo + _WORD, n)))
            for lo in range(0, n, _WORD)
        ])

    def reaches(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Whether ``t[i]`` is within ``k`` hops of ``s[i]``, for every ``i``."""
        s = np.asarray(s, dtype=np.int64)
        words = self._rows[s // _WORD, np.asarray(t, dtype=np.int64)]
        return ((words >> (s % _WORD).astype(np.uint64)) & np.uint64(1)).astype(bool)


def reaches_within(
    n: int, edges: np.ndarray, s: np.ndarray, t: np.ndarray, k: int
) -> np.ndarray:
    """Whether ``t[i]`` is within ``k`` hops of ``s[i]``, searching only
    from the sources asked about."""
    s = np.asarray(s, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    out = s == t
    levels = _Levels(n, edges, k)
    sources, inverse = np.unique(s, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    bounds = np.searchsorted(
        inverse[order], np.arange(0, len(sources) + _WORD, _WORD)
    )
    for block, lo in enumerate(range(0, len(sources), _WORD)):
        seen = levels.seen(sources[lo : lo + _WORD])
        pick = order[bounds[block] : bounds[block + 1]]
        shift = (inverse[pick] - lo).astype(np.uint64)
        out[pick] |= ((seen[t[pick]] >> shift) & np.uint64(1)).astype(bool)
    return out
