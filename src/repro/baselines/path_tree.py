"""Tree-cover interval labeling — the PTree family's interval core.

**Substitution note**: the paper compares against Path-Tree
(Jin et al., SIGMOD 2008 — [24]), whose C++ implementation is not
available.  Path-Tree layers a tree-of-paths over the interval-labeling
idea of Agrawal, Borgida & Jagadish (SIGMOD 1989 — reference [2] of the
paper); we implement that interval core directly:

1. condense the graph (§3.1) and pick a spanning forest of the DAG;
2. number vertices in forest post-order, so each vertex's subtree is the
   contiguous interval ``[post - size + 1, post]``;
3. propagate, in reverse topological order, each vertex's *interval set*
   (its own tree interval merged with all successors' sets, coalescing
   overlaps and adjacencies);
4. ``u → v`` iff ``post(v)`` lies in one of ``u``'s intervals (binary
   search).

The same query shape (interval containment over a traversal numbering,
§3.2) and the same reason it cannot answer k-hop queries: the intervals
erase all distance information.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import ReachabilityIndex
from repro.graph.digraph import DiGraph
from repro.graph.scc import condensation

__all__ = ["PathTreeIndex"]


class PathTreeIndex(ReachabilityIndex):
    """Interval-set reachability labeling over a DAG spanning forest.

    >>> from repro.graph.generators import random_dag
    >>> ix = PathTreeIndex(random_dag(30, 60, seed=1))
    >>> isinstance(ix.reaches(0, 29), bool)
    True
    """

    name = "PTree"

    def __init__(self, graph: DiGraph) -> None:
        super().__init__(graph)
        cond = condensation(graph)
        self._comp = cond.component_of
        dag = cond.dag
        n = dag.n

        # --- spanning forest: each vertex adopts one in-neighbor as parent.
        # Tarjan ids decrease along edges, so in-neighbors have larger ids
        # and processing ids in decreasing order visits parents first.
        parent = np.full(n, -1, dtype=np.int64)
        children: list[list[int]] = [[] for _ in range(n)]
        for v in range(n - 1, -1, -1):
            preds = dag.in_neighbors(v)
            if len(preds):
                p = int(preds[-1])  # deterministic pick: largest-id parent
                parent[v] = p
                children[p].append(v)

        # --- post-order numbering + subtree sizes over the forest.
        post = np.zeros(n, dtype=np.int64)
        size = np.ones(n, dtype=np.int64)
        counter = 1
        for root in range(n - 1, -1, -1):
            if parent[root] != -1:
                continue
            stack: list[tuple[int, int]] = [(root, 0)]
            while stack:
                u, child_i = stack.pop()
                if child_i < len(children[u]):
                    stack.append((u, child_i + 1))
                    stack.append((children[u][child_i], 0))
                else:
                    post[u] = counter
                    counter += 1
                    for c in children[u]:
                        size[u] += size[c]
        self._post = post

        # --- interval sets, propagated children-first (increasing id).
        intervals: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for v in range(n):
            own = (int(post[v] - size[v] + 1), int(post[v]))
            merged = [own]
            for w in dag.out_neighbors(v):
                merged.extend(intervals[int(w)])
            intervals[v] = _coalesce(merged)
        self._starts = [np.asarray([a for a, _ in ivs], dtype=np.int64) for ivs in intervals]
        self._ends = [np.asarray([b for _, b in ivs], dtype=np.int64) for ivs in intervals]

    def reaches(self, s: int, t: int) -> bool:
        """Binary search ``post(t)`` in ``s``'s interval set."""
        self._check_pair(s, t)
        cs, ct = int(self._comp[s]), int(self._comp[t])
        if cs == ct:
            return True
        target = int(self._post[ct])
        starts = self._starts[cs]
        i = int(np.searchsorted(starts, target, side="right")) - 1
        return i >= 0 and target <= int(self._ends[cs][i])

    @property
    def interval_count(self) -> int:
        """Total intervals stored (the index's dominant size term)."""
        return sum(len(s) for s in self._starts)

    def storage_bytes(self) -> int:
        """8 bytes per interval + post numbers + component map."""
        return 8 * self.interval_count + 4 * len(self._post) + 4 * self.graph.n


def _coalesce(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sort and merge overlapping or adjacent integer intervals.

    Adjacent intervals ([1,2], [3,5]) merge to [1,5]: post numbers are
    dense integers, so the merged interval covers exactly the union.
    """
    if not intervals:
        return []
    intervals = sorted(intervals)
    out = [intervals[0]]
    for a, b in intervals[1:]:
        la, lb = out[-1]
        if a <= lb + 1:
            if b > lb:
                out[-1] = (la, b)
        else:
            out.append((a, b))
    return out
