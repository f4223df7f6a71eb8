"""Pruned landmark labeling — the shortest-path-distance comparator.

**Substitution note**: the paper's µ-dist column (Table 7)
uses the 2-hop-cover distance index of Cheng & Yu (EDBT 2009 — [13]),
which is closed C++.  We substitute Pruned Landmark Labeling (Akiba,
Iwata & Yoshida, SIGMOD 2013) — the canonical modern 2-hop *distance*
labeling for directed graphs.  Both index families store, per vertex, two
label sets of (hub, distance) pairs and answer

    dist(s, t) = min over common hubs w of  d(s → w) + d(w → t),

so the substitution preserves exactly what the paper measures: a distance
index can answer k-hop reachability (``dist ≤ k``), but pays for the full
distance information at both construction and query time (§3.5).

Construction runs one forward and one backward *pruned* BFS per vertex in
descending-degree order; a visit is pruned when the labels built so far
already certify a distance no longer than the tentative one.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.baselines.base import ReachabilityIndex
from repro.graph.digraph import DiGraph

__all__ = ["PrunedLandmarkIndex"]

_INF = float("inf")


class PrunedLandmarkIndex(ReachabilityIndex):
    """Exact 2-hop distance labeling for directed graphs.

    >>> from repro.graph.generators import path_graph
    >>> ix = PrunedLandmarkIndex(path_graph(5))
    >>> ix.distance(0, 3)
    3
    >>> ix.reaches_within(0, 3, 2)
    False
    """

    name = "dist"

    def __init__(self, graph: DiGraph) -> None:
        super().__init__(graph)
        n = graph.n
        # Landmarks in descending degree order; labels are keyed by
        # landmark *rank* so pruning comparisons follow the same order.
        self._order = np.argsort(-graph.degrees(), kind="stable")
        # label_in[v][r]  = dist(landmark_r -> v)
        # label_out[v][r] = dist(v -> landmark_r)
        self._label_in: list[dict[int, int]] = [dict() for _ in range(n)]
        self._label_out: list[dict[int, int]] = [dict() for _ in range(n)]
        for rank in range(n):
            landmark = int(self._order[rank])
            self._pruned_bfs(landmark, rank, forward=True)
            self._pruned_bfs(landmark, rank, forward=False)

    def _labels_distance(self, s: int, t: int) -> float:
        """Distance via the current (partial) labels."""
        out_s = self._label_out[s]
        in_t = self._label_in[t]
        if len(out_s) > len(in_t):
            best = _INF
            for r, d2 in in_t.items():
                d1 = out_s.get(r)
                if d1 is not None and d1 + d2 < best:
                    best = d1 + d2
            return best
        best = _INF
        for r, d1 in out_s.items():
            d2 = in_t.get(r)
            if d2 is not None and d1 + d2 < best:
                best = d1 + d2
        return best

    def _pruned_bfs(self, landmark: int, rank: int, *, forward: bool) -> None:
        """Forward BFS grows ``label_in`` of reached vertices; backward BFS
        grows ``label_out``."""
        g = self.graph
        if forward:
            indptr, indices = g.out_indptr, g.out_indices
        else:
            indptr, indices = g.in_indptr, g.in_indices
        dist: dict[int, int] = {landmark: 0}
        queue: deque[int] = deque([landmark])
        while queue:
            u = queue.popleft()
            d = dist[u]
            # Prune: the existing labels already certify a path this short.
            if forward:
                if u != landmark and self._labels_distance(landmark, u) <= d:
                    continue
                self._label_in[u][rank] = d
            else:
                if u != landmark and self._labels_distance(u, landmark) <= d:
                    continue
                self._label_out[u][rank] = d
            for v in indices[indptr[u] : indptr[u + 1]]:
                v = int(v)
                if v not in dist:
                    dist[v] = d + 1
                    queue.append(v)
        if forward:
            self._label_in[landmark][rank] = 0
        else:
            self._label_out[landmark][rank] = 0

    def distance(self, s: int, t: int) -> float:
        """Exact shortest-path distance; ``inf`` when unreachable."""
        self._check_pair(s, t)
        if s == t:
            return 0
        return self._labels_distance(s, t)

    def reaches(self, s: int, t: int) -> bool:
        """Classic reachability via the distance labels."""
        return self.distance(s, t) < _INF

    def reaches_within(self, s: int, t: int, k: int) -> bool:
        """k-hop reachability the expensive way: full distance, then compare."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return self.distance(s, t) <= k

    @property
    def label_entries(self) -> int:
        """Total (hub, distance) pairs across both label sides."""
        return sum(len(d) for d in self._label_in) + sum(
            len(d) for d in self._label_out
        )

    def average_label_size(self) -> float:
        """Mean label entries per vertex (the PLL quality metric)."""
        return self.label_entries / max(1, self.graph.n)

    def storage_bytes(self) -> int:
        """8 bytes per label entry (4-byte hub + 4-byte distance)."""
        return 8 * self.label_entries
