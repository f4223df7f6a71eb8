"""Chain-cover compressed transitive closure — the 3-hop family's substrate.

**Substitution note**: the paper compares against 3-hop
(Jin et al., SIGMOD 2009 — [23]), whose code is unavailable.  3-hop builds
a 2-hop-style labeling *between chains* of a chain decomposition; the chain
machinery itself is Jagadish's chain-cover transitive-closure compression
(ACM TODS 1990 — reference [19] of the paper, §3.3's "chain cover based
approach").  We implement that substrate:

1. condense the graph, decompose the DAG into vertex-disjoint paths
   ("chains" — consecutive chain elements are edges, hence reachable);
2. label each vertex with ``(chain, position)``;
3. for every vertex, store for each chain the *minimum position it can
   reach* on that chain (propagated in reverse topological order);
4. ``u → v`` iff ``min_reach[u][chain(v)] ≤ pos(v)``.

Two decompositions are available: a greedy topological sweep and the
minimum path cover via Hopcroft–Karp matching (Dilworth-style; fewer
chains, smaller labels, slower construction).

Like 3-hop in the paper's Table 3, construction degenerates on graphs
whose label volume explodes (the per-vertex chain vectors are the
O(n·chains) worst case); a configurable budget makes the index fail
loudly with :class:`IndexBudgetExceeded`, which the harness renders as the
paper's "-" entries.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import IndexBudgetExceeded, ReachabilityIndex
from repro.graph.digraph import DiGraph
from repro.graph.matching import hopcroft_karp
from repro.graph.scc import condensation

__all__ = ["ChainCoverIndex"]


class ChainCoverIndex(ReachabilityIndex):
    """Chain-cover compressed transitive closure.

    Parameters
    ----------
    graph:
        Input digraph.
    decomposition:
        ``'greedy'`` (default) or ``'matching'`` (minimum path cover via
        Hopcroft–Karp).
    max_label_entries:
        Abort construction with :class:`IndexBudgetExceeded` once the total
        number of (chain, position) label entries passes this budget —
        reproduces the "-" rows of the paper's Table 3.  ``None`` disables
        the guard.
    """

    name = "3-hop"

    def __init__(
        self,
        graph: DiGraph,
        *,
        decomposition: str = "greedy",
        max_label_entries: int | None = None,
    ) -> None:
        super().__init__(graph)
        if decomposition not in ("greedy", "matching"):
            raise ValueError(f"unknown decomposition {decomposition!r}")
        cond = condensation(graph)
        self._comp = cond.component_of
        dag = cond.dag
        n = dag.n

        if decomposition == "matching":
            successor = self._matching_successors(dag)
        else:
            successor = self._greedy_successors(dag)

        # Walk the successor links to assign (chain, position) labels.
        has_pred = np.zeros(n, dtype=bool)
        for v in range(n):
            if successor[v] != -1:
                has_pred[successor[v]] = True
        chain_of = np.full(n, -1, dtype=np.int64)
        pos_of = np.zeros(n, dtype=np.int64)
        chain_count = 0
        for v in range(n):
            if has_pred[v] or chain_of[v] != -1:
                continue
            u, pos = v, 0
            while u != -1:
                chain_of[u] = chain_count
                pos_of[u] = pos
                u = successor[u]
                pos += 1
            chain_count += 1
        self._chain_of = chain_of
        self._pos_of = pos_of
        self.chain_count = chain_count

        # min_reach[v] : chain -> minimum reachable position (includes v).
        min_reach: list[dict[int, int]] = [dict() for _ in range(n)]
        total_entries = 0
        for v in range(n):  # increasing id = successors first (Tarjan order)
            row: dict[int, int] = {int(chain_of[v]): int(pos_of[v])}
            for w in dag.out_neighbors(v):
                for c, p in min_reach[int(w)].items():
                    cur = row.get(c)
                    if cur is None or p < cur:
                        row[c] = p
            min_reach[v] = row
            total_entries += len(row)
            if max_label_entries is not None and total_entries > max_label_entries:
                raise IndexBudgetExceeded(
                    f"chain-cover labels exceeded {max_label_entries} entries "
                    f"at vertex {v}/{n}"
                )
        self._min_reach = min_reach
        self.label_entries = total_entries

    @staticmethod
    def _greedy_successors(dag: DiGraph) -> np.ndarray:
        """Greedy path decomposition: sweep topological order (decreasing
        Tarjan id), each unassigned vertex grabs one free out-neighbor."""
        n = dag.n
        successor = np.full(n, -1, dtype=np.int64)
        claimed = np.zeros(n, dtype=bool)  # vertex already has a predecessor
        for v in range(n - 1, -1, -1):
            for w in dag.out_neighbors(v):
                w = int(w)
                if not claimed[w]:
                    successor[v] = w
                    claimed[w] = True
                    break
        return successor

    @staticmethod
    def _matching_successors(dag: DiGraph) -> np.ndarray:
        """Minimum path cover: max matching between out-slots and in-slots."""
        n = dag.n
        adjacency = [[int(w) for w in dag.out_neighbors(v)] for v in range(n)]
        match_left, _, _ = hopcroft_karp(adjacency, n, n)
        return np.asarray(match_left, dtype=np.int64)

    def reaches(self, s: int, t: int) -> bool:
        """One dict probe: min reachable position on t's chain vs pos(t)."""
        self._check_pair(s, t)
        cs, ct = int(self._comp[s]), int(self._comp[t])
        if cs == ct:
            return True
        p = self._min_reach[cs].get(int(self._chain_of[ct]))
        return p is not None and p <= int(self._pos_of[ct])

    def storage_bytes(self) -> int:
        """8 bytes per label entry + chain/pos arrays + component map."""
        n_dag = len(self._chain_of)
        return 8 * self.label_entries + 8 * n_dag + 4 * self.graph.n
