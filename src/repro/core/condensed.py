"""SCC condensation as a first-class n-reach preprocessing pass.

The paper's own evaluation setting is DAGs: every comparator it measures
against (PTree, 3-hop, GRAIL, PWAH — §3.1) condenses strongly connected
components into super-vertices before indexing, and Table 2 reports the
condensed ``|V_DAG|`` / ``|E_DAG|`` sizes.  :class:`CondensedKReach`
brings the same pass to this reproduction's index: build the n-reach
:class:`~repro.core.kreach.KReachIndex` on the condensation DAG (often
dramatically smaller on graphs with large SCCs) and translate queries
through component ids with one vectorized gather.

Let ``c(v)`` be the SCC of ``v``.  A query ``(s, t)`` is answered as
``NReach_dag(c(s), c(t))``, with ``c(s) == c(t)`` true immediately
(vertices in one SCC reach each other).  This is **exact** for plain
reachability: ``s`` reaches ``t`` iff ``c(s)`` reaches ``c(t)`` in the
condensation — the classical reduction every DAG-based scheme uses.

Only ``k=None`` is accepted; a finite ``k`` raises :class:`ValueError`.
Collapsing an SCC shortens every path through it, so a hop budget spent
on the condensation would answer a superset of k-reach on a cyclic
graph.  For finite k, build :class:`~repro.core.kreach.KReachIndex` on
the graph itself.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import as_pair_array, as_vertex_pair
from repro.graph.digraph import DiGraph
from repro.graph.scc import Condensation, condensation

__all__ = ["CondensedKReach"]


class CondensedKReach:
    """An n-reach :class:`~repro.core.kreach.KReachIndex` over the SCC
    condensation.

    Parameters
    ----------
    graph:
        The original (possibly cyclic) graph.
    k:
        Must be ``None`` (plain reachability); a finite hop budget
        raises :class:`ValueError` (see the module docstring).
    cond:
        A precomputed :class:`~repro.graph.scc.Condensation` of
        ``graph`` (e.g. from a streamed-ingest pipeline that already
        condensed); computed here when omitted.
    kwargs:
        Forwarded to :class:`~repro.core.kreach.KReachIndex` (``cover=``,
        ``bitset_matrix_bytes=``).

    Examples
    --------
    >>> from repro.graph.generators import cycle_graph
    >>> idx = CondensedKReach(cycle_graph(5), None)
    >>> idx.query(0, 3)   # same SCC: mutually reachable
    True
    """

    __slots__ = ("graph", "k", "cond", "index")

    def __init__(
        self,
        graph: DiGraph,
        k: int | None,
        *,
        cond: Condensation | None = None,
        **kwargs,
    ) -> None:
        from repro.core.kreach import KReachIndex

        if k is not None:
            raise ValueError(
                f"CondensedKReach answers k=None only (condensing SCCs "
                f"shortens paths); build KReachIndex for k={k}"
            )
        if cond is None:
            cond = condensation(graph)
        elif len(cond.component_of) != graph.n:
            raise ValueError(
                f"condensation covers {len(cond.component_of)} vertices, "
                f"graph has {graph.n}"
            )
        self.graph = graph
        self.k = k
        self.cond = cond
        self.index = KReachIndex(cond.dag, k, **kwargs)

    @property
    def num_components(self) -> int:
        return self.cond.num_components

    def query(self, s: int, t: int) -> bool:
        """Scalar query through the component mapping."""
        s, t = as_vertex_pair(s, t, self.graph.n)
        cs = int(self.cond.component_of[s])
        ct = int(self.cond.component_of[t])
        if cs == ct:
            return True
        return self.index.query(cs, ct)

    def query_batch(self, pairs) -> np.ndarray:
        """Vectorized batch query; same id validation as ``KReachIndex``.
        Pairs inside one SCC map to one DAG vertex, which the index
        answers ``True``."""
        mapped = self.cond.map_pairs(as_pair_array(pairs, self.graph.n))
        return self.index.query_batch(mapped)

    def prepare_batch(self) -> "CondensedKReach":
        self.index.prepare_batch()
        return self

    def storage_bytes(self) -> int:
        """Index bytes plus the vertex → component mapping."""
        return int(self.index.storage_bytes()) + self.cond.component_of.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CondensedKReach(n={self.graph.n}, "
            f"components={self.num_components}, k={self.k})"
        )
