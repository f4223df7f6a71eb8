"""SCC condensation as a first-class k-reach preprocessing pass.

The paper's own evaluation setting is DAGs: every comparator it measures
against (PTree, 3-hop, GRAIL, PWAH — §3.1) condenses strongly connected
components into super-vertices before indexing, and Table 2 reports the
condensed ``|V_DAG|`` / ``|E_DAG|`` sizes.  :class:`CondensedKReach`
brings the same pass to this reproduction's index: build the
:class:`~repro.core.kreach.KReachIndex` on the condensation DAG (often
dramatically smaller on graphs with large SCCs) and translate queries
through component ids with one vectorized gather.

k-semantics
-----------
Let ``c(v)`` be the SCC of ``v``.  ``CondensedKReach`` answers a query
``(s, t)`` as ``KReach_dag(c(s), c(t))`` (with ``c(s) == c(t)`` true
immediately — vertices in one SCC reach each other).

* ``k is None`` (n-reach / plain reachability): **exact**.  ``s`` reaches
  ``t`` iff ``c(s)`` reaches ``c(t)`` in the condensation — this is the
  classical reduction every DAG-based scheme uses.
* finite ``k``: the answer is **SCC-hop reachability** — true iff there
  is a path from ``s`` to ``t`` using at most ``k`` edges that *cross an
  SCC boundary*, with edges inside an SCC free.  On a DAG every SCC is a
  single vertex, so this coincides with true k-reach (pinned by the
  differential tests); on a cyclic graph it is a superset of true
  k-reach (never a false negative: collapsing SCCs only shortens paths).
  That is the semantics one usually wants after declaring "everyone in a
  tight community is mutually close", and it is what the paper's DAG
  preprocessing implies; when exact hop counts through cycles matter,
  build :class:`~repro.core.kreach.KReachIndex` directly.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import as_pair_array, as_vertex_pair
from repro.graph.digraph import DiGraph
from repro.graph.scc import Condensation, condensation

__all__ = ["CondensedKReach"]


class CondensedKReach:
    """A :class:`~repro.core.kreach.KReachIndex` over the SCC condensation.

    Parameters
    ----------
    graph:
        The original (possibly cyclic) graph.
    k:
        Hop budget; ``None`` means plain reachability (n-reach).  See
        the module docstring for what finite ``k`` means across SCCs.
    cond:
        A precomputed :class:`~repro.graph.scc.Condensation` of
        ``graph`` (e.g. from a streamed-ingest pipeline that already
        condensed); computed here when omitted.
    kwargs:
        Forwarded to :class:`~repro.core.kreach.KReachIndex` (cover
        strategy, memory gate, ...).

    Examples
    --------
    >>> from repro.graph.generators import cycle_graph
    >>> idx = CondensedKReach(cycle_graph(5), 2)
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

    def query_batch(self, pairs, *, engine: str = "auto") -> np.ndarray:
        """Vectorized batch query; same engines and id validation as
        ``KReachIndex``.  Pairs inside one SCC map to one DAG vertex,
        which the index answers ``True``."""
        mapped = self.cond.map_pairs(as_pair_array(pairs, self.graph.n))
        return self.index.query_batch(mapped, engine=engine)

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
