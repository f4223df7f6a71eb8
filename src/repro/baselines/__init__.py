"""Re-implemented comparator indexes from the paper's evaluation.

Every comparator in the paper is closed-source C++; each is re-implemented
here from its published algorithm (GRAIL, PWAH, BFS, transitive closure)
or by a documented same-family stand-in (PTree → tree cover, 3-hop → chain
cover, µ-dist → pruned landmark labeling).  Each stand-in module's
docstring opens with its substitution note: what the paper compared
against and which part of it the stand-in implements.
"""

from repro.baselines.base import (
    IndexBudgetExceeded,
    ReachabilityIndex,
    UnsupportedQueryError,
)
from repro.baselines.bfs import BfsIndex
from repro.baselines.bibfs import BidirectionalBfsIndex
from repro.baselines.chain_cover import ChainCoverIndex
from repro.baselines.grail import GrailIndex
from repro.baselines.path_tree import PathTreeIndex
from repro.baselines.pll import PrunedLandmarkIndex
from repro.baselines.pwah import PwahIndex
from repro.baselines.transitive_closure import TransitiveClosureIndex

__all__ = [
    "ReachabilityIndex",
    "UnsupportedQueryError",
    "IndexBudgetExceeded",
    "BfsIndex",
    "BidirectionalBfsIndex",
    "ChainCoverIndex",
    "GrailIndex",
    "PathTreeIndex",
    "PrunedLandmarkIndex",
    "PwahIndex",
    "TransitiveClosureIndex",
]
