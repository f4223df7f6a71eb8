"""repro — a reproduction of "K-Reach: Who is in Your Small World" (VLDB 2012).

Public API highlights:

* :class:`repro.DiGraph` — the CSR graph substrate.
* :class:`repro.KReachIndex` — the paper's k-hop reachability index.
* :class:`repro.HKReachIndex` — the h-hop-cover space-saving variant.
* :class:`repro.CoverDistanceOracle` — exact answers for any hop budget
  k from one cover-distance index, and shortest-path distances (§4.4).
* :mod:`repro.baselines` — re-implementations of the comparator indexes
  (GRAIL, PWAH, tree cover, chain cover, PLL, BFS).
* :mod:`repro.datasets` — calibrated synthetic stand-ins for the paper's
  15 real datasets.
* :mod:`repro.bench` — the harness regenerating the paper's Tables 2–9.
"""

from repro.core import (
    CoverDistanceOracle,
    DynamicKReachIndex,
    HKReachIndex,
    KReachIndex,
)
from repro.graph import DiGraph, GraphBuilder

__version__ = "1.0.0"

__all__ = [
    "DiGraph",
    "GraphBuilder",
    "KReachIndex",
    "HKReachIndex",
    "DynamicKReachIndex",
    "CoverDistanceOracle",
    "__version__",
]
