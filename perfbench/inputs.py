"""Seeded inputs: graphs, query pairs, front-door traffic and churn.

The benchmark draws every input itself from ``--seed``, so a change to
the program's own generators cannot change what is measured.  Sizes are
fixed; only the random draws depend on the seed.

Graph sizes come from Table 2 of Cheng et al., "K-Reach: Who is in Your
Small World" (PVLDB 5(11), 2012): ``(n, m, deg_max)`` of two rows, one
sparse and one dense.  The road lattice follows Goodrich & Ozel,
"Modeling the Small-World Phenomenon with Road Networks" (arXiv
2209.09888), which takes road networks as the high-diameter base of a
small world.  The crossfire graph has the shape of the program's
``celebrity_crossfire_digraph`` (the paper's §1 hub×hub story).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: Table 2, GO (gene ontology, a DAG): sparse, m/n = 1.97.
GO = (6_793, 13_361, 71)
#: Table 2, ArXiv (citation DAG): dense, m/n = 11.1.
ARXIV = (6_000, 66_707, 700)


def _hub_exponent(n: int, draws: int, deg_max: int) -> float:
    """Chung–Lu exponent ``a`` (weights ``i ** -a``) whose top vertex
    expects ``deg_max`` of ``draws`` edges' endpoints (heads and tails)."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    lo, hi = 0.0, 4.0
    for _ in range(40):
        a = (lo + hi) / 2
        w = ranks**-a
        if 2 * draws * w[0] / w.sum() < deg_max:
            lo = a
        else:
            hi = a
    return (lo + hi) / 2


def small_world_dag(n: int, m: int, deg_max: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly ``m`` distinct edges of a small-world DAG with hubs.

    Half the edges are Watts–Strogatz ring edges from a vertex to one of
    its next ``max(3, ceil(m / n))`` successors; the rest are shortcuts
    whose endpoints are drawn with Chung–Lu weights, their exponent set
    so that the top vertex expects ``deg_max`` edges (deduplication then
    trims it).  The weight profile is fixed and only its assignment to
    vertices is random, so the degree sequence barely moves between
    seeds.  Every edge points from the larger id to the smaller, as a
    citation points from a newer paper to an older one; both Table-2
    rows used here are DAGs.  Returns an ``(m, 2)`` int64 array in
    random order.
    """
    ring = m // 2
    span = max(3, -(-m // n))
    u = rng.integers(0, n, size=ring)
    edges = np.stack([u, (u + rng.integers(1, span + 1, size=ring)) % n], 1)
    profile = np.arange(1, n + 1, dtype=np.float64) ** -_hub_exponent(n, m - ring, deg_max)
    weights = np.cumsum(profile[rng.permutation(n)])
    while len(edges) < m:
        need = m - len(edges)
        heads = np.searchsorted(weights, rng.random(need) * weights[-1])
        tails = np.searchsorted(weights, rng.random(need) * weights[-1])
        edges = np.concatenate([edges, np.stack([heads, tails], 1)])
        edges = np.sort(edges, axis=1)[:, ::-1]
        edges = np.unique(edges[edges[:, 0] != edges[:, 1]], axis=0)
    return edges[rng.permutation(len(edges))[:m]]


def celebrity_crossfire(
    brokers: int, celebrities: int, degree: int, backbone: int, rng
) -> np.ndarray:
    """Brokers wired by ``backbone`` random edges; each celebrity (ids
    ``brokers ..``) fires ``degree`` edges into the brokers and receives
    ``degree`` from them.  A celebrity × celebrity pair is Algorithm 2's
    Case 4 with a ``degree × degree`` neighbour product."""
    celebs = brokers + np.repeat(np.arange(celebrities), degree)
    edges = np.concatenate([
        rng.integers(0, brokers, size=(backbone, 2)),
        np.stack([celebs, rng.integers(0, brokers, size=len(celebs))], 1),
        np.stack([rng.integers(0, brokers, size=len(celebs)), celebs], 1),
    ])
    return np.unique(edges[edges[:, 0] != edges[:, 1]], axis=0)


def road_lattice(side: int, keep: float, rng) -> np.ndarray:
    """A ``side × side`` street grid: each block side is a two-way road
    with probability ``keep``.  Vertex ``r * side + c`` sits at row
    ``r``, column ``c``; the diameter is about ``2 * side``."""
    ids = np.arange(side * side).reshape(side, side)
    segments = np.concatenate([
        np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], 1),
        np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], 1),
    ])
    segments = segments[rng.random(len(segments)) < keep]
    return np.unique(np.concatenate([segments, segments[:, ::-1]]), axis=0)


def nearby(side: int, sources: np.ndarray, radius: int, rng) -> np.ndarray:
    """For each source a lattice vertex at most ``radius`` rows and
    ``radius`` columns away (clipped at the border)."""
    offsets = rng.integers(-radius, radius + 1, size=(len(sources), 2))
    rows = np.clip(sources // side + offsets[:, 0], 0, side - 1)
    cols = np.clip(sources % side + offsets[:, 1], 0, side - 1)
    return rows * side + cols


def write_edge_list(path: Path, edges: np.ndarray) -> Path:
    """Write ``edges`` as a SNAP-style text edge list."""
    with open(path, "w") as fh:
        fh.write("# directed graph: one 'head tail' pair per line\n")
        np.savetxt(fh, edges, fmt="%d")
    return path


def zipf_draws(size: int, count: int, exponent: float, rng) -> np.ndarray:
    """``count`` ranks in ``[0, size)`` with ``P(rank r) ∝ (r + 1) ** -exponent``."""
    weights = np.cumsum(np.arange(1, size + 1, dtype=np.float64) ** -exponent)
    return np.searchsorted(weights, rng.random(count) * weights[-1])


class LiveEdges:
    """The current edge set under churn, and the writes that change it.

    Inserts add a uniformly drawn absent edge; deletes remove a uniformly
    drawn live one.  Every write therefore changes the graph.
    """

    def __init__(self, n: int, edges: np.ndarray, rng) -> None:
        self.n = n
        self._rng = rng
        self._list = [(int(u), int(v)) for u, v in edges.tolist()]
        self._pos = {edge: i for i, edge in enumerate(self._list)}

    def burst(self, size: int) -> list[tuple[bool, int, int]]:
        """``size`` writes, half inserts on average: ``(insert, u, v)``."""
        out = []
        for insert in (self._rng.random(size) < 0.5).tolist():
            if insert:
                while True:
                    u, v = self._rng.integers(0, self.n, size=2).tolist()
                    if u != v and (u, v) not in self._pos:
                        break
                self._pos[(u, v)] = len(self._list)
                self._list.append((u, v))
            else:
                i = int(self._rng.integers(0, len(self._list)))
                u, v = self._list[i]
                last = self._list.pop()
                if i < len(self._list):
                    self._list[i] = last
                    self._pos[last] = i
                del self._pos[(u, v)]
            out.append((insert, u, v))
        return out

    def array(self) -> np.ndarray:
        """The live edges as an ``(m, 2)`` int64 array."""
        return np.asarray(self._list, dtype=np.int64).reshape(-1, 2)
