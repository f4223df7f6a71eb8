"""Graph serialization as edge-list text.

Edge-list text (`.txt` / `.el`, optionally gzipped): one ``u v`` pair
per line, ``#``/``%`` comments allowed — the interchange format the
original datasets ship in.  Parsing is vectorized through the same
:func:`~repro.graph.ingest.parse_edge_block` helper the streamed
ingester uses; this eager reader stays as the small-graph differential
baseline for :func:`~repro.graph.ingest.ingest_edge_list`.  A write
followed by a read round-trips exactly (up to edge dedup, which
:class:`DiGraph` always performs).  A graph travels in binary form
inside its index's v6 file (:func:`~repro.core.serialize.save_mmap`).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.graph.digraph import DiGraph
from repro.graph.ingest import open_edge_stream, parse_edge_block

__all__ = ["write_edge_list", "read_edge_list"]


def write_edge_list(g: DiGraph, path: str | os.PathLike, *, header: bool = True) -> None:
    """Write ``g`` as an edge-list text file."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# directed graph: {g.n} vertices, {g.m} edges\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def read_edge_list(path: str | os.PathLike, *, n: int | None = None) -> DiGraph:
    """Read an edge-list text file (plain or gzip, detected by content).

    Lines starting with ``#`` or ``%`` are comments; blank lines are
    skipped; columns past the first two are ignored.  ``n`` forces the
    vertex-universe size (otherwise ``max id + 1``).  The whole file is
    parsed in memory — for inputs that do not fit, use
    :func:`~repro.graph.ingest.ingest_edge_list`.
    """
    path = Path(path)
    with open_edge_stream(path) as fh:
        data = fh.read()
    u, v = parse_edge_block(data, path=path)
    if u.size == 0:
        return DiGraph(n if n is not None else 0)
    size = n if n is not None else int(max(u.max(), v.max())) + 1
    return DiGraph(size, np.column_stack([u, v]))
