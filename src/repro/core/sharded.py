"""Scatter-gather serving over a sharded index file.

:class:`ShardedQueryServer` is the multi-shard sibling of
:class:`~repro.core.serve.QueryServer`: it opens a
:func:`~repro.core.serialize.save_sharded` file, runs one worker pool
per shard, each opening its own shard's sections of that file (process
pools by default, thread pools on the native tier), and keeps the
single-server contract intact — it runs on the
same ticket core as the pools (``submit``/``collect`` tickets,
``timeout=``/``deadline=`` bounds, verdicts reassembled in input order,
one ``stats()`` schema), and its answers are **bit-identical** to the
unsharded index.

Scatter: :meth:`submit` routes every ``(s, t)`` pair to its owning
shard (see :meth:`~repro.core.partition.ShardedKReach.route`) and
enqueues one local-id sub-ticket per touched shard — all pools compute
concurrently.  Cross-shard pairs never reach a pool: the parent answers
them directly from the memory-mapped portal tables
(:meth:`~repro.core.partition.ShardedKReach.stitch`), which is a few
vectorized row operations per batch.  Gather: :meth:`collect` drains
each sub-ticket into its input positions; a sub-collect that times out
leaves the whole ticket collectable, exactly like the single-pool
deadline contract.  Worker crashes, hangs, and restarts stay the
responsibility of the per-shard pools and their supervision; this layer
adds no new failure modes, only fan-out.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.serialize import load_sharded
from repro.core.serve import (
    QueryServer,
    QueryTimeout,
    ThreadQueryServer,
    _Ticket,
    _TicketServer,
)

__all__ = ["ShardedQueryServer"]


class ShardedQueryServer(_TicketServer):
    """Route, scatter, and gather batches over per-shard worker pools.

    ``stats()`` carries the shared schema, summed over the shard pools
    (``workers``, ``restarts``, ``hangs``; ``worker_restarts`` lists
    every pool's workers shard by shard; ``degraded`` if any pool is),
    plus ``num_shards``, ``cross_pairs``, ``boundary_size`` and the
    per-shard ``shards`` breakdown.  ``timeouts`` counts this server's
    own timed-out collects.

    Parameters
    ----------
    path:
        A file written by :func:`~repro.core.serialize.save_sharded`;
        shard ``i``'s pool serves ``load_mmap(path, shard=i)``.
    workers:
        Pool size **per shard** — total parallelism is
        ``num_shards x workers``.
    backend:
        ``'process'`` (default) builds one supervised
        :class:`QueryServer` per shard; ``'thread'`` builds
        :class:`ThreadQueryServer` pools (zero IPC — the right choice on
        the compiled-kernel tier, or when shards are the only
        parallelism wanted).
    verify:
        Check every section's CRC32 before serving.
    server_kwargs:
        Extra keyword arguments forwarded to every pool constructor
        (e.g. ``slot_pairs=`` for either backend, ``hang_timeout=`` or
        ``max_restarts=`` for the process backend).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        workers: int = 1,
        backend: str = "process",
        verify: bool = False,
        server_kwargs: dict | None = None,
    ) -> None:
        if backend not in ("process", "thread"):
            raise ValueError(
                f"backend must be 'process' or 'thread', got {backend!r}"
            )
        sharded = load_sharded(path, verify=verify)
        kwargs = dict(server_kwargs or {})
        kwargs.setdefault("workers", workers)
        super().__init__(kwargs["workers"] * sharded.num_shards)
        self._index = sharded
        self._n = sharded.n
        self._k = sharded.k
        self._boundary_size = int(len(sharded.boundary))
        self.cross_pairs = 0
        cls = QueryServer if backend == "process" else ThreadQueryServer
        self.servers: list = []
        try:
            for i in range(sharded.num_shards):
                self.servers.append(cls(path, shard=i, **kwargs))
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------ facts

    @property
    def k(self) -> int | None:
        return self._k

    @property
    def num_shards(self) -> int:
        return len(self.servers)

    # ------------------------------------------------- ticket transport

    def _enqueue(self, ticket: _Ticket) -> None:
        """Answer cross-shard pairs from the portal tables now; submit
        the rest to their owning shards' pools with the ticket's bound."""
        s, t = ticket.s, ticket.t
        owner = self._index.route(s, t)
        for i, (server, shard) in enumerate(zip(self.servers, self._index.shards)):
            positions = np.flatnonzero(owner == i)
            if not len(positions):
                continue
            local = np.stack(
                [shard.to_local(s[positions]), shard.to_local(t[positions])],
                axis=1,
            )
            sub = server.submit(local, deadline=ticket.deadline)
            ticket.parts.append((i, sub, positions))
        ticket.remaining = len(ticket.parts)
        cross = np.flatnonzero(owner < 0)
        if len(cross):
            ticket.out[cross] = self._index.stitch(s[cross], t[cross])
            self.cross_pairs += len(cross)

    def _wait(self, ticket: _Ticket, wait: float | None) -> None:
        """Gather one sub-ticket.  A sub-collect that times out keeps
        every part gathered so far; the ticket core then raises."""
        shard_id, sub, positions = ticket.parts[-1]
        try:
            ticket.out[positions] = self.servers[shard_id].collect(
                sub, timeout=wait
            )
        except QueryTimeout:
            return
        except RuntimeError as exc:  # the sub-ticket settled with an error
            ticket.error = ticket.error or str(exc)
        ticket.parts.pop()
        ticket.remaining -= 1

    # ------------------------------------------------------- management

    def restart_worker(self, shard_id: int, worker_id: int) -> None:
        """Kill-and-revive one worker of one shard pool (process backend)."""
        self.servers[shard_id].restart_worker(worker_id)

    @property
    def restarts(self) -> int:
        return sum(server.restarts for server in self.servers)

    @property
    def hangs(self) -> int:
        return sum(server.hangs for server in self.servers)

    @property
    def degraded(self) -> bool:
        return any(server.degraded for server in self.servers)

    @property
    def worker_restarts(self) -> list[int]:
        return [n for server in self.servers for n in server.worker_restarts]

    def _backend_stats(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "cross_pairs": self.cross_pairs,
            "boundary_size": self._boundary_size,
            "shards": [server.stats() for server in self.servers],
        }

    def _shutdown(self) -> None:
        """Close every shard pool."""
        for server in getattr(self, "servers", []):
            try:
                server.close()
            except Exception:
                pass
