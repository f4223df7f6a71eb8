"""Scatter-gather serving over a sharded manifest.

:class:`ShardedQueryServer` is the multi-shard sibling of
:class:`~repro.core.serve.QueryServer`: it opens a
:func:`~repro.core.serialize.save_sharded` directory, runs one worker
pool per shard (process pools by default, thread pools on the native
tier), and keeps the single-server contract intact —
``submit``/``collect`` tickets, ``timeout=``/``deadline=`` bounds,
verdicts reassembled in input order, and answers **bit-identical** to
the unsharded index.

Scatter: :meth:`submit` routes every ``(s, t)`` pair to its owning
shard (see :meth:`~repro.core.partition.ShardedKReach.route`) and
enqueues one local-id sub-batch per touched shard — all pools compute
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

from repro.core.batch import as_pair_arrays
from repro.core.partition import ShardedKReach
from repro.core.serialize import load_sharded
from repro.core.serve import (
    QueryServer,
    QueryTimeout,
    ThreadQueryServer,
    UnknownTicketError,
    _merge_deadlines,
    _resolve_deadline,
)

__all__ = ["ShardedQueryServer"]


class _ShardTicket:
    """One client batch fanned out across shard pools."""

    __slots__ = ("id", "out", "parts", "deadline")

    def __init__(self, ticket_id: int, size: int, deadline: float | None) -> None:
        self.id = ticket_id
        self.out = np.zeros(size, dtype=bool)
        # (shard_id, sub_ticket, input positions) still awaiting collect.
        self.parts: list[tuple[int, int, np.ndarray]] = []
        self.deadline = deadline


class ShardedQueryServer:
    """Route, scatter, and gather batches over per-shard worker pools.

    Parameters
    ----------
    manifest_dir:
        A directory written by :func:`~repro.core.serialize.save_sharded`.
    workers:
        Pool size **per shard** — total parallelism is
        ``num_shards x workers``.
    backend:
        ``'process'`` (default) builds one supervised
        :class:`QueryServer` per shard; ``'thread'`` builds
        :class:`ThreadQueryServer` pools (zero IPC — the right choice on
        the compiled-kernel tier, or when shards are the only
        parallelism wanted).
    server_kwargs:
        Extra keyword arguments forwarded to every pool constructor
        (e.g. ``hang_timeout=``, ``max_restarts=`` for the process
        backend).
    """

    def __init__(
        self,
        manifest_dir: str | os.PathLike,
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
        manifest = load_sharded(manifest_dir, verify=verify)
        self._sharded = ShardedKReach.from_manifest(manifest)
        self._n = self._sharded.n
        self._closed = False
        self._next_ticket = 0
        self._tickets: dict[int, _ShardTicket] = {}
        self.pairs_served = 0
        self.cross_pairs = 0
        kwargs = dict(server_kwargs or {})
        kwargs.setdefault("workers", workers)
        cls = QueryServer if backend == "process" else ThreadQueryServer
        self.servers: list = []
        try:
            for path in manifest.shard_paths:
                self.servers.append(cls(path, **kwargs))
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------ facts

    @property
    def n(self) -> int:
        return self._n

    @property
    def k(self) -> int | None:
        return self._sharded.k

    @property
    def num_shards(self) -> int:
        return self._sharded.num_shards

    @property
    def sharded(self) -> ShardedKReach:
        """The routing/stitch view (also answers in-process)."""
        return self._sharded

    # ---------------------------------------------------------- serving

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("server is closed")

    def submit(
        self,
        pairs,
        *,
        timeout: float | None = None,
        deadline: float | None = None,
    ) -> int:
        """Scatter a batch across the shard pools; returns a ticket.

        Cross-shard pairs are answered immediately from the portal
        tables; everything else is enqueued on its owning shard's pool
        with the ticket's deadline attached, so all pools pipeline the
        batch concurrently.
        """
        self._check_open()
        s, t = as_pair_arrays(pairs, self._n)
        bound = _resolve_deadline(timeout, deadline)
        ticket = _ShardTicket(self._next_ticket, len(s), bound)
        self._next_ticket += 1
        owner = self._sharded.route(s, t) if len(s) else np.empty(0, np.int64)
        for i, (server, shard) in enumerate(
            zip(self.servers, self._sharded.shards)
        ):
            positions = np.flatnonzero(owner == i)
            if not len(positions):
                continue
            local = np.stack(
                [
                    shard.to_local(s[positions]),
                    shard.to_local(t[positions]),
                ],
                axis=1,
            )
            sub = server.submit(local, deadline=bound)
            ticket.parts.append((i, sub, positions))
        cross = np.flatnonzero(owner < 0)
        if len(cross):
            ticket.out[cross] = self._sharded.stitch(s[cross], t[cross])
            self.cross_pairs += len(cross)
        self.pairs_served += len(s)
        self._tickets[ticket.id] = ticket
        return ticket.id

    def collect(
        self,
        ticket_id: int,
        *,
        timeout: float | None = None,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Gather a ticket's verdicts in input order.

        Sub-tickets already gathered stay gathered across a
        :class:`QueryTimeout` — the ticket remains collectable and a
        later call only waits on the shards still outstanding.
        """
        self._check_open()
        ticket = self._tickets.get(ticket_id)
        if ticket is None:
            raise UnknownTicketError(ticket_id)
        bound = _merge_deadlines(
            ticket.deadline, _resolve_deadline(timeout, deadline)
        )
        while ticket.parts:
            shard_id, sub, positions = ticket.parts[-1]
            try:
                verdicts = self.servers[shard_id].collect(sub, deadline=bound)
            except QueryTimeout as exc:
                raise QueryTimeout(ticket_id, exc.waited) from None
            ticket.out[positions] = verdicts
            ticket.parts.pop()
        del self._tickets[ticket_id]
        return ticket.out

    def query_batch(
        self,
        pairs,
        *,
        timeout: float | None = None,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Scatter + gather in one call."""
        return self.collect(self.submit(pairs, timeout=timeout, deadline=deadline))

    # ------------------------------------------------------- management

    def restart_worker(self, shard_id: int, worker_id: int) -> None:
        """Kill-and-revive one worker of one shard pool (process backend)."""
        self.servers[shard_id].restart_worker(worker_id)

    def stats(self) -> dict:
        """Aggregate counters plus the per-shard pool breakdown."""
        per_shard = [server.stats() for server in self.servers]
        return {
            "num_shards": self.num_shards,
            "pairs_served": self.pairs_served,
            "cross_pairs": self.cross_pairs,
            "outstanding_tickets": len(self._tickets),
            "boundary_size": int(len(self._sharded.boundary)),
            "restarts": sum(s.get("restarts", 0) for s in per_shard),
            "timeouts": sum(s.get("timeouts", 0) for s in per_shard),
            "health": (
                "degraded"
                if any(s["health"] != "ok" for s in per_shard)
                else "ok"
            ),
            "shards": per_shard,
        }

    def close(self) -> None:
        """Close every shard pool.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for server in getattr(self, "servers", []):
            try:
                server.close()
            except Exception:
                pass
        self._tickets.clear()

    def __enter__(self) -> "ShardedQueryServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
