"""Shared-memory multi-process query serving over a v6 index file.

The batch engines in :mod:`repro.core.kreach` saturate exactly one CPU:
numpy kernels release the GIL only inside individual ufunc calls, so one
process is one core's worth of throughput no matter how many queries are
queued.  :class:`QueryServer` is the serving tier the ROADMAP's
"millions of users" story needs — a persistent pool of worker processes
that scales batch-query throughput with cores:

* **Shared index, O(1) worker start-up.**  Every worker opens the same
  :func:`~repro.core.serialize.save_mmap` file via
  :func:`~repro.core.serialize.load_mmap`; the OS page cache backs all of
  them with one copy of the clean index pages.  Nothing graph-sized is
  ever pickled to a worker.  Only the lazily built caches (link
  matrices, keyed probe arrays) are per-worker, copy-on-build.
* **Shared-memory dispatch.**  Query pairs travel to workers — and
  verdicts travel back — through preallocated shared-memory ndarray
  slots; the per-worker control pipes carry only tiny ``(slot, count)``
  tuples (each an atomic pipe write — a crashed worker cannot tear or
  wedge the transport), so no per-batch serialization of sources,
  targets, or results ever happens.
* **Case-code pre-split.**  The parent splits each batch by Algorithm-2
  case code before sharding, so every worker receives the same *mix* of
  cases — no worker inherits all the expensive Case-4 pairs.  (Each
  share also happens to arrive case-grouped, a free by-product of the
  split; the engine's own dedup sort re-establishes its order either
  way.)
* **Pipelined mode.**  :meth:`submit` returns a ticket without waiting;
  slots are double-buffered per worker, so the next shard's pairs are
  being copied in while the previous shard computes.  :meth:`collect`
  reassembles a ticket's verdicts in input order.
* **Worker supervision.**  A worker that dies mid-stream (OOM-killed,
  crashed, or :meth:`restart_worker`) is respawned and its in-flight
  shards are re-dispatched; results from a dead generation are dropped
  by a generation tag, so answers stay exact across restarts.  A
  watchdog thread additionally detects *hung* (not just dead) workers
  via per-shard heartbeats and kill-restarts them through the same
  protocol, with capped exponential backoff on repeated failures; a
  pool that exhausts its restart budget degrades gracefully to serving
  in-process (see ``hang_timeout`` / ``max_restarts``).
* **Deadlines.**  ``submit`` / ``collect`` / ``query_batch`` accept
  ``timeout=`` (seconds from now) and ``deadline=`` (absolute
  ``time.monotonic()`` instant).  A ticket that cannot settle in time
  raises :class:`QueryTimeout`; the ticket stays collectable, so a
  caller may retry ``collect`` later without losing the batch.

:class:`ThreadQueryServer` is the single-address-space sibling for the
native kernel tier (:mod:`repro.native`): compiled ``nogil`` kernels
release the GIL for the whole loop, so a *thread* pool scales with cores
too — and threads share the one mmap'd index object directly, so there
are no shared-memory slots, no pickling, and no per-batch scatter copies
at all.  Workers pull case-grouped sub-batches off a queue and write
verdicts straight into the ticket's output array (shards own disjoint
position sets, so concurrent writes never overlap).  On the pure-numpy
tier the GIL serializes most of the work and the process pool remains
the scaling deployment; the thread server is still a valid (lower
overhead, shared everything) single-core server there.

**Thread-budget policy** (the oversubscription fix): a pool of W workers
whose kernels each spawn their own threads would run W × cpu_count
threads.  Both servers therefore pin the per-worker kernel-thread count
to ``max(1, cpu_count // W)`` (:func:`repro.native.thread_budget`) by
setting ``NUMBA_NUM_THREADS`` / ``OMP_NUM_THREADS`` **before** the first
kernel runs — numba reads the variable at first import and
``set_num_threads`` can only lower it afterwards.  Process workers pin
in the child before the index loads; the thread server pins once in its
constructor (one address space — the budget is shared by all its
workers).

**One ticket core.**  Both pools, and
:class:`~repro.core.sharded.ShardedQueryServer` above them, share one
private ticket core: ticket ids, ``timeout=`` / ``deadline=``
resolution, ``submit``'s validation, the case-balanced ``slot_pairs``
chunking, the ``collect`` loop (:class:`UnknownTicketError`,
:class:`QueryTimeout`, a worker's error re-raised), ``query_batch``,
and one ``stats()`` schema — ``workers``, ``pairs_served``,
``outstanding_tickets``, ``restarts``, ``worker_restarts``,
``timeouts``, ``hangs``, ``degraded`` and ``health`` on every server.
A backend supplies only its transport: how a ticket's chunks are
enqueued and how to wait for progress.

Differential guarantee: ``server.query_batch(pairs)`` is bit-identical
to the in-process ``load_mmap(path).query_batch(pairs)`` for every
worker count, for both servers (pinned by
``tests/core/test_serve.py`` / ``tests/core/test_thread_serve.py``; the
shared contract by ``tests/core/test_server_contract.py``).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import threading
import time
import traceback
from collections import deque
from multiprocessing import connection as mp_connection
from multiprocessing import sharedctypes

import numpy as np

from repro import faults, native
from repro.core.batch import as_pair_arrays, case_codes

__all__ = [
    "QueryServer",
    "ThreadQueryServer",
    "QueryTimeout",
    "UnknownTicketError",
]

#: Default pairs per shared-memory slot (the dispatch granularity).
DEFAULT_SLOT_PAIRS = 1 << 15

#: Shared-memory slots per worker — 2 double-buffers transfer against
#: compute (the parent fills one slot while the worker computes the other).
_SLOTS_PER_WORKER = 2

#: Base of the capped exponential backoff between consecutive failed
#: revivals of the same worker (seconds; the first revival is immediate).
_RESTART_BACKOFF_S = 0.05

#: Worker start method.  Under fork, workers inherit nothing index-sized:
#: the index comes from the file either way.
_START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"

#: Seconds the result-drain loop waits before re-checking worker health.
_HEALTH_POLL_S = 1.0

#: Times one shard may be re-dispatched after killing its worker before
#: its ticket is failed — a poison shard (e.g. a batch whose kernel
#: deterministically OOMs the worker) must surface an error, not revive
#: workers forever.
_MAX_SHARD_RETRIES = 2

#: Tracebacks are truncated to this many characters before crossing a
#: control pipe, keeping every frame under PIPE_BUF so each send is one
#: atomic write (see :func:`_worker_main`).
_MAX_ERROR_CHARS = 2000

#: Ceiling on the exponential restart backoff (seconds).
_BACKOFF_CAP = 2.0


class QueryTimeout(TimeoutError):
    """A ticket missed its ``timeout=`` / ``deadline=`` bound.

    The ticket is *not* discarded: its shards keep computing (or keep
    being supervised) and a later :meth:`QueryServer.collect` without a
    deadline — or with a fresh one — can still retrieve the verdicts.
    """

    def __init__(self, ticket_id: int, waited: float) -> None:
        super().__init__(
            f"ticket {ticket_id} not settled after {waited:.3f}s; "
            "it remains collectable"
        )
        self.ticket_id = ticket_id
        self.waited = waited


class UnknownTicketError(KeyError):
    """``collect`` was asked for a ticket that does not exist.

    Either the id was never issued by this server or the ticket was
    already collected (tickets are single-use).  Subclasses
    :class:`KeyError` so pre-existing ``except KeyError`` callers keep
    working.
    """

    def __init__(self, ticket_id: int) -> None:
        super().__init__(
            f"unknown or already-collected ticket {ticket_id}"
        )
        self.ticket_id = ticket_id

    def __str__(self) -> str:  # KeyError would quote the message
        return self.args[0]


def _resolve_deadline(
    timeout: float | None, deadline: float | None, bound: float | None = None
) -> float | None:
    """The tightest of ``timeout`` (seconds from now), ``deadline`` (an
    absolute ``time.monotonic()`` instant) and an existing ``bound``."""
    if timeout is not None:
        timeout = time.monotonic() + float(timeout)
    if deadline is not None:
        deadline = float(deadline)
    given = [b for b in (timeout, deadline, bound) if b is not None]
    return min(given) if given else None


def _worker_main(
    path,
    shard,
    worker_id,
    generation,
    slots,
    slot_pairs,
    raw_in,
    raw_out,
    task_r,
    result_w,
    prepare,
    kernel_threads,
):
    """Worker loop: open the shared file, then serve slots until ``None``.

    Runs in a child process.  All heavy state (the index) comes from the
    memory-mapped file — the only constructor traffic is this argument
    tuple.  Control messages travel over per-worker pipes and are sent
    *directly* (no mp.Queue feeder thread): every frame stays far below
    PIPE_BUF, so each send is one atomic pipe write — a crash can end the
    stream (EOF) but can never leave a torn frame, and there is no
    cross-process queue lock a dying worker could take to its grave (the
    failure mode that wedges a shared mp.Queue on a hard kill).  Every
    message carries ``(worker_id, generation)`` so the parent can discard
    echoes from a generation it has already restarted.
    """
    # Pin this worker's kernel-thread budget before anything imports
    # numba (see the module docstring's thread-budget policy) — with W
    # pool processes each running parallel kernels, the pins keep the
    # host at ~cpu_count threads total instead of W x cpu_count.
    native.pin_kernel_threads(kernel_threads)

    from repro.core.serialize import load_mmap

    def send(kind, detail=None):
        result_w.send((kind, worker_id, generation, detail))

    try:
        index = load_mmap(path, shard=shard)
        if prepare:
            index.prepare_batch()
    except BaseException:
        send("init_error", traceback.format_exc()[-_MAX_ERROR_CHARS:])
        return
    pairs_view = np.frombuffer(raw_in, dtype=np.int64).reshape(
        slots, slot_pairs, 2
    )
    out_view = np.frombuffer(raw_out, dtype=np.uint8).reshape(slots, slot_pairs)
    send("ready")
    while True:
        try:
            msg = task_r.recv()
        except (EOFError, OSError):
            break  # parent vanished; exit quietly
        if msg is None:
            break
        slot, count = msg
        # Shard-progress heartbeat: the parent's watchdog distinguishes
        # "computing" from "hung" by the age of the latest beat.
        send("start", slot)
        try:
            if faults.ENABLED:
                faults.fire("serve.worker_exit")  # os._exit, like an OOM kill
                faults.fire("serve.worker_hang")  # park for the watchdog
            out_view[slot, :count] = index.query_batch(pairs_view[slot, :count])
            send("done", slot)
        except BaseException:
            send(
                "task_error",
                (slot, traceback.format_exc()[-_MAX_ERROR_CHARS:]),
            )


def _case_shards(codes: np.ndarray, count: int) -> list[np.ndarray]:
    """Per-worker position arrays, case-balanced.

    For each Algorithm-2 case, its pairs are split contiguously across
    the pool — every worker gets ~1/W of each case, so the load stays
    balanced even though Case 4 costs orders of magnitude more than
    Case 1.  (The case-by-case ordering of each share is a free
    by-product, not something workers rely on.)
    """
    if count == 1:
        return [np.arange(len(codes), dtype=np.int64)]
    shares: list[list[np.ndarray]] = [[] for _ in range(count)]
    for case in (1, 2, 3, 4):
        positions = np.flatnonzero(codes == case)
        if not len(positions):
            continue
        for i, part in enumerate(np.array_split(positions, count)):
            if len(part):
                shares[i].append(part)
    return [
        np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        for parts in shares
    ]


def _check_slot_pairs(slot_pairs: int) -> int:
    if slot_pairs < 1:
        raise ValueError(f"slot_pairs must be >= 1, got {slot_pairs}")
    return int(slot_pairs)


class _Ticket:
    """One submitted batch: its output buffer and outstanding part count.

    ``parts`` is the sharded server's list of ``(shard, sub-ticket,
    positions)`` still to gather; the pools leave it empty.
    """

    __slots__ = ("id", "s", "t", "out", "remaining", "error", "deadline", "parts")

    def __init__(
        self,
        ticket_id: int,
        s: np.ndarray,
        t: np.ndarray,
        deadline: float | None = None,
    ) -> None:
        self.id = ticket_id
        self.s = s
        self.t = t
        self.out = np.zeros(len(s), dtype=bool)
        self.remaining = 0
        self.error: str | None = None
        self.deadline = deadline  # absolute time.monotonic() bound, if any
        self.parts: list = []


class _TicketServer:
    """The ticket protocol shared by every query server.

    Owns the ticket table, ``timeout=`` / ``deadline=`` resolution,
    ``submit``'s validation, the ``collect`` loop, ``query_batch``, the
    closed-server check, the context manager and the ``stats()`` schema.
    A backend supplies its transport through three hooks:

    * ``_enqueue(ticket)`` starts serving a validated, non-empty ticket
      and sets ``ticket.remaining`` to its number of unfinished parts;
    * ``_wait(ticket, wait)`` blocks for progress on ``ticket`` for at
      most ``wait`` seconds (``None``: until some arrives);
    * ``_shutdown()`` stops the workers, once, from :meth:`close`.

    Backends with supervision override ``restarts``, ``hangs``,
    ``degraded`` and ``worker_restarts``; the defaults describe workers
    that are never respawned.
    """

    restarts = 0
    hangs = 0
    degraded = False

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers_total = workers
        self._index = None  # the backend opens it: see ``index``
        self._n = 0
        self._tickets: dict[int, _Ticket] = {}
        self._next_ticket = 0
        self._closed = False
        self.pairs_served = 0
        self.timeouts = 0

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    def _chunks(self, ticket: _Ticket, slot_pairs: int) -> list[list[np.ndarray]]:
        """Per-worker lists of position chunks, case-balanced (see
        :func:`_case_shards`), at most ``slot_pairs`` positions each."""
        flags = self._index._flags()
        shares = _case_shards(
            case_codes(flags[ticket.s], flags[ticket.t]), self._workers_total
        )
        return [
            [share[i : i + slot_pairs] for i in range(0, len(share), slot_pairs)]
            for share in shares
        ]

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def submit(
        self,
        pairs,
        *,
        timeout: float | None = None,
        deadline: float | None = None,
    ) -> int:
        """Enqueue a batch; returns a ticket for :meth:`collect`.

        The batch is validated here, in the caller (an out-of-range or
        non-integer id raises ``ValueError``), then handed to the
        workers, which start on it at once — call :meth:`submit` again
        before :meth:`collect` to pipeline batches.

        ``timeout`` (seconds from now) / ``deadline`` (absolute
        ``time.monotonic()``) attach a bound to the *ticket*: every
        later ``collect`` honors it, combined with the collect call's
        own bound, whichever is tighter.
        """
        self._check_open()
        s, t = as_pair_arrays(pairs, self._n)
        ticket = _Ticket(
            self._next_ticket, s, t, _resolve_deadline(timeout, deadline)
        )
        self._next_ticket += 1
        self._tickets[ticket.id] = ticket
        if len(s):
            self._enqueue(ticket)
        self.pairs_served += len(s)
        return ticket.id

    def collect(
        self,
        ticket_id: int,
        *,
        timeout: float | None = None,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Block until a ticket settles; its verdicts in input order.

        If any part raised inside a worker, the ticket settles (the pool
        stays serviceable) and the worker's traceback is re-raised here
        as :class:`RuntimeError`.  An unknown or already-collected id
        raises :class:`UnknownTicketError`.

        With a ``timeout`` / ``deadline`` (combined with any bound the
        ticket carries from :meth:`submit`), a ticket that has not
        settled by the bound raises :class:`QueryTimeout` — the ticket
        stays collectable, its parts keep being served and supervised.
        """
        self._check_open()
        ticket = self._tickets.get(ticket_id)
        if ticket is None:
            raise UnknownTicketError(ticket_id)
        bound = _resolve_deadline(timeout, deadline, ticket.deadline)
        started = time.monotonic()
        while ticket.remaining:
            wait = None
            if bound is not None:
                now = time.monotonic()
                if now >= bound:
                    self.timeouts += 1
                    raise QueryTimeout(ticket_id, now - started)
                wait = bound - now
            self._wait(ticket, wait)
        del self._tickets[ticket_id]
        if ticket.error is not None:
            raise RuntimeError(
                f"query-server batch {ticket_id} failed in a worker:\n"
                f"{ticket.error}"
            )
        return ticket.out

    def query_batch(
        self,
        pairs,
        *,
        timeout: float | None = None,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Synchronous round-trip: ``collect(submit(pairs))``.

        Bit-identical to the in-process
        :meth:`~repro.core.kreach.KReachIndex.query_batch` on the same
        index, for every worker count.  ``timeout`` / ``deadline`` bound
        the round-trip (:class:`QueryTimeout`).
        """
        return self.collect(
            self.submit(pairs, timeout=timeout, deadline=deadline)
        )

    # ------------------------------------------------------------------
    # Introspection & shutdown
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Worker count (across every shard, for the sharded server)."""
        return self._workers_total

    @property
    def n(self) -> int:
        """Vertex count of the served index (valid ids are ``[0, n)``)."""
        return self._n

    @property
    def index(self):
        """The parent's in-process view of the served index (read-only use)."""
        return self._index

    @property
    def worker_restarts(self) -> list[int]:
        """Lifetime revivals per worker slot."""
        return [0] * self._workers_total

    def _backend_stats(self) -> dict:
        """Keys a backend adds to the shared :meth:`stats` schema."""
        return {}

    def stats(self) -> dict:
        """Counters plus pool health, in the schema every server shares."""
        degraded = bool(self.degraded)
        return {
            "workers": self.workers,
            "pairs_served": self.pairs_served,
            "outstanding_tickets": len(self._tickets),
            "restarts": self.restarts,
            "worker_restarts": self.worker_restarts,
            "timeouts": self.timeouts,
            "hangs": self.hangs,
            "degraded": degraded,
            "health": "degraded" if degraded else "ok",
            **self._backend_stats(),
        }

    def close(self) -> None:
        """Stop every worker and drop the index.  Idempotent.

        Outstanding tickets can no longer be collected.  The parent's
        mapping of the served file is dropped so the mmap can be
        collected — on platforms where a mapped file cannot be deleted
        (Windows), a temporary directory holding it must be able to
        clean up once the server is closed.
        """
        if self._closed:
            return
        self._closed = True
        self._shutdown()
        self._tickets.clear()
        self._index = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"{type(self).__name__}(workers={self.workers}, {state})"


class _Worker:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = (
        "id",
        "raw_in",
        "raw_out",
        "in_view",
        "out_view",
        "task_w",
        "result_r",
        "awaiting_ready",
        "process",
        "generation",
        "free_slots",
        "inflight",
        "backlog",
        "reviving",
        "last_beat",
        "strikes",
        "restarts",
    )

    def __init__(self, worker_id: int, slots: int, slot_pairs: int) -> None:
        self.id = worker_id
        self.raw_in = sharedctypes.RawArray("b", slots * slot_pairs * 2 * 8)
        self.raw_out = sharedctypes.RawArray("b", slots * slot_pairs)
        self.in_view = np.frombuffer(self.raw_in, dtype=np.int64).reshape(
            slots, slot_pairs, 2
        )
        self.out_view = np.frombuffer(self.raw_out, dtype=np.uint8).reshape(
            slots, slot_pairs
        )
        self.task_w = None  # parent's send end of the task pipe
        self.result_r = None  # parent's receive end of the result pipe
        self.awaiting_ready = False
        self.process = None
        self.generation = -1
        self.free_slots: list[int] = list(range(slots))
        # slot -> (ticket, positions, attempts); shards re-dispatched
        # (attempts + 1) on a restart, failed past the cap.
        self.inflight: dict[int, tuple[_Ticket, np.ndarray, int]] = {}
        # (ticket, positions, attempts) awaiting a free slot.
        self.backlog: deque[tuple[_Ticket, np.ndarray, int]] = deque()
        self.reviving = False
        self.last_beat = 0.0  # monotonic time of the latest heartbeat
        self.strikes = 0  # consecutive revivals without a completed shard
        self.restarts = 0  # lifetime revivals of this worker slot


class QueryServer(_TicketServer):
    """A persistent multi-process batch-query pool over one index file.

    Parameters
    ----------
    path:
        A file written by :func:`~repro.core.serialize.save_mmap`.  Each
        worker (and the parent, for the case pre-split) opens it
        zero-copy; the kernel shares the clean pages between them.
    shard:
        The shard to serve when ``path`` is a
        :func:`~repro.core.serialize.save_sharded` file (see
        ``load_mmap(path, shard=i)``); ``None`` for a plain index file.
    workers:
        Pool size.  Throughput scales with cores until the memory bus
        saturates; 1 is a valid (supervised, out-of-process) deployment.
    slot_pairs:
        Capacity of one shared-memory slot.  Batches larger than one
        slot are sharded transparently; bigger slots amortize dispatch,
        smaller ones pipeline sooner.  Each worker has two slots
        (double buffering).
    prepare:
        Run :meth:`~repro.core.kreach.KReachIndex.prepare_batch` in each
        worker at start-up so steady-state queries never pay the lazy
        link-matrix build.
    hang_timeout:
        Seconds of heartbeat silence from a worker *holding in-flight
        shards* before the watchdog declares it hung and kills it (the
        generation protocol then re-dispatches its shards exactly as for
        a crash).  Must exceed the worst-case single-shard compute time;
        ``None`` disables the watchdog (dead workers are still detected
        by the drain paths).
    max_restarts:
        Total worker restarts (crash, hang, or explicit) this pool will
        attempt before degrading to in-process serving; ``None`` means
        unlimited.  Degraded mode answers every query with the parent's
        own index view — slower, never wrong.  Consecutive failed
        revivals of the same worker back off exponentially (capped).
    shutdown_grace:
        Seconds a worker gets to exit cleanly before ``close`` (or a
        revival) escalates to ``terminate`` and then ``kill``.

    Examples
    --------
    >>> import tempfile, os
    >>> from repro.core import KReachIndex, save_mmap
    >>> from repro.graph.generators import gnp_digraph
    >>> g = gnp_digraph(60, 0.08, seed=1)
    >>> fd, path = tempfile.mkstemp(suffix=".kr4"); os.close(fd)
    >>> save_mmap(KReachIndex(g, 3), path)
    >>> with QueryServer(path, workers=2) as server:
    ...     verdicts = server.query_batch([(0, 5), (5, 0), (3, 3)])
    >>> verdicts.dtype.name, len(verdicts)
    ('bool', 3)
    >>> os.unlink(path)
    """

    def __init__(
        self,
        path,
        *,
        shard: int | None = None,
        workers: int = 2,
        slot_pairs: int = DEFAULT_SLOT_PAIRS,
        prepare: bool = True,
        hang_timeout: float | None = 30.0,
        max_restarts: int | None = 16,
        shutdown_grace: float = 5.0,
    ) -> None:
        if hang_timeout is not None and hang_timeout <= 0:
            raise ValueError(
                f"hang_timeout must be positive or None, got {hang_timeout}"
            )
        super().__init__(workers)
        self._slot_pairs = _check_slot_pairs(slot_pairs)
        from repro.core.serialize import load_mmap

        self._path = os.fspath(path)
        self._shard = shard
        # The parent's own O(header) view: cover flags for the case
        # pre-split and input validation.  It never runs a kernel.
        self._index = load_mmap(self._path, shard=shard)
        self._n = self._index.graph.n
        self._prepare = bool(prepare)
        self._ctx = mp.get_context(_START_METHOD)
        self._workers = [
            _Worker(i, _SLOTS_PER_WORKER, self._slot_pairs) for i in range(workers)
        ]
        self._hang_timeout = hang_timeout
        self._max_restarts = max_restarts
        self._shutdown_grace = float(shutdown_grace)
        self.degraded = False
        self.restarts = 0
        self.hangs = 0
        self._watchdog_stop = threading.Event()
        self._watchdog: threading.Thread | None = None
        try:
            for w in self._workers:
                self._spawn(w)
            self._await_ready(self._workers)
        except BaseException:
            self.close()
            raise
        if hang_timeout is not None:
            self._watchdog = threading.Thread(
                target=self._watch,
                name="kreach-serve-watchdog",
                daemon=True,
            )
            self._watchdog.start()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, w: _Worker) -> None:
        """Start (or restart) one worker process on a fresh generation.

        Each generation gets fresh per-worker control pipes: a crashing
        worker can affect at most its own channel, and replacing the
        pipes on revive discards any stale bytes along with it.
        """
        w.generation += 1
        task_r, task_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        w.task_w = task_w
        w.result_r = result_r
        w.awaiting_ready = True
        w.last_beat = time.monotonic()  # fresh generation, fresh clock
        w.process = self._ctx.Process(
            target=_worker_main,
            args=(
                self._path,
                self._shard,
                w.id,
                w.generation,
                _SLOTS_PER_WORKER,
                self._slot_pairs,
                w.raw_in,
                w.raw_out,
                task_r,
                result_w,
                self._prepare,
                native.thread_budget(len(self._workers)),
            ),
            daemon=True,
        )
        w.process.start()
        # The child holds its own copies; closing the parent's lets a
        # dead worker's result pipe read EOF instead of blocking.
        task_r.close()
        result_w.close()

    def _pump(self, timeout: float) -> bool:
        """Receive and apply every available worker message.

        Waits up to ``timeout`` for traffic on the per-worker result
        connections, then drains each readable one frame by frame
        (frames are atomic single writes, so a readable connection
        always yields complete messages without blocking).  A connection
        at EOF — its worker died — is closed and detached; the liveness
        paths revive the worker with fresh pipes.  Returns whether any
        message was handled.
        """
        conns = {
            w.result_r: w for w in self._workers if w.result_r is not None
        }
        if not conns:
            return False
        handled = False
        for conn in mp_connection.wait(list(conns), timeout):
            w = conns[conn]
            while True:
                try:
                    if not conn.poll(0):
                        break
                    msg = conn.recv()
                except (EOFError, OSError):
                    conn.close()
                    if w.result_r is conn:
                        w.result_r = None
                    break
                handled = True
                self._handle_message(msg)
        return handled

    def _await_ready(self, pending: list[_Worker]) -> None:
        """Block until every worker in ``pending`` reports ready.

        Other traffic (``done`` results from healthy workers) arriving
        meanwhile is handled normally, never dropped.
        """
        while any(w.awaiting_ready for w in pending):
            if self._pump(_HEALTH_POLL_S):
                continue
            for w in pending:
                if w.awaiting_ready and not w.process.is_alive():
                    self._pump(0)  # a final init_error may still be queued
                    if w.awaiting_ready:
                        raise RuntimeError(
                            f"query-server worker {w.id} died during start-up"
                        )

    def _watch(self) -> None:
        """Watchdog loop: kill workers whose heartbeats went silent.

        Detection-only by design — killing the hung process makes its
        result pipe hit EOF, which the single-threaded drain paths
        already translate into a revival with re-dispatch, so the
        watchdog never touches pipes or worker bookkeeping from this
        thread.  A worker is only suspect while it *holds in-flight
        shards*; an idle worker may be silent forever.
        """
        interval = max(0.05, self._hang_timeout / 4.0)
        while not self._watchdog_stop.wait(interval):
            now = time.monotonic()
            for w in self._workers:
                process = w.process
                if (
                    process is None
                    or not process.is_alive()
                    or w.reviving
                    or not w.inflight
                ):
                    continue
                result_r = w.result_r
                try:
                    if result_r is not None and result_r.poll(0):
                        # Undrained traffic: progressing, parent just
                        # hasn't read the beats yet.
                        continue
                except (OSError, ValueError):
                    continue  # channel being torn down concurrently
                if now - w.last_beat > self._hang_timeout:
                    self.hangs += 1
                    try:
                        process.kill()
                    except (OSError, ValueError):
                        pass

    def _reap(self, w: _Worker, grace: float | None = None) -> None:
        """Ensure a worker process is gone: join, terminate, then kill."""
        process = w.process
        if process is None:
            return
        process.join(timeout=self._shutdown_grace if grace is None else grace)
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=1.0)

    def _run_local(self, ticket: _Ticket, positions) -> None:
        """Serve one shard on the parent's own index view (degraded mode)."""
        try:
            pairs = np.column_stack((ticket.s[positions], ticket.t[positions]))
            ticket.out[positions] = self._index.query_batch(pairs)
        except BaseException:
            ticket.error = (
                ticket.error or traceback.format_exc()[-_MAX_ERROR_CHARS:]
            )
        ticket.remaining -= 1

    def _degrade(self) -> None:
        """Give up on the pool: serve everything in-process from now on.

        The restart budget is spent — rather than reviving workers in a
        loop (or deadlocking the callers), every outstanding shard is
        answered with the parent's own index view and future submissions
        bypass the pool entirely.  Slower, never wrong; ``stats()``
        reports ``health='degraded'``.
        """
        if self.degraded:
            return
        self.degraded = True
        self._watchdog_stop.set()
        for w in self._workers:
            for slot in sorted(w.inflight):
                ticket, positions, _ = w.inflight.pop(slot)
                w.backlog.appendleft((ticket, positions, 0))
            w.free_slots = list(range(_SLOTS_PER_WORKER))
            while w.backlog:
                ticket, positions, _ = w.backlog.popleft()
                self._run_local(ticket, positions)
            self._reap(w, grace=0.1)
            for conn in (w.task_w, w.result_r):
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass
            w.task_w = None
            w.result_r = None

    def _revive(self, w: _Worker) -> None:
        """Respawn a dead worker and requeue everything it was holding."""
        if self.degraded:
            return
        self._reap(w)
        self.restarts += 1
        w.strikes += 1
        w.restarts += 1
        w.reviving = True
        try:
            # Settle whatever the old generation already delivered before
            # its channel is torn down — a gracefully drained worker
            # completed its queued shards on the way out, and dropping
            # those answers would recompute them for nothing.
            if w.result_r is not None:
                try:
                    while w.result_r.poll(0):
                        self._handle_message(w.result_r.recv())
                except (EOFError, OSError):
                    pass
                w.result_r.close()
                w.result_r = None
            if w.task_w is not None:
                try:
                    w.task_w.close()
                except OSError:
                    pass
                w.task_w = None
            # Remaining in-flight shards (whose results never arrived) go
            # back to the front of the backlog; their slots are free
            # again (the new generation never saw them).  A shard that
            # has already been re-dispatched past the retry cap fails
            # its ticket instead — it is the likely worker-killer, and
            # requeueing it forever would revive workers in a loop.
            for slot in sorted(w.inflight):
                ticket, positions, attempts = w.inflight.pop(slot)
                if attempts >= _MAX_SHARD_RETRIES:
                    ticket.error = ticket.error or (
                        f"shard of {len(positions)} pairs was re-dispatched "
                        f"{attempts} times after killing its worker"
                    )
                    ticket.remaining -= 1
                else:
                    w.backlog.appendleft((ticket, positions, attempts + 1))
            w.free_slots = list(range(_SLOTS_PER_WORKER))
            if (
                self._max_restarts is not None
                and self.restarts > self._max_restarts
            ):
                self._degrade()
                return
            if w.strikes >= 2:
                # Same worker failing repeatedly: back off before the
                # respawn so a crash loop cannot spin the host.
                time.sleep(
                    min(
                        _BACKOFF_CAP,
                        _RESTART_BACKOFF_S * (2 ** (w.strikes - 2)),
                    )
                )
            try:
                self._spawn(w)
                self._await_ready([w])
            except RuntimeError:
                # The replacement itself failed to come up; spend the
                # rest of the budget elsewhere or degrade now.
                self._degrade()
                return
        finally:
            w.reviving = False
        self._dispatch(w)

    def restart_worker(self, worker_id: int) -> None:
        """Restart one worker, re-dispatching its in-flight work.

        Safe mid-stream: the worker is drained first (a stop sentinel,
        then a bounded join) so in-progress shards finish; only a hung
        worker is terminated.  Results it already sent settle normally —
        a shard is only re-dispatched if its ``done`` message never
        arrived, and the generation tag keeps the two paths from
        double-counting.  This is also the recovery path the server
        takes on its own when it notices a worker died.
        """
        self._check_open()
        w = self._workers[worker_id]
        if w.process is not None and w.process.is_alive():
            if w.task_w is not None:
                try:
                    w.task_w.send(None)
                except (OSError, ValueError):
                    pass
        self._revive(w)  # _reap inside escalates join -> terminate -> kill

    # ------------------------------------------------------------------
    # Dispatch plumbing
    # ------------------------------------------------------------------
    def _dispatch(self, w: _Worker) -> None:
        """Move backlog shards into free slots and notify the worker.

        A worker that died while idle is revived *here*, before any
        shard lands in its slots — otherwise the death would only be
        noticed by the blocking drain's health poll, a guaranteed
        latency spike on the first post-death batch.
        """
        if self.degraded:
            while w.backlog:
                ticket, positions, _ = w.backlog.popleft()
                self._run_local(ticket, positions)
            return
        if w.reviving:
            return  # _revive re-dispatches once the new generation is up
        if w.backlog and (
            w.process is None
            or w.result_r is None
            or not w.process.is_alive()
        ):
            self._revive(w)  # _revive re-enters _dispatch on the new process
            return
        while w.free_slots and w.backlog:
            ticket, positions, attempts = w.backlog.popleft()
            slot = w.free_slots.pop()
            count = len(positions)
            w.in_view[slot, :count, 0] = ticket.s[positions]
            w.in_view[slot, :count, 1] = ticket.t[positions]
            w.inflight[slot] = (ticket, positions, attempts)
            try:
                w.task_w.send((slot, count))
            except (OSError, ValueError):
                # Died between the liveness check and the send: roll the
                # shard back and restart the worker.
                del w.inflight[slot]
                w.free_slots.append(slot)
                w.backlog.appendleft((ticket, positions, attempts))
                self._revive(w)
                return

    def _handle_message(self, msg) -> tuple[str, int, int]:
        """Apply one result-queue message; returns (kind, worker, gen).

        Messages from a generation the parent has already replaced are
        reported as ``'stale'`` and otherwise ignored — their shards were
        re-dispatched when the worker was revived.
        """
        kind, worker_id, generation, detail = msg
        w = self._workers[worker_id]
        if generation != w.generation:
            return ("stale", worker_id, generation)
        # Any current-generation message is proof of life.  "start" is
        # sent for exactly this purpose — it needs no other handling.
        w.last_beat = time.monotonic()
        if kind == "ready":
            w.awaiting_ready = False
        if kind == "init_error":
            raise RuntimeError(
                f"query-server worker {worker_id} failed to start:\n{detail}"
            )
        if kind in ("done", "task_error"):
            w.strikes = 0  # completed a shard: the crash-loop backoff resets
            slot, error = (detail, None) if kind == "done" else detail
            ticket, positions, _ = w.inflight.pop(slot)
            count = len(positions)
            if error is None:
                ticket.out[positions] = w.out_view[slot, :count] != 0
            else:
                # The shard failed in the worker (the worker itself is
                # alive).  Fail only this ticket — the slot is recovered
                # and the pool keeps serving other tickets; collect()
                # raises once the ticket settles.
                ticket.error = ticket.error or error
            ticket.remaining -= 1
            w.free_slots.append(slot)
            self._dispatch(w)
        return (kind, worker_id, generation)

    def _drain(self, block: bool, wait: float | None = None) -> bool:
        """Process available worker messages; returns whether any arrived.

        On a quiet interval with ``block=True`` the pool is
        health-checked and any dead worker revived (its shards
        re-dispatched), so a caller looping on :meth:`collect` can never
        deadlock on a crashed worker.  ``wait`` caps the blocking
        interval (deadline-bounded collects poll at least that often).
        """
        interval = _HEALTH_POLL_S if block else 0
        if wait is not None:
            interval = max(0.0, min(interval, wait))
        handled = self._pump(interval)
        if not handled and block:
            for w in self._workers:
                if (w.inflight or w.backlog) and (
                    w.result_r is None or not w.process.is_alive()
                ):
                    self._revive(w)
        return handled

    # ------------------------------------------------------------------
    # Ticket-core transport
    # ------------------------------------------------------------------
    def _enqueue(self, ticket: _Ticket) -> None:
        """Queue the ticket's chunks on the workers' backlogs and start
        the first transfers; degraded, answer it in-process."""
        if self.degraded:
            ticket.remaining = 1
            self._run_local(ticket, np.arange(len(ticket.s), dtype=np.int64))
            return
        chunks = self._chunks(ticket, self._slot_pairs)
        # Count every chunk before the first dispatch: a chunk answered
        # at once must not see remaining hit zero early.
        ticket.remaining = sum(map(len, chunks))
        for w, mine in zip(self._workers, chunks):
            w.backlog.extend((ticket, chunk, 0) for chunk in mine)
            self._dispatch(w)
        if not self.degraded:
            while self._drain(block=False):  # opportunistic, non-blocking
                pass

    def _wait(self, ticket: _Ticket, wait: float | None) -> None:
        self._drain(block=True, wait=wait)

    @property
    def worker_restarts(self) -> list[int]:
        """Lifetime revivals per worker slot."""
        return [w.restarts for w in self._workers]

    def _shutdown(self) -> None:
        """Stop every worker and release the control pipes.

        Escalates per worker: a stop sentinel and a bounded join first,
        then ``terminate`` (SIGTERM), then ``kill`` (SIGKILL) — a hung
        worker cannot leak past close.
        """
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=2.0)
            self._watchdog = None
        for w in self._workers:
            if w.process is None:
                continue
            if w.process.is_alive() and w.task_w is not None:
                try:
                    w.task_w.send(None)
                except (OSError, ValueError):
                    pass
            self._reap(w)
            for conn in (w.task_w, w.result_r):
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass
            w.task_w = None
            w.result_r = None


class ThreadQueryServer(_TicketServer):
    """A thread-pool batch-query server sharing one mmap'd index file.

    The zero-IPC sibling of :class:`QueryServer`, built for the native
    kernel tier: every worker thread calls ``query_batch`` on the *same*
    index object in this address space, so there are no shared-memory
    slots, no pickling, and no result scatter — workers pull
    case-grouped sub-batches from a queue and write verdicts directly
    into the ticket's preallocated output array (shards hold disjoint
    positions, so the concurrent writes never overlap).  With compiled
    ``nogil`` kernels the GIL is released for the whole kernel loop and
    throughput scales with cores; on the pure-numpy tier the GIL
    serializes most of the work, making this a low-overhead single-core
    server (use :class:`QueryServer` to scale there).

    The constructor pins the kernel-thread budget for the whole process
    to ``max(1, cpu_count // workers)`` — see the module docstring's
    thread-budget policy.

    Same ticket core — ``submit`` / ``collect`` / ``query_batch`` /
    ``stats`` / context manager — as :class:`QueryServer`, so benchmarks
    and examples can swap the two; ``stats()`` adds ``kernel_threads``.
    Verdicts are bit-identical to the in-process index for every worker
    count.

    Parameters
    ----------
    path:
        A file written by :func:`~repro.core.serialize.save_mmap`.
    shard:
        As for :class:`QueryServer`: the shard of a sharded file to
        serve, ``None`` for a plain index file.
    workers:
        Thread-pool size.
    slot_pairs:
        Maximum pairs per queued sub-batch.  Batches larger than one
        sub-batch per worker split further so :meth:`submit` pipelines.
    prepare:
        Build the lazy batch caches up front (in the constructor) so
        worker threads never race a lazy build; ``False`` defers the
        build to a lock-guarded first use.

    Examples
    --------
    >>> import tempfile, os
    >>> from repro.core import KReachIndex, save_mmap
    >>> from repro.graph.generators import gnp_digraph
    >>> g = gnp_digraph(60, 0.08, seed=1)
    >>> fd, path = tempfile.mkstemp(suffix=".kr4"); os.close(fd)
    >>> save_mmap(KReachIndex(g, 3), path)
    >>> with ThreadQueryServer(path, workers=2) as server:
    ...     verdicts = server.query_batch([(0, 5), (5, 0), (3, 3)])
    >>> verdicts.dtype.name, len(verdicts)
    ('bool', 3)
    >>> os.unlink(path)
    """

    def __init__(
        self,
        path,
        *,
        shard: int | None = None,
        workers: int = 2,
        slot_pairs: int = DEFAULT_SLOT_PAIRS,
        prepare: bool = True,
    ) -> None:
        super().__init__(workers)
        self._slot_pairs = _check_slot_pairs(slot_pairs)
        from repro.core.serialize import load_mmap

        # One address space: pin the shared kernel-thread budget before
        # any kernel (and hence numba's thread pool) starts.
        self.kernel_threads = native.pin_kernel_threads(
            native.thread_budget(workers)
        )
        self._index = load_mmap(path, shard=shard)
        self._n = self._index.graph.n
        self._prep_lock = threading.Lock()
        self._prepared = False
        if prepare:
            self._index.prepare_batch()
            self._prepared = True
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._cond = threading.Condition()
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"kreach-serve-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for th in self._threads:
            th.start()

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _ensure_prepared(self) -> None:
        """Build the lazy batch caches exactly once (``prepare=False``)."""
        if not self._prepared:
            with self._prep_lock:
                if not self._prepared:
                    self._index.prepare_batch()
                    self._prepared = True

    def _worker_loop(self) -> None:
        while True:
            task = self._tasks.get()
            if task is None:
                return
            ticket, positions = task
            error = None
            try:
                # Only the hang site fires here: thread workers share the
                # test process, so an injected os._exit would kill it —
                # worker_exit chaos belongs to the process pool.
                if faults.ENABLED:
                    faults.fire("serve.worker_hang")
                self._ensure_prepared()
                pairs = np.column_stack(
                    (ticket.s[positions], ticket.t[positions])
                )
                # Disjoint positions per shard: no write overlaps a
                # sibling thread's, so no lock is needed for the scatter.
                ticket.out[positions] = self._index.query_batch(pairs)
            except BaseException:
                error = traceback.format_exc()[-_MAX_ERROR_CHARS:]
            with self._cond:
                if error is not None:
                    ticket.error = ticket.error or error
                ticket.remaining -= 1
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # Ticket-core transport
    # ------------------------------------------------------------------
    def _enqueue(self, ticket: _Ticket) -> None:
        self._ensure_prepared()
        chunks = [c for mine in self._chunks(ticket, self._slot_pairs) for c in mine]
        # Count every chunk before the first enqueue: a worker that
        # finishes instantly must not see remaining hit zero early.
        ticket.remaining = len(chunks)
        for chunk in chunks:
            self._tasks.put((ticket, chunk))

    def _wait(self, ticket: _Ticket, wait: float | None) -> None:
        with self._cond:
            if ticket.remaining:
                self._cond.wait(timeout=wait)

    def _backend_stats(self) -> dict:
        return {"kernel_threads": self.kernel_threads}

    def _shutdown(self) -> None:
        """Queued chunks are served before the stop sentinels, so
        outstanding tickets settle (but can no longer be collected)."""
        for _ in self._threads:
            self._tasks.put(None)
        for th in self._threads:
            th.join(timeout=10)
