"""An asyncio batching front door for the k-reach serving pools.

Many concurrent clients each hold a handful of ``(s, t)`` pairs; the
pools underneath (:class:`~repro.core.sharded.ShardedQueryServer`,
:class:`~repro.core.serve.QueryServer`, or
:class:`~repro.core.serve.ThreadQueryServer`) are happiest with large
batches.  :class:`FrontDoor` bridges the two:

* **Micro-batching.**  Requests land on an asyncio queue; a batcher
  task waits for the first one, takes every request already queued
  behind it while the batch holds fewer than ``max_batch`` pairs, and
  flushes at once.  No timer holds a batch open: whatever queues while
  one flush runs rides the next.  The flush runs the pool call in a
  worker thread so the event loop keeps accepting clients while the
  pools compute.
* **Hot-pair answer cache.**  An LRU of recent verdicts
  (``cache_pairs`` entries) short-circuits repeat queries — social
  workloads hit the same celebrity pairs constantly.  The cache is
  generation-stamped: :meth:`FrontDoor.invalidate_cache` bumps the
  generation (call it after graph churn), and in-flight requests from
  an old generation never write stale verdicts back.
* **Admission control.**  When the uncollected backlog exceeds
  ``max_backlog`` pairs, new work is refused with
  :class:`FrontDoorOverloaded` (HTTP 503 on the wire) instead of
  growing the queue without bound.
* **Observability.**  ``GET /healthz`` reports pool health;
  ``GET /metrics`` returns structured counters — qps, batch occupancy,
  cache hit rate, p50/p99 latency, admission rejects, and the
  per-shard pool stats (including per-worker restart counts) straight
  from ``server.stats()``.

The HTTP surface is a deliberately minimal HTTP/1.1 implementation on
``asyncio.start_server`` — three JSON routes, connection-close
semantics — so the serving tier stays dependency-free.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict, deque

import numpy as np

from repro.core.batch import as_pair_array

__all__ = ["FrontDoor", "FrontDoorOverloaded", "http_request"]


class FrontDoorOverloaded(RuntimeError):
    """Admission control refused a request: backlog over ``max_backlog``."""

    def __init__(self, backlog: int, limit: int) -> None:
        super().__init__(
            f"front door overloaded: {backlog} pairs queued (limit {limit})"
        )
        self.backlog = backlog
        self.limit = limit


class _Request:
    """One client's uncached pairs awaiting a batched flush."""

    __slots__ = ("pairs", "future", "generation")

    def __init__(self, pairs, future, generation: int) -> None:
        self.pairs = pairs
        self.future = future
        self.generation = generation


class FrontDoor:
    """Aggregate concurrent async clients into batched pool queries.

    Parameters
    ----------
    server:
        Any pool with ``query_batch(pairs)`` and ``stats()`` — sharded
        or single.  When it also exposes ``n`` (all three server classes
        do), each request's vertex ids are range-checked against it
        before the request joins a batch, so one bad request cannot fail
        the other riders of its batch.
    max_batch:
        Stop adding queued requests to a batch once it holds this many
        pairs; the rest ride the next flush.
    cache_pairs:
        LRU answer-cache capacity in pairs (0 disables caching).
    max_backlog:
        Admission-control bound on enqueued-but-unflushed pairs.
    """

    def __init__(
        self,
        server,
        *,
        max_batch: int = 8192,
        cache_pairs: int = 65536,
        max_backlog: int = 65536,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._server = server
        # Without a declared vertex count only dtype, shape and sign can
        # be checked here; the pool range-checks the batch itself.
        self._n = getattr(server, "n", np.iinfo(np.int64).max)
        self._max_batch = int(max_batch)
        self._cache_cap = int(cache_pairs)
        self._max_backlog = int(max_backlog)
        self._queue: asyncio.Queue = asyncio.Queue()
        self._batcher_task: asyncio.Task | None = None
        self._http_server: asyncio.AbstractServer | None = None
        self._closed = False
        self._born = time.monotonic()

        self._cache: OrderedDict[tuple[int, int], bool] = OrderedDict()
        self._cache_generation = 0
        self._backlog_pairs = 0

        # Counters and reservoirs for /metrics.
        self.requests = 0
        self.pairs_served = 0
        self.batches = 0
        self.batched_pairs = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.admission_rejects = 0
        self._latencies: deque[float] = deque(maxlen=4096)  # seconds
        self._qps_window: deque[tuple[float, int]] = deque()

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> "FrontDoor":
        """Spawn the batcher task (idempotent)."""
        if self._batcher_task is None:
            self._batcher_task = asyncio.ensure_future(self._batcher())
        return self

    async def start_http(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Start the HTTP listener; returns the bound ``(host, port)``."""
        await self.start()
        self._http_server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        bound = self._http_server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def close(self) -> None:
        """Graceful shutdown: drain queued requests, stop the listener.

        The underlying pool is **not** closed — the caller owns it.
        """
        if self._closed:
            return
        self._closed = True
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
        if self._batcher_task is not None:
            await self._queue.put(None)  # sentinel: flush then exit
            await self._batcher_task
            self._batcher_task = None

    async def __aenter__(self) -> "FrontDoor":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------- serving

    async def query(self, pairs) -> list[bool]:
        """Answer a client's pairs (cache first, batched pool second).

        Raises :class:`ValueError` for pairs that are not an ``(m, 2)``
        array of integer vertex ids in ``[0, server.n)``.
        """
        if self._closed:
            raise RuntimeError("front door is closed")
        arr = as_pair_array(pairs, self._n)
        self.requests += 1
        born = time.monotonic()
        # Plain lists: per-pair numpy scalar writes would cost more than
        # the validation above.
        out = [False] * len(arr)
        missing: list[int] = []
        if self._cache_cap > 0:
            for i, (s, t) in enumerate(arr.tolist()):
                hit = self._cache.get((s, t))
                if hit is None:
                    missing.append(i)
                else:
                    self._cache.move_to_end((s, t))
                    out[i] = hit
            self.cache_hits += len(arr) - len(missing)
            self.cache_misses += len(missing)
        else:
            missing = list(range(len(arr)))
            self.cache_misses += len(arr)

        if missing:
            if self._backlog_pairs + len(missing) > self._max_backlog:
                self.admission_rejects += 1
                raise FrontDoorOverloaded(self._backlog_pairs, self._max_backlog)
            await self.start()
            todo = arr[missing]
            request = _Request(
                todo,
                asyncio.get_running_loop().create_future(),
                self._cache_generation,
            )
            self._backlog_pairs += len(missing)
            await self._queue.put(request)
            verdicts = await request.future
            for i, v in zip(missing, verdicts):
                out[i] = v
            if self._cache_cap > 0 and request.generation == self._cache_generation:
                for (s, t), v in zip(todo.tolist(), verdicts):
                    self._cache[(s, t)] = v
                    self._cache.move_to_end((s, t))
                while len(self._cache) > self._cache_cap:
                    self._cache.popitem(last=False)

        now = time.monotonic()
        self._latencies.append(now - born)
        self.pairs_served += len(arr)
        self._qps_window.append((now, len(arr)))
        while self._qps_window and now - self._qps_window[0][0] > 10.0:
            self._qps_window.popleft()
        return out

    def invalidate_cache(self) -> None:
        """Drop every cached verdict (call after graph churn).

        Requests already in flight carry the old generation and will
        not re-populate the cache with pre-churn answers.
        """
        self._cache_generation += 1
        self._cache.clear()

    # ------------------------------------------------------------ batching

    async def _batcher(self) -> None:
        # Work-conserving: one flush in flight, and each flush takes the
        # requests that queued while the previous one ran.
        stopping = False
        while not stopping:
            first = await self._queue.get()
            if first is None:
                break
            batch = [first]
            total = len(first.pairs)
            while total < self._max_batch and not self._queue.empty():
                item = self._queue.get_nowait()
                if item is None:
                    stopping = True
                    break
                batch.append(item)
                total += len(item.pairs)
            await self._flush(batch, total)

    async def _flush(self, batch: list[_Request], total: int) -> None:
        pairs = np.concatenate([req.pairs for req in batch])
        self.batches += 1
        self.batched_pairs += total
        try:
            verdicts = await asyncio.to_thread(self._server.query_batch, pairs)
        except BaseException as exc:  # propagate to every rider
            for req in batch:
                if not req.future.done():
                    req.future.set_exception(
                        exc if isinstance(exc, Exception) else RuntimeError(str(exc))
                    )
            self._backlog_pairs -= total
            if not isinstance(exc, Exception):
                raise
            return
        verdicts = np.asarray(verdicts).tolist()
        offset = 0
        for req in batch:
            span = verdicts[offset : offset + len(req.pairs)]
            offset += len(req.pairs)
            if not req.future.done():
                req.future.set_result(span)
        self._backlog_pairs -= total

    # ------------------------------------------------------------- metrics

    def metrics(self) -> dict:
        """Structured serving metrics plus the pool's own ``stats()``."""
        latencies = np.array(self._latencies, dtype=np.float64)
        now = time.monotonic()
        window = [n for ts, n in self._qps_window if now - ts <= 10.0]
        # A door younger than the window has served for its uptime only.
        span = min(10.0, now - self._born)
        total_cache = self.cache_hits + self.cache_misses
        return {
            "uptime_s": round(now - self._born, 3),
            "requests": self.requests,
            "pairs_served": self.pairs_served,
            "qps": round(sum(window) / span, 2) if span > 0 else 0.0,
            "batches": self.batches,
            "batch_occupancy": round(
                self.batched_pairs / (self.batches * self._max_batch), 4
            )
            if self.batches
            else 0.0,
            "mean_batch_pairs": round(self.batched_pairs / self.batches, 1)
            if self.batches
            else 0.0,
            "backlog_pairs": self._backlog_pairs,
            "admission_rejects": self.admission_rejects,
            "cache": {
                "entries": len(self._cache),
                "capacity": self._cache_cap,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": round(self.cache_hits / total_cache, 4)
                if total_cache
                else 0.0,
                "generation": self._cache_generation,
            },
            "latency_ms": {
                "p50": round(float(np.percentile(latencies, 50)) * 1000, 3)
                if len(latencies)
                else None,
                "p99": round(float(np.percentile(latencies, 99)) * 1000, 3)
                if len(latencies)
                else None,
            },
            "server": self._server.stats(),
        }

    def healthz(self) -> dict:
        health = self._server.stats().get("health", "ok")
        return {
            "status": health,
            "backlog_pairs": self._backlog_pairs,
            "uptime_s": round(time.monotonic() - self._born, 3),
        }

    # ----------------------------------------------------------------- HTTP

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request_line = await reader.readline()
                if not request_line:
                    return  # the client left without sending a request
                parts = request_line.decode("latin-1").split()
                if len(parts) < 2:
                    raise ValueError(f"malformed request line {request_line!r}")
                method, path = parts[0].upper(), parts[1]
                content_length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        value = value.strip()
                        if not value.isdecimal():  # refuses a sign too
                            raise ValueError(f"bad Content-Length {value!r}")
                        content_length = int(value)
                body = await reader.readexactly(content_length) if content_length else b""
            except ValueError as exc:  # malformed, or a line over the limit
                status, payload = 400, {"error": f"bad request: {exc}"}
            else:
                try:
                    status, payload = await self._dispatch(method, path, body)
                except Exception as exc:  # never kill the listener on one request
                    status, payload = 500, {"error": str(exc)}
            blob = json.dumps(payload).encode("utf-8")
            reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                      503: "Service Unavailable", 500: "Internal Server Error"}
            writer.write(
                (
                    f"HTTP/1.1 {status} {reason.get(status, 'OK')}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(blob)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + blob
            )
            await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # the client left mid-request: nobody to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _dispatch(self, method: str, path: str, body: bytes):
        if method == "GET" and path == "/healthz":
            report = self.healthz()
            return (200 if report["status"] == "ok" else 503), report
        if method == "GET" and path == "/metrics":
            return 200, self.metrics()
        if method == "POST" and path == "/query":
            try:
                request = json.loads(body.decode("utf-8"))
                if not isinstance(request, dict):
                    raise ValueError("body must be a JSON object")
                pairs = request["pairs"]
                if not isinstance(pairs, list):
                    raise ValueError("pairs must be a list")
            except (ValueError, KeyError, UnicodeDecodeError) as exc:
                return 400, {"error": f"bad request: {exc}"}
            try:
                verdicts = await self.query(pairs) if pairs else []
            except FrontDoorOverloaded as exc:
                return 503, {"error": str(exc)}
            except (ValueError, TypeError) as exc:
                return 400, {"error": str(exc)}
            return 200, {"verdicts": verdicts}
        return 404, {"error": f"no route for {method} {path}"}


async def http_request(
    host: str, port: int, method: str, path: str, payload: dict | None = None
) -> tuple[int, dict]:
    """Tiny JSON-over-HTTP client for tests, examples, and CI smoke.

    Returns ``(status_code, decoded_json_body)``.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head, _, rest = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(rest.decode("utf-8")) if rest else {}
