"""Process-wide failpoint registry for fault-injection testing.

Durable formats and supervised serving are only trustworthy if their
failure paths actually run.  This module gives the persistence layer
(:mod:`repro.core.serialize`) and the serving tier
(:mod:`repro.core.serve`) named **injection sites** — places where a
chaos test can make the process crash mid-write, a worker hang
mid-shard, or a kernel crawl — without any test-only branches living in
the production code itself.

Sites (see :data:`SITES` for the authoritative list):

``serialize.v4_write_mid``
    Fires halfway through the section payload of a
    :func:`~repro.core.serialize.save_mmap` or
    :func:`~repro.core.serialize.save_sharded` write, after the bytes so
    far are flushed.  With mode ``exit`` this leaves a torn temp file on
    disk and kills the process — the atomic-rename save must leave the
    previous snapshot untouched.
``serialize.v3_log_tail``
    Fires inside :meth:`~repro.core.serialize.OpLog.append` after only
    part of a framed record reached the file — a torn tail the next
    open must recover from by truncation, never by replaying garbage.
``serve.worker_hang``
    Fires in a query-server worker between receiving a shard and
    computing it; mode ``hang`` parks the worker so the parent's
    watchdog (or a ``collect`` timeout) has something real to detect.
``serve.worker_exit``
    Same place, but the worker dies instantly (``os._exit``), exactly
    like an OOM kill — supervision must re-dispatch its shards.
``batch.kernel_slow``
    Fires at the head of the hot batch kernels
    (:meth:`~repro.core.batch.KeyedRowStore.lookup`, the level-view bit
    probes of :meth:`~repro.core.kreach.KReachIndex.query_batch`,
    :func:`~repro.core.batch.case4_bitset_join`); mode ``sleep`` delays
    them, turning fast tests into slow-consumer/deadline tests.
``ingest.spill_write``
    Fires in :func:`~repro.graph.ingest.ingest_edge_list` immediately
    before a sorted run buffer is written to its spill file — the
    external sort must leave no orphan run files behind when the write
    raises or the process dies mid-spill.

Arming
------
Two ways, composable:

* **Environment** — ``KREACH_FAULTS=site:mode[:prob][,site:mode[:prob]...]``
  parsed at import time, so worker subprocesses (fork *and* spawn) come
  up armed identically to the parent::

      KREACH_FAULTS="serve.worker_exit:exit:0.2" pytest tests/core/test_serve.py

* **Context manager** — :func:`inject` arms a site for a ``with`` block
  and restores the previous state on exit::

      with faults.inject("serialize.v4_write_mid", "error"):
          save_mmap(index, path)   # raises FaultInjected mid-write

Modes: ``error`` raises :class:`FaultInjected`; ``exit`` calls
``os._exit`` (no cleanup, no atexit — the closest a test can get to
``kill -9`` from inside); ``hang`` sleeps for ``seconds`` (default 1
hour); ``sleep`` sleeps briefly (default 5 ms) and continues.

``max_fires`` bounds how many times a site triggers.  With ``token=``
(a filesystem path prefix) the bound is **cross-process**: each fire
atomically claims ``{token}.{i}`` via ``O_CREAT | O_EXCL``, so "exactly
one worker in the pool dies, whichever gets there first — and its
respawned replacement does not" is expressible even though every forked
child inherits the armed registry.

Cost when disarmed
------------------
Call sites guard every :func:`fire` with ``if faults.ENABLED:`` —
:data:`ENABLED` is a module-level boolean kept in sync with the
registry, so an unarmed process pays one attribute load and a falsy
check per site, nothing else.  No site allocates, formats, or looks up
anything until something is actually armed.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager

__all__ = [
    "SITES",
    "MODES",
    "ENABLED",
    "FaultInjected",
    "arm",
    "disarm",
    "reset",
    "armed",
    "fire",
    "inject",
    "arm_from_env",
    "describe",
]

#: Registered injection sites — arming an unknown name is an error so a
#: typo in KREACH_FAULTS fails loudly instead of silently never firing.
SITES = {
    "serialize.v4_write_mid": "mid-payload of a v6 file's section write",
    "serialize.v3_log_tail": "after a partial OpLog record hit the file",
    "serve.worker_hang": "query-server worker, before computing a shard",
    "serve.worker_exit": "query-server worker, before computing a shard",
    "batch.kernel_slow": "head of the hot batch kernels",
    "ingest.spill_write": "before an external-sort run spills to disk",
}

MODES = ("error", "exit", "hang", "sleep")

#: Exit code used by mode ``exit`` — distinctive, so crash-recovery
#: tests can tell an injected crash from an ordinary failure.
EXIT_CODE = 86

#: Default sleep lengths per mode (seconds).
_HANG_SECONDS = 3600.0
_SLEEP_SECONDS = 0.005


class FaultInjected(RuntimeError):
    """Raised by a failpoint armed with mode ``error``."""

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at failpoint {site!r}")
        self.site = site


class _Fault:
    __slots__ = ("site", "mode", "prob", "seconds", "max_fires", "token", "fires")

    def __init__(self, site, mode, prob, seconds, max_fires, token):
        self.site = site
        self.mode = mode
        self.prob = prob
        self.seconds = seconds
        self.max_fires = max_fires
        self.token = token
        self.fires = 0


_armed: dict[str, _Fault] = {}
_rng = random.Random()

#: True iff at least one site is armed.  Call sites check this before
#: calling :func:`fire` so the disarmed cost is one boolean test.
ENABLED = False


def _refresh() -> None:
    global ENABLED
    ENABLED = bool(_armed)


def _validate(site: str, mode: str, prob: float) -> None:
    if site not in SITES:
        raise ValueError(
            f"unknown failpoint {site!r}; known sites: {', '.join(sorted(SITES))}"
        )
    if mode not in MODES:
        raise ValueError(f"unknown fault mode {mode!r}; modes: {MODES}")
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"fault probability must be in [0, 1], got {prob}")


def arm(
    site: str,
    mode: str,
    *,
    prob: float = 1.0,
    seconds: float | None = None,
    max_fires: int | None = None,
    token: str | None = None,
) -> None:
    """Arm ``site`` with ``mode``; replaces any previous arming."""
    _validate(site, mode, prob)
    if token is not None and max_fires is None:
        max_fires = 1
    _armed[site] = _Fault(site, mode, float(prob), seconds, max_fires, token)
    _refresh()


def disarm(site: str | None = None) -> None:
    """Disarm one site, or every site when ``site`` is ``None``."""
    if site is None:
        _armed.clear()
    else:
        _armed.pop(site, None)
    _refresh()


def reset() -> None:
    """Disarm everything (alias kept for test teardown readability)."""
    disarm(None)


def armed(site: str) -> bool:
    """Whether ``site`` is currently armed (fires may still be spent)."""
    return site in _armed


def _claim_token(fault: _Fault) -> bool:
    """Atomically claim one cross-process fire slot; False when spent."""
    for i in range(fault.max_fires or 1):
        try:
            fd = os.open(
                f"{fault.token}.{i}",
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            continue
        except OSError:
            return False  # unreachable token dir: treat as spent
        os.close(fd)
        return True
    return False


def fire(site: str) -> bool:
    """Trigger ``site`` if armed; returns whether the fault fired.

    Mode ``error`` raises and mode ``exit`` never returns; ``hang`` and
    ``sleep`` return ``True`` after their delay so torn-write sites can
    resume and finish the operation when the fault chose not to kill it.
    """
    fault = _armed.get(site)
    if fault is None:
        return False
    if fault.prob < 1.0 and _rng.random() >= fault.prob:
        return False
    if fault.token is not None:
        if not _claim_token(fault):
            return False
    elif fault.max_fires is not None and fault.fires >= fault.max_fires:
        return False
    fault.fires += 1
    if fault.mode == "error":
        raise FaultInjected(site)
    if fault.mode == "exit":
        os._exit(EXIT_CODE)
    if fault.mode == "hang":
        time.sleep(_HANG_SECONDS if fault.seconds is None else fault.seconds)
    elif fault.mode == "sleep":
        time.sleep(_SLEEP_SECONDS if fault.seconds is None else fault.seconds)
    return True


@contextmanager
def inject(
    site: str,
    mode: str,
    *,
    prob: float = 1.0,
    seconds: float | None = None,
    max_fires: int | None = None,
    token: str | None = None,
):
    """Arm ``site`` for the duration of a ``with`` block.

    Restores whatever arming (or none) the site had before, so chaos
    tests compose with an environment-armed registry.  Yields the
    internal fault record; its ``fires`` counter tells the test whether
    (and how often) the site actually triggered in this process.
    """
    previous = _armed.get(site)
    arm(
        site,
        mode,
        prob=prob,
        seconds=seconds,
        max_fires=max_fires,
        token=token,
    )
    try:
        yield _armed[site]
    finally:
        if previous is None:
            _armed.pop(site, None)
        else:
            _armed[site] = previous
        _refresh()


def arm_from_env(spec: str | None = None) -> int:
    """Parse a ``KREACH_FAULTS`` spec and arm it; returns sites armed.

    Syntax: ``site:mode[:prob]`` joined by commas.  Called once at
    import time with the real environment, so any process that imports
    :mod:`repro` (including spawned worker subprocesses) comes up with
    the same faults armed.
    """
    if spec is None:
        spec = os.environ.get("KREACH_FAULTS", "")
    count = 0
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) not in (2, 3):
            raise ValueError(
                f"bad KREACH_FAULTS entry {part!r}: expected site:mode[:prob]"
            )
        site, mode = pieces[0], pieces[1]
        try:
            prob = float(pieces[2]) if len(pieces) == 3 else 1.0
        except ValueError:
            raise ValueError(
                f"bad KREACH_FAULTS probability in {part!r}"
            ) from None
        arm(site, mode, prob=prob)
        count += 1
    return count


def describe() -> dict[str, dict[str, object]]:
    """The armed registry as plain data (for logs and BENCH provenance)."""
    return {
        site: {
            "mode": f.mode,
            "prob": f.prob,
            "seconds": f.seconds,
            "max_fires": f.max_fires,
            "fires": f.fires,
        }
        for site, f in sorted(_armed.items())
    }


arm_from_env()
