"""Host-speed tracking, so shared-host slowdowns cancel out of the figures.

On a shared 2-CPU virtual machine the same batch of queries ran 20-40 %
slower for stretches of tens of seconds to minutes, whatever the
program did: the whole vCPU slows down.  Runs of a fixed workload then
spread by 15-30 % between identical invocations, wider than any useful
regression bound.

:class:`HostSpeed` times a fixed numpy reference kernel, shaped like the
program's own work: binary searches over a sorted key array, a sort, a
segmented OR and a unique, then random reads from an 8 MiB table, twice
the size of L2, since lookups into the large indexes wait on the shared
last-level cache, which the neighbours' load slows as much as it slows
the cores.  It runs every 100 ms while a workload runs.  Callers sample
only while the program is idle: between its calls, with no batch in
flight in any pool, and with the clock of the measured window stopped.
The kernel runs twice and only the second run is timed, so what the
program left in the caches does not change the reading.  It is timed
in *thread CPU time*, so only a slower host changes it.

Figures are scaled by ``NOMINAL_S / median(kernel time)``: they read
as milliseconds and pairs per second on a host where the kernel takes
``NOMINAL_S``, which is about what it takes on the 2-vCPU host the
benchmark was tuned on.  ``run.py`` prints the unscaled figures too.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Reference-kernel thread CPU time on the tuning host, in seconds.
NOMINAL_S = 0.0013
EVERY_S = 0.1


class HostSpeed:
    """The reference kernel's timings, at most one per ``EVERY_S``."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = np.sort(rng.integers(0, 1 << 40, size=50_000))
        self._probes = rng.integers(0, 1 << 40, size=5_000)
        self._words = rng.integers(0, 1 << 62, size=25_000).view(np.uint64)
        self._starts = np.arange(0, len(self._words), 7)
        self._table = np.ones(2 << 20, dtype=np.int32)
        self._picks = rng.integers(0, len(self._table), size=100_000)
        self._due = 0.0
        self.samples: list[float] = []

    def due(self) -> bool:
        """Whether the last sample is older than ``EVERY_S``."""
        return time.perf_counter() >= self._due

    def _kernel(self) -> None:
        np.searchsorted(self._keys, self._probes)
        np.sort(self._probes)
        np.bitwise_or.reduceat(self._words, self._starts)
        np.unique(self._probes % 1_000)
        self._table[self._picks].sum()

    def sample(self) -> None:
        """Time the reference kernel; call only while the program is idle."""
        self._kernel()
        start = time.thread_time()
        self._kernel()
        self.samples.append(time.thread_time() - start)
        self._due = time.perf_counter() + EVERY_S

    def factor(self) -> float:
        """Multiply a measured time by this to read it at nominal speed."""
        return NOMINAL_S / statistics.median(self.samples)
