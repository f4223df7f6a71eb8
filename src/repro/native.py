"""Dispatch registry for the native (JIT-compiled) kernel tier.

The hot query/build kernels — bitset joins, the blocked MS-BFS frontier
expansion, the sorted-key gather — exist in two implementations: the
vectorized numpy path (always available, the differential baseline) and
a loop-level body in :mod:`repro.native_kernels` that `numba`_ compiles
to GIL-releasing machine code.  This module owns the choice between
them:

* **Tier selection.**  The ``KREACH_NATIVE`` environment variable picks
  the process-wide tier: ``auto`` (default — numba when importable,
  numpy otherwise), ``numba`` (require the compiled tier; raise if numba
  is missing), ``numpy`` (pin the baseline), or ``python`` (run the
  kernel bodies uncompiled — the tier the differential tests use to pin
  the exact code numba would compile, without needing numba).  Per
  thread, ``with native.use('auto'):`` prefers the compiled tier for
  the calls inside the block regardless of the environment.
* **Fail-safe compilation.**  Kernels compile lazily, once, on first use
  of the numba tier — and every compiled kernel is validated against its
  numpy twin on a smoke input before it is ever trusted.  A kernel whose
  compile or validation fails silently degrades to numpy and records the
  reason (visible in :func:`describe`), so a numba/LLVM quirk can cost
  speed but never correctness.
* **Thread budgeting.**  :func:`thread_budget` / :func:`pin_kernel_threads`
  implement the serving tier's oversubscription policy (see
  :mod:`repro.core.serve`): with N pool workers each allowed M kernel
  threads, N x M must not exceed the host, so workers pin
  ``NUMBA_NUM_THREADS`` / ``OMP_NUM_THREADS`` to ``cpu_count // N``.

Registration happens at import time of the module that owns each numpy
implementation (:mod:`repro.bitsets.ops`, :mod:`repro.core.batch`,
:mod:`repro.graph.traversal`); this module never imports them, so there
are no cycles.

.. _numba: https://numba.pydata.org
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading

import numpy as np

__all__ = [
    "ENV_VAR",
    "TIERS",
    "register",
    "kernel",
    "resolve",
    "kernel_names",
    "available",
    "requested",
    "active",
    "use",
    "refresh",
    "describe",
    "thread_budget",
    "pin_kernel_threads",
]

#: Environment variable selecting the process-wide tier.
ENV_VAR = "KREACH_NATIVE"

#: Accepted values of :data:`ENV_VAR` (and of :func:`use`).
TIERS = ("auto", "numba", "numpy", "python")

_PENDING = "pending"
_COMPILED = "compiled"


class _Kernel:
    """One registered kernel: its numpy twin, jit-able body, and state."""

    __slots__ = (
        "name",
        "numpy_impl",
        "python_impl",
        "parallel",
        "sample",
        "compiled",
        "status",
    )

    def __init__(self, name, numpy_impl, python_impl, parallel, sample):
        self.name = name
        self.numpy_impl = numpy_impl
        self.python_impl = python_impl
        self.parallel = parallel
        self.sample = sample
        self.compiled = None
        self.status = _PENDING  # 'pending' | 'compiled' | 'failed: ...'


_REGISTRY: dict[str, _Kernel] = {}
_AVAILABLE: bool | None = None
_COMPILE_LOCK = threading.Lock()
_TLS = threading.local()


def register(
    name: str,
    *,
    numpy_impl,
    python_impl,
    parallel: bool = False,
    sample=None,
) -> None:
    """Register a dispatchable kernel.

    ``numpy_impl`` and ``python_impl`` must share one positional
    signature.  ``parallel`` opts the numba compile into
    ``parallel=True`` (the body uses ``prange``).  ``sample`` is a
    zero-argument callable returning a fresh argument tuple; when given,
    the first numba compile is validated by running both implementations
    on (independent) sample inputs and comparing results — the
    fail-safe that keeps an untrusted compile from ever answering a real
    query.  Re-registering a name is a no-op (module reloads).
    """
    if name not in _REGISTRY:
        _REGISTRY[name] = _Kernel(name, numpy_impl, python_impl, parallel, sample)


def kernel_names() -> tuple[str, ...]:
    """Registered kernel names, sorted."""
    _ensure_registrations()
    return tuple(sorted(_REGISTRY))


def _ensure_registrations() -> None:
    """Import the modules whose import-time side effect is registration."""
    import repro.bitsets.ops  # noqa: F401
    import repro.core.batch  # noqa: F401
    import repro.graph.traversal  # noqa: F401


def available() -> bool:
    """Whether the numba tier can be activated (numba imports cleanly).

    Cached — tests that mask numba in ``sys.modules`` must call
    :func:`refresh` after (un)masking.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            import numba  # noqa: F401

            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


def requested() -> str:
    """The tier requested via :data:`ENV_VAR` (default ``'auto'``)."""
    tier = os.environ.get(ENV_VAR, "auto").strip().lower() or "auto"
    if tier not in TIERS:
        raise ValueError(
            f"{ENV_VAR} must be one of {TIERS}, got {tier!r}"
        )
    return tier


def active() -> str:
    """The tier that will actually serve the next kernel call.

    Resolves the innermost :func:`use` override (thread-local), else the
    environment request; ``'auto'`` becomes ``'numba'`` when available
    and ``'numpy'`` otherwise.  An explicit ``KREACH_NATIVE=numba`` with
    no numba installed raises — silent fallback is only for ``'auto'``.
    """
    stack = getattr(_TLS, "stack", None)
    forced = bool(stack)
    tier = stack[-1] if forced else requested()
    if tier == "auto":
        return "numba" if available() else "numpy"
    if tier == "numba" and not available():
        if forced:
            return "numpy"
        raise RuntimeError(
            f"{ENV_VAR}=numba but numba is not importable; install the "
            "'native' extra (pip install repro[native]) or unset the "
            "variable for the numpy fallback"
        )
    return tier


@contextlib.contextmanager
def use(tier: str):
    """Force a tier for the current thread within a ``with`` block.

    ``use('auto')`` prefers the compiled tier for the calls inside the
    block regardless of the environment; ``use('numpy')`` /
    ``use('python')`` pin a baseline (the differential tests and the
    benchmark's numpy column).  The override is thread-local; set
    :data:`ENV_VAR` to pick the tier of the serving pools' worker
    threads and processes.  A forced ``'numba'`` without numba falls
    back to numpy instead of raising — per-call preference is advisory,
    only the environment variable is a hard requirement.

        >>> from repro import native
        >>> with native.use("numpy"):
        ...     native.active()
        'numpy'
        >>> with native.use("python"):
        ...     native.active()
        'python'
    """
    if tier not in TIERS:
        raise ValueError(f"tier must be one of {TIERS}, got {tier!r}")
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    stack.append(tier)
    try:
        yield
    finally:
        stack.pop()


def refresh() -> None:
    """Drop the availability cache and all compiled kernels.

    For tests that mask numba out of ``sys.modules`` (and for unmasking
    afterwards): the next :func:`available` re-probes the import and the
    next numba-tier call recompiles.
    """
    global _AVAILABLE
    _AVAILABLE = None
    for k in _REGISTRY.values():
        k.compiled = None
        k.status = _PENDING


def _results_match(a, b) -> bool:
    """Structural equality of kernel results (arrays or tuples of them)."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (
            isinstance(a, tuple)
            and isinstance(b, tuple)
            and len(a) == len(b)
            and all(_results_match(x, y) for x, y in zip(a, b))
        )
    return bool(np.array_equal(np.asarray(a), np.asarray(b)))


def _ensure_compiled(k: _Kernel):
    """Compile (and smoke-validate) ``k`` once; None if it must fall back."""
    if k.status == _COMPILED:
        return k.compiled
    if k.status != _PENDING:
        return None
    with _COMPILE_LOCK:
        if k.status == _COMPILED:
            return k.compiled
        if k.status != _PENDING:
            return None
        try:
            import numba

            fn = numba.njit(nogil=True, parallel=k.parallel, cache=False)(
                k.python_impl
            )
            if k.sample is not None:
                expected = k.numpy_impl(*k.sample())
                got = fn(*k.sample())  # fresh args: in-place kernels mutate
                if not _results_match(expected, got):
                    raise RuntimeError(
                        "compiled kernel disagrees with the numpy twin on "
                        "the smoke input"
                    )
            k.compiled = fn
            k.status = _COMPILED
            return fn
        except Exception as exc:  # fall back to numpy, remember why
            k.compiled = None
            k.status = f"failed: {type(exc).__name__}: {exc}"[:300]
            return None


def resolve(name: str):
    """The implementation serving ``name`` right now, as ``(fn, tier)``.

    ``tier`` is the tier the returned callable belongs to —
    ``'numba'``/``'python'``/``'numpy'`` — which may differ from
    :func:`active` when a compile failed.  Call sites whose numpy path
    is inlined (chunked loops with keyword knobs) branch on the tier;
    everyone else just calls :func:`kernel`.
    """
    k = _REGISTRY[name]
    tier = active()
    if tier == "python":
        return k.python_impl, "python"
    if tier == "numba":
        fn = _ensure_compiled(k)
        if fn is not None:
            return fn, "numba"
    return k.numpy_impl, "numpy"


def kernel(name: str):
    """The callable serving ``name`` under the active tier."""
    return resolve(name)[0]


# ----------------------------------------------------------------------
# Thread budgeting (the serving tier's oversubscription policy)
# ----------------------------------------------------------------------

def thread_budget(workers: int) -> int:
    """Kernel threads each of ``workers`` pool members may use.

    ``max(1, cpu_count // workers)`` — so a W-worker pool whose members
    each run parallel kernels at this budget occupies at most
    ``cpu_count`` threads in total, instead of ``W x cpu_count``.

        >>> from repro import native
        >>> native.thread_budget(10**9)  # never rounds down to zero
        1
    """
    cpus = os.cpu_count() or 1
    return max(1, cpus // max(1, int(workers)))


def pin_kernel_threads(count: int) -> int:
    """Pin the per-process kernel thread pools to ``count`` threads.

    Sets ``NUMBA_NUM_THREADS`` and ``OMP_NUM_THREADS`` (effective for
    any library loaded after this call) and, when numba is already
    imported, also applies :func:`numba.set_num_threads` (which can only
    lower the launch-time maximum — hence serving pools pin *before*
    first kernel use).  Returns the pinned count.
    """
    count = max(1, int(count))
    os.environ["NUMBA_NUM_THREADS"] = str(count)
    os.environ["OMP_NUM_THREADS"] = str(count)
    numba = sys.modules.get("numba")
    if numba is not None and hasattr(numba, "set_num_threads"):
        try:
            ceiling = int(numba.config.NUMBA_NUM_THREADS)
            numba.set_num_threads(max(1, min(count, ceiling)))
        except Exception:
            pass
    return count


# ----------------------------------------------------------------------
# Introspection
# ----------------------------------------------------------------------

def describe() -> dict:
    """Provenance snapshot of the native tier — what would actually run.

    Embedded in ``kreach-bench --json`` ``meta`` blocks and printed by
    the CLI, so a benchmark artifact records whether its numbers came
    from compiled or numpy kernels.  Keys: ``requested`` (env value),
    ``available`` (numba importable), ``active`` (resolved tier, or an
    ``error: ...`` string when ``KREACH_NATIVE=numba`` is unsatisfiable),
    ``numba_version`` / ``threading_layer`` / ``num_threads`` (None
    without numba; the layer is only known once a parallel kernel ran),
    and ``kernels`` — ``{name: 'pending' | 'compiled' | 'failed: ...'}``.
    """
    _ensure_registrations()
    try:
        tier = active()
    except (RuntimeError, ValueError) as exc:
        tier = f"error: {exc}"
    version = layer = threads = None
    if available():
        try:
            import numba

            version = numba.__version__
            threads = int(numba.get_num_threads())
            try:
                layer = numba.threading_layer()
            except Exception:
                layer = None  # unknown until a parallel kernel has run
        except Exception:
            pass
    return {
        "requested": os.environ.get(ENV_VAR, "auto"),
        "available": available(),
        "active": tier,
        "numba_version": version,
        "threading_layer": layer,
        "num_threads": threads,
        "kernels": {name: _REGISTRY[name].status for name in sorted(_REGISTRY)},
    }


def describe_line() -> str:
    """One human line for CLI output: tier, numba facts, kernel count."""
    info = describe()
    numba_bit = (
        f"numba {info['numba_version']}"
        + (f"/{info['threading_layer']}" if info["threading_layer"] else "")
        + (f" x{info['num_threads']}" if info["num_threads"] else "")
        if info["available"]
        else "numba absent"
    )
    return (
        f"native tier: requested={info['requested']} active={info['active']} "
        f"({numba_bit}, {len(info['kernels'])} kernels)"
    )
