"""Deterministic worker pools for the experiment runtime.

Every parallel path in :mod:`repro.runtime` funnels through
:class:`WorkerPool`, which maps a function over a task list on a thread
or process pool and returns results **in task order** — never in
completion order.  Determinism therefore never depends on scheduling:
a pool with ``workers=4`` produces exactly the list that ``workers=1``
produces, just faster.

Thread workers are the default: the hot kernels (XOR, popcount, gather,
integer sums) are numpy calls that release the GIL, so threads scale on
multi-core hardware without pickling any arrays.  The ``"process"``
backend is available for workloads dominated by Python-level code; task
functions submitted to it must be picklable (module-level functions).

Example
-------
>>> from repro.runtime import WorkerPool
>>> with WorkerPool(workers=2) as pool:
...     pool.map(lambda x: x * x, [1, 2, 3])
[1, 4, 9]
>>> WorkerPool(workers=1).map(len, ["ab", "c"])   # serial: runs inline
[2, 1]
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from ..exceptions import InvalidParameterError

__all__ = [
    "WorkerPool",
    "default_start_method",
    "default_workers",
    "resolve_workers",
]

T = TypeVar("T")
R = TypeVar("R")

_BACKENDS = ("thread", "process")

#: Environment variable overriding the default worker count (see
#: :func:`default_workers`).
_ENV_WORKERS = "REPRO_WORKERS"


def _star_apply(fn_args: tuple[Callable[..., R], tuple]) -> R:
    """Unpack ``(fn, args)`` — module-level so the process backend can pickle it."""
    fn, args = fn_args
    return fn(*args)


def default_start_method() -> str:
    """The ``multiprocessing`` start method process-backed tiers use.

    ``fork`` where the platform offers it (cheap, inherits the loaded
    model/tables without re-import), else ``spawn`` — the rule the
    ingest cluster coordinator (:mod:`repro.cluster`) starts its
    workers with.

    >>> default_start_method() in ("fork", "spawn")
    True
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count request.

    ``None`` or ``0`` means "one worker per available CPU"; any positive
    integer is taken literally.

    >>> resolve_workers(3)
    3
    >>> resolve_workers(None) >= 1
    True
    """
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 0:
        raise InvalidParameterError(f"workers must be a non-negative integer, got {workers!r}")
    return workers


def default_workers(workers: int | None = None) -> int:
    """The default worker count for engines and drivers.

    Resolution order (:func:`repro.tuning.calibration.resolve_knob`):
    the explicit ``workers`` argument, then the ``REPRO_WORKERS``
    environment variable, then ``1`` (the serial reference).  Worker
    counts only schedule work: every consumer is bit-identical for any
    value.

    Distinct from :func:`resolve_workers`, which normalises an explicit
    request (``None``/``0`` → one worker per CPU) *inside*
    :class:`WorkerPool`; this function decides what unconfigured callers
    ask for in the first place.

    >>> default_workers(4)
    4
    >>> default_workers() >= 1
    True
    """
    from ..tuning.calibration import resolve_knob

    value = resolve_knob(
        builtin=1,
        arg=workers,
        env_var=_ENV_WORKERS,
        cast=int,
        minimum=1,
    )
    return max(1, int(value))


class WorkerPool:
    """Ordered map over a thread/process pool (or inline when serial).

    Parameters
    ----------
    workers:
        Number of concurrent workers.  ``1`` (the default) runs every
        task inline on the calling thread — no executor, no overhead —
        which is also the reference behaviour parallel runs must
        reproduce bit-for-bit.  ``None``/``0`` auto-sizes to the CPU
        count.
    backend:
        ``"thread"`` (default; zero-copy, GIL released by the numpy
        kernels) or ``"process"`` (picklable tasks only).

    The pool is a context manager; it may also be used without ``with``,
    in which case each :meth:`map` call tears its executor down before
    returning.

    Example
    -------
    >>> with WorkerPool(workers=2) as pool:
    ...     pool.starmap(pow, [(2, 3), (3, 2)])
    [8, 9]
    """

    def __init__(self, workers: int | None = 1, backend: str = "thread") -> None:
        if backend not in _BACKENDS:
            raise InvalidParameterError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        self.workers = resolve_workers(workers)
        self.backend = backend
        self._executor: Executor | None = None
        self._entered = False

    @property
    def serial(self) -> bool:
        """True when tasks run inline on the calling thread."""
        return self.workers <= 1

    # -- lifecycle -------------------------------------------------------------
    def _make_executor(self) -> Executor:
        if self.backend == "process":
            return ProcessPoolExecutor(max_workers=self.workers)
        return ThreadPoolExecutor(max_workers=self.workers)

    def __enter__(self) -> "WorkerPool":
        if not self.serial and self._executor is None:
            self._executor = self._make_executor()
        self._entered = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the underlying executor (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._entered = False

    # -- mapping ---------------------------------------------------------------
    def map(self, fn: Callable[[T], R], tasks: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every task, returning results in task order.

        Exceptions raised by any task propagate to the caller (after the
        already-submitted tasks finish), exactly as a serial loop would
        surface them.
        """
        items: Sequence[T] = list(tasks)
        if self.serial or len(items) <= 1:
            return [fn(item) for item in items]
        if self._executor is not None:
            return list(self._executor.map(fn, items))
        with self._make_executor() as executor:
            return list(executor.map(fn, items))

    def starmap(self, fn: Callable[..., R], tasks: Iterable[tuple]) -> list[R]:
        """Like :meth:`map` but unpacks each task tuple into arguments."""
        return self.map(_star_apply, [(fn, tuple(args)) for args in tasks])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorkerPool(workers={self.workers}, backend={self.backend!r})"
