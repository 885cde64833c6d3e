"""Deterministic worker pool for independent experiment cells.

The table, figure and sweep drivers of :mod:`repro.experiments` fan
their cells out through :class:`WorkerPool`, which maps a function over
a task list on a thread pool and returns results **in task order** —
never in completion order.  Determinism therefore never depends on
scheduling: a pool with ``workers=4`` produces exactly the list that
``workers=1`` produces, just faster.

Threads suffice: a cell's hot kernels (XOR, popcount, gather, integer
sums, GEMM) are numpy calls that release the GIL, so cells overlap on
multi-core hardware without pickling any arrays.  Process-level
fan-out belongs to the ingest cluster (:mod:`repro.cluster`), which
starts its workers with :func:`default_start_method`.

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
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from ..exceptions import InvalidParameterError

__all__ = [
    "WorkerPool",
    "default_start_method",
    "resolve_workers",
]

T = TypeVar("T")
R = TypeVar("R")

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
    if workers is not None and (
        not isinstance(workers, int) or isinstance(workers, bool) or workers < 0
    ):
        raise InvalidParameterError(f"workers must be a non-negative integer, got {workers!r}")
    return workers or os.cpu_count() or 1


class WorkerPool:
    """Ordered map over a thread pool (or inline when serial).

    Parameters
    ----------
    workers:
        Number of concurrent workers.  ``1`` (the default) runs every
        task inline on the calling thread — no executor, no overhead —
        which is also the reference behaviour parallel runs must
        reproduce bit-for-bit.  ``None``/``0`` auto-sizes to the CPU
        count.

    The pool is a context manager; it may also be used without ``with``,
    in which case each :meth:`map` call tears its executor down before
    returning.

    Example
    -------
    >>> with WorkerPool(workers=2) as pool:
    ...     pool.starmap(pow, [(2, 3), (3, 2)])
    [8, 9]
    """

    def __init__(self, workers: int | None = 1) -> None:
        self.workers = resolve_workers(workers)
        self._executor: ThreadPoolExecutor | None = None
        self._entered = False

    @property
    def serial(self) -> bool:
        """True when tasks run inline on the calling thread."""
        return self.workers <= 1

    # -- lifecycle -------------------------------------------------------------
    def _make_executor(self) -> ThreadPoolExecutor:
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
        return self.map(lambda args: fn(*args), tasks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WorkerPool(workers={self.workers})"
