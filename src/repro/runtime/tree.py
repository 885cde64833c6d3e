"""One process tree: every fan-out of the package forks here.

Three jobs fan out over independent work whose merge is exact: the
serving members of :mod:`repro.serve.prefork`, the ingest workers of
:mod:`repro.cluster`, and the cells of a table, figure or sweep
(:func:`fan_out`).  All of them start children with :func:`fork` and
wait for them with :func:`reap`, under one discipline:

* the parent flushes ``sys.stdout`` and ``sys.stderr`` first, so text
  it had buffered is printed once, not once per process;
* ``gc.freeze()`` before the fork, so a collection in the child does
  not touch, and so unshare, the pages the parent loaded.  A parent
  that lives on after its children calls ``gc.unfreeze()`` once it has
  forked them;
* the child closes the handles it must not hold (a copy of another
  child's pipe end would hide that child's EOF), runs its function and
  leaves through ``os._exit``: no ``finally`` block or ``atexit`` hook
  of the parent runs twice.  An exception is printed and becomes exit
  status 1;
* every child is waited for exactly once, by :func:`reap` or by its
  owner's ``waitpid(pid, WNOHANG)``, so none is left a zombie.

Fork is POSIX only; like serving, every fan-out runs on Linux.  A fork
copies only the calling thread, so fork where no other thread can hold
a lock the child needs (the drivers and the cluster start no thread).

Example
-------
>>> fan_out(abs, [-1, 2, -3], workers=2)
[1, 2, 3]
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import sys
import time
import traceback
from typing import Callable, Iterable, NoReturn, TypeVar

from ..exceptions import InvalidParameterError, ReproError

__all__ = ["fan_out", "fork", "reap", "resolve_workers"]

T = TypeVar("T")
R = TypeVar("R")

#: How long :func:`reap` waits by default before it kills.
_REAP_TIMEOUT_S = 30.0


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):
            pass


def _child(target: Callable[..., object], args: tuple, close: Iterable) -> NoReturn:
    code = 1
    try:
        for handle in close:
            handle.close()
        target(*args)
        code = 0
    except BaseException:  # noqa: BLE001 - report, then leave without unwinding
        traceback.print_exc()
    finally:
        _flush_stdio()
        os._exit(code)


def fork(target: Callable[..., object], *args: object, close: Iterable = ()) -> int:
    """Run ``target(*args)`` in a forked child; return the child's pid.

    The child first closes every handle in ``close`` (sockets, pipe
    ends, connections), and never returns: it leaves through
    ``os._exit`` with status 0, or 1 after printing what ``target``
    raised.  The caller must :func:`reap` the pid or ``waitpid`` it.
    """
    _flush_stdio()
    gc.freeze()
    pid = os.fork()
    if pid == 0:
        _child(target, args, close)
    return pid


def reap(pids: Iterable[int], timeout: float = _REAP_TIMEOUT_S) -> None:
    """Wait for every child in ``pids``; SIGKILL the ones still running
    after ``timeout`` seconds (``0`` kills at once)."""
    deadline = time.monotonic() + timeout
    waiting = set(pids)
    while True:
        waiting = {pid for pid in waiting if not os.waitpid(pid, os.WNOHANG)[0]}
        if not waiting:
            return
        if time.monotonic() >= deadline:
            for pid in waiting:
                os.kill(pid, signal.SIGKILL)
            for pid in waiting:
                os.waitpid(pid, 0)
            return
        time.sleep(0.01)


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


def _run_share(fn: Callable, tasks: list, first: int, step: int, fd: int) -> None:
    """A child's share of :func:`fan_out`: tasks ``first, first + step, …``.

    Each outcome is one pickle on the pipe, flushed before the next task
    starts, so what a crash loses is only the task it was running.  The
    pipe stays open until ``os._exit``: EOF means the child is done.
    """
    out = open(fd, "wb")  # closed by os._exit
    for index in range(first, len(tasks), step):
        try:
            report = (index, True, fn(tasks[index]))
        except Exception as exc:  # noqa: BLE001 - shipped to the parent
            report = (index, False, exc)
        out.write(pickle.dumps(report))
        out.flush()
        if not report[1]:
            return


def fan_out(fn: Callable[[T], R], tasks: Iterable[T], workers: int | None = 1) -> list[R]:
    """``[fn(task) for task in tasks]``, on up to ``workers`` processes.

    With ``workers`` 1 (the default) or a single task, the tasks run
    inline on the calling thread; ``None`` or ``0`` means one process
    per CPU.  Otherwise child ``i`` of ``w`` runs tasks ``i, i + w, …``
    in a fork taken now, so ``fn`` and the tasks are inherited, not
    pickled; only results travel back.  Results come in task order.
    The exception of the first failing task, in task order, is raised
    as if the loop had run serially, and a child that dies without
    reporting a task raises :class:`~repro.exceptions.ReproError`
    naming it.  Every child has been reaped when this returns.

    >>> fan_out(len, ["ab", "c"], workers=1)   # serial: runs inline
    [2, 1]
    """
    tasks = list(tasks)
    workers = min(resolve_workers(workers), len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    readers: list = []
    pids: list[int] = []
    reports: dict[int, tuple[bool, object]] = {}
    try:
        for first in range(workers):
            fd, out = os.pipe()
            readers.append(open(fd, "rb"))
            pids.append(fork(_run_share, fn, tasks, first, workers, out, close=readers))
            os.close(out)
        for reader in readers:
            while True:
                try:
                    index, ok, value = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError):
                    break  # the child is gone; a torn last report is lost
                reports[index] = ok, value
    except BaseException:
        reap(pids, timeout=0.0)
        raise
    finally:
        gc.unfreeze()  # frozen for the forks only: this process lives on
        for reader in readers:
            reader.close()
    reap(pids)
    results = []
    for index, task in enumerate(tasks):
        if index not in reports:
            raise ReproError(
                f"fan-out task {index} ({task!r:.80}) ended its process without a result"
            )
        ok, value = reports[index]
        if not ok:
            raise value
        results.append(value)
    return results
