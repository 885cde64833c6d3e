"""Tests for the deterministic worker pool."""

from __future__ import annotations

import pytest

from repro.exceptions import CalibrationError, InvalidParameterError
from repro.runtime import WorkerPool, resolve_workers
from repro.runtime.pool import default_start_method, default_workers


def _square(x: int) -> int:
    return x * x


def _add(a: int, b: int) -> int:
    return a + b


class TestResolveWorkers:
    def test_literal(self):
        assert resolve_workers(3) == 3

    def test_auto(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            resolve_workers(-1)
        with pytest.raises(InvalidParameterError):
            resolve_workers(2.5)  # type: ignore[arg-type]
        # Reproducer: False == 0 matched the "one per CPU" case before
        # bools were rejected, so False fanned out to every CPU.
        for flag in (False, True):
            with pytest.raises(InvalidParameterError):
                resolve_workers(flag)
            with pytest.raises(InvalidParameterError):
                WorkerPool(workers=flag)


def test_default_workers_resolution(monkeypatch):
    assert default_workers(3) == 3
    assert default_workers(1) == 1
    monkeypatch.setenv("REPRO_WORKERS", "5")
    assert default_workers() == 5
    assert default_workers(2) == 2  # the explicit argument wins
    monkeypatch.setenv("REPRO_WORKERS", "0")
    with pytest.raises(CalibrationError, match="REPRO_WORKERS"):
        default_workers()


class TestWorkerPool:
    def test_serial_runs_inline(self):
        pool = WorkerPool(workers=1)
        assert pool.serial
        assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_thread_pool_preserves_order(self):
        import time

        def slow_when_small(x: int) -> int:
            time.sleep(0.02 if x < 2 else 0.0)
            return x

        with WorkerPool(workers=4) as pool:
            assert pool.map(slow_when_small, list(range(8))) == list(range(8))

    def test_map_without_context_manager(self):
        assert WorkerPool(workers=2).map(_square, [3, 4]) == [9, 16]

    def test_starmap(self):
        with WorkerPool(workers=2) as pool:
            assert pool.starmap(_add, [(1, 2), (3, 4)]) == [3, 7]

    def test_exceptions_propagate(self):
        def boom(x: int) -> int:
            raise ValueError("boom")

        with WorkerPool(workers=2) as pool:
            with pytest.raises(ValueError, match="boom"):
                pool.map(boom, [1, 2, 3])

    def test_close_idempotent(self):
        pool = WorkerPool(workers=2)
        pool.__enter__()
        pool.close()
        pool.close()


@pytest.mark.parametrize(
    "methods, expected",
    [(["fork", "spawn", "forkserver"], "fork"), (["spawn"], "spawn")],
)
def test_default_start_method_prefers_fork(monkeypatch, methods, expected):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    assert default_start_method() == expected
