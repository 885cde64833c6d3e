"""The process tree: :func:`fan_out` and the fork/reap discipline every
fan-out shares.

* ``fan_out`` keeps the serial contract: results in task order, the
  first failing task's exception in task order, inline when serial;
* failure paths are exact: no forked pid is left unreaped, a child that
  dies is named, unflushed output is printed once, and the garbage
  collector is left unfrozen — after ``fan_out`` and after
  ``ClusterCoordinator.run``, clean or failing.
"""

from __future__ import annotations

import gc
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.cluster import PHASE_CHUNK_START, ClusterCoordinator, CrashPlan
from repro.exceptions import ClusterError, InvalidParameterError, ReproError
from repro.learning import CentroidClassifier
from repro.runtime import fan_out, resolve_workers
from repro.streaming import RecordEncode

from ..cluster.harness import DIM, assert_models_equal, make_encoder, make_stream, train_serial

SRC = Path(__file__).resolve().parents[2] / "src"


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
                fan_out(_square, [1, 2], workers=flag)


def test_default_workers_resolution():
    # The built-in is the serial reference; an explicit count is literal.
    assert fan_out(lambda _: os.getpid(), range(3)) == [os.getpid()] * 3
    pids = fan_out(lambda _: os.getpid(), range(3), workers=3)
    assert len(set(pids)) == 3 and os.getpid() not in pids
    assert resolve_workers(3) == 3
    assert resolve_workers(1) == 1


class TestFanOut:
    def test_serial_runs_inline(self):
        assert fan_out(_square, [1, 2, 3], workers=1) == [1, 4, 9]
        assert fan_out(lambda _: os.getpid(), [1, 2], workers=1) == [os.getpid()] * 2

    def test_processes_preserve_order(self):
        def slow_when_small(x: int) -> int:
            time.sleep(0.02 if x < 2 else 0.0)
            return x

        assert fan_out(slow_when_small, list(range(8)), workers=4) == list(range(8))

    def test_single_task_runs_inline(self):
        assert fan_out(lambda _: os.getpid(), [0], workers=2) == [os.getpid()]

    def test_closures_need_no_pickling(self):
        # Tasks and functions are inherited by the fork, never pickled.
        assert fan_out(lambda t: _add(*t), [(1, 2), (3, 4)], workers=2) == [3, 7]

    def test_exceptions_propagate(self):
        def boom(x: int) -> int:
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            fan_out(boom, [1, 2, 3], workers=2)

    def test_first_failure_in_task_order_wins(self):
        def fail_late(x: int) -> int:
            if x == 3:
                raise KeyError("later")
            if x == 4:
                time.sleep(0.05)
                raise ValueError("first in task order")
            return x

        # Index 4 (child 0) fails first in time; index 3 (child 1) first in order.
        with pytest.raises(ValueError, match="first in task order"):
            fan_out(fail_late, [0, 1, 2, 4, 3], workers=2)


# -- exact failure paths -------------------------------------------------------


@pytest.fixture
def forked(monkeypatch) -> list[int]:
    """Every pid this test forks, recorded at ``os.fork``."""
    pids: list[int] = []
    real_fork = os.fork

    def recording_fork() -> int:
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_all_reaped(pids: list[int]) -> None:
    assert pids, "the scenario forked nothing"
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert gc.get_freeze_count() == 0


@pytest.fixture
def deadline():
    """Turn a hang into a failure after 30 s."""

    def expired(signum, frame):
        raise TimeoutError("the fan-out hung")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestFanOutFailurePaths:
    def test_clean_run_reaps_every_child(self, forked):
        assert fan_out(_square, range(5), workers=2) == [0, 1, 4, 9, 16]
        assert len(forked) == 2
        assert_all_reaped(forked)

    def test_raising_task_reaps_every_child(self, forked):
        def boom(x: int) -> int:
            if x == 2:
                raise ValueError("boom")
            return x

        with pytest.raises(ValueError, match="boom"):
            fan_out(boom, range(6), workers=3)
        assert_all_reaped(forked)

    def test_killed_child_names_its_task(self, forked, deadline):
        def die_on_three(x: int) -> int:
            if x == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return x

        start = time.monotonic()
        with pytest.raises(ReproError, match="task 3 "):
            fan_out(die_on_three, range(6), workers=2)
        assert time.monotonic() - start < 10.0
        assert_all_reaped(forked)


def _cluster(model, encode=None, workers=3, hook=None):
    encode = encode or RecordEncode(make_encoder())
    return ClusterCoordinator(model, make_stream(), encode, workers=workers, hook=hook)


class TestClusterFailurePaths:
    def test_clean_run_reaps_every_worker(self, forked):
        model = CentroidClassifier(DIM, tie_break="zeros", seed=0)
        stats = _cluster(model).run()
        assert stats.chunks == 9
        assert_models_equal(model, train_serial(make_stream(), make_encoder()))
        assert_all_reaped(forked)

    def test_worker_error_reaps_every_worker(self, forked):
        def broken(chunk):
            raise RuntimeError("encode failed")

        model = CentroidClassifier(DIM, tie_break="zeros", seed=0)
        with pytest.raises(ClusterError, match="encode failed"):
            _cluster(model, encode=broken).run()
        assert_all_reaped(forked)

    def test_crash_plan_kill_reaps_every_incarnation(self, forked):
        model = CentroidClassifier(DIM, tie_break="zeros", seed=0)
        plan = CrashPlan.at((1, 0, 4, PHASE_CHUNK_START))
        _cluster(model, hook=plan).run()
        assert len(forked) == 4  # three workers and worker 1's restart
        assert_all_reaped(forked)

    def test_on_chunk_exception_reaps_every_worker(self, forked):
        class Interrupt(Exception):
            pass

        def interrupt(stats):
            if stats.chunks == 2:
                raise Interrupt

        model = CentroidClassifier(DIM, tie_break="zeros", seed=0)
        with pytest.raises(Interrupt):
            _cluster(model).run(on_chunk=interrupt)
        assert_all_reaped(forked)


def test_unflushed_output_is_printed_once():
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from repro.cluster import ClusterCoordinator
        from repro.runtime import fan_out
        from repro.streaming import array_chunks

        class Model:
            def shard(self, encoded, targets):
                return len(targets)

            def absorb(self, delta):
                pass

        sys.stdout.write("before|")
        # Each child writes too; os._exit must not lose its buffer.
        assert fan_out(lambda x: sys.stdout.write("c") and x, [1, 2], workers=2) == [1, 2]
        sys.stdout.write("|between|")
        chunks = array_chunks(np.zeros((6, 1)), np.zeros(6), chunk_size=2)
        ClusterCoordinator(Model(), chunks, lambda c: None, workers=2).run()
        sys.stdout.write("after")
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)  # the check needs a buffered stdout
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "before|cc|between|after"
