"""Deterministic fault injection for the ingest cluster.

A :class:`CrashPlan` is a worker hook that ``kill -9``'s its own process
at scheduled points — the primitive behind the ``tests/cluster/``
fault-injection harness and the failover drill in
``docs/DISTRIBUTED.md``.  Schedules are keyed by
``(worker_id, incarnation, chunk_index, phase)``, so a restarted worker
(incarnation 1) replays cleanly past the point where incarnation 0
died, and multi-crash scenarios stay fully reproducible.

Phases correspond to the two interesting failure positions:

* :data:`PHASE_CHUNK_START` — **mid-chunk**: the worker dies after
  pulling a chunk but before shipping its delta; the restarted worker
  must regenerate and re-send it.
* :data:`PHASE_CHUNK_SENT` — **chunk boundary**: the worker dies right
  after the delta left its pipe; the coordinator's dedupe must drop the
  replayed duplicate.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field

__all__ = ["CrashPlan", "PHASE_CHUNK_START", "PHASE_CHUNK_SENT"]

#: Hook phase fired before a chunk is encoded (a mid-chunk kill point).
PHASE_CHUNK_START = "chunk_start"

#: Hook phase fired after a chunk's delta was sent (a boundary kill point).
PHASE_CHUNK_SENT = "chunk_sent"


@dataclass(frozen=True)
class CrashPlan:
    """A ``kill -9`` schedule for cluster workers.

    ``kills`` holds ``(worker_id, incarnation, chunk_index, phase)``
    tuples; when a worker's hook fires with a matching coordinate the
    worker sends itself ``SIGKILL`` — no cleanup, no goodbye, exactly
    the failure mode a crashed or OOM-killed ingest node presents.

    Example
    -------
    >>> plan = CrashPlan.at((1, 0, 4, PHASE_CHUNK_START))
    >>> plan.should_crash(PHASE_CHUNK_START, 1, 0, 4)
    True
    >>> plan.should_crash(PHASE_CHUNK_START, 1, 1, 4)   # restarted: survives
    False
    """

    kills: frozenset = field(default_factory=frozenset)

    @classmethod
    def at(cls, *entries: tuple) -> "CrashPlan":
        """Build a plan from ``(worker_id, incarnation, index, phase)`` tuples."""
        return cls(kills=frozenset(tuple(entry) for entry in entries))

    def should_crash(
        self, phase: str, worker_id: int, incarnation: int, chunk_index: int
    ) -> bool:
        """Whether this coordinate is scheduled to die (pure; no kill)."""
        return (worker_id, incarnation, chunk_index, phase) in self.kills

    def __call__(
        self, phase: str, worker_id: int, incarnation: int, chunk_index: int
    ) -> None:
        if self.should_crash(phase, worker_id, incarnation, chunk_index):
            os.kill(os.getpid(), signal.SIGKILL)
