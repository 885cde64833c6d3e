"""The cluster worker process: assigned chunks in, deltas out.

A worker owns nothing but a :class:`WorkerPlan` — its forked copy of
the (deterministically re-iterable) chunk source, the encode callable,
and a copy of the model, whose pure ``shard`` method
turns an encoded chunk into a delta.  ``shard`` reads only the model's
dimensionality and (for a regressor) its label embedding — never its
accumulators or tie-break RNG — so the copy's state is irrelevant and
the coordinator's model is the only one that changes.  It iterates
the source from the beginning (the synthetic sources have no random
chunk access; generation is cheap next to encoding), encodes only the
chunks assigned to it by round robin (``index % num_workers ==
worker_id``) at or past its replay cursor ``start_index``, and ships
one message per chunk over its pipe:

``("delta", worker_id, chunk_index, rows, delta)``
    one chunk's pure bundle statistics;
``("done", worker_id, total_chunks)``
    end of stream (``total_chunks`` is the full source length, the
    coordinator's termination criterion);
``("error", worker_id, detail)``
    a Python-level failure (bad data, encode error) — distinct from a
    *crash*, which sends nothing and is detected by pipe EOF.

Workers never see each other, and nothing they do reaches the
coordinator's model except the deltas they ship; all ordering and
dedupe lives in the coordinator.  Because the source and
encode are deterministic, a restarted worker (``incarnation + 1``,
``start_index`` = its cursor) regenerates byte-identical deltas for any
chunk it replays — the property that makes ``kill -9`` recovery exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..exceptions import InvalidParameterError

__all__ = ["WorkerPlan", "worker_main"]


@dataclass
class WorkerPlan:
    """Everything one worker process needs.

    ``hook`` (optional) is the fault-injection seam: a callable
    ``hook(phase, worker_id, incarnation, chunk_index)`` fired
    before each assigned chunk encodes (``"chunk_start"``) and after its
    delta is sent (``"chunk_sent"``) — see
    :class:`~repro.cluster.fault.CrashPlan`.
    """

    worker_id: int
    num_workers: int
    source: object
    encode: Callable
    model: object
    start_index: int = 0
    incarnation: int = 0
    hook: Callable | None = None

    def _fire(self, phase: str, chunk_index: int) -> None:
        if self.hook is not None:
            self.hook(phase, self.worker_id, self.incarnation, chunk_index)


def worker_main(plan: WorkerPlan, conn) -> None:
    """Process entry point: stream, encode, ship, exit.

    The connection is closed on every exit path; an abrupt death
    (``SIGKILL``) closes it mid-message, which the coordinator reads as
    a crash.
    """
    try:
        total = 0
        for index, chunk in enumerate(plan.source):
            total = index + 1
            chunk_index = index  # global position == local position: every
            # worker iterates the full source and filters, so indices agree
            # across workers and with the serial run.
            if chunk_index % plan.num_workers != plan.worker_id:
                continue
            if chunk_index < plan.start_index:
                continue
            plan._fire("chunk_start", chunk_index)
            if chunk.targets is None:
                raise InvalidParameterError(
                    "cluster ingest needs labelled chunks; this source yields "
                    "targets=None"
                )
            delta = plan.model.shard(plan.encode(chunk), chunk.targets)
            conn.send(("delta", plan.worker_id, chunk_index, chunk.rows, delta))
            plan._fire("chunk_sent", chunk_index)
        conn.send(("done", plan.worker_id, total))
    except Exception as exc:  # ship the failure; never die silently
        try:
            conn.send(("error", plan.worker_id, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
