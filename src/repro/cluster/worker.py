"""The cluster worker process: assigned chunks in, deltas out.

A worker owns nothing but a :class:`WorkerPlan` — its own copy of the
(picklable, deterministically re-iterable) chunk source, a picklable
encode callable, and an untrained model clone used purely for
:func:`~repro.learning.merge.shard_delta` type dispatch.  It iterates
the source from the beginning (the synthetic sources have no random
chunk access; generation is cheap next to encoding), encodes only the
chunks assigned to it by round robin (``index % num_workers ==
worker_id``) at or past its replay cursor ``start_index``, and ships
one message per chunk over its pipe:

``("delta", worker_id, incarnation, chunk_index, rows, delta)``
    one chunk's pure bundle statistics;
``("done", worker_id, incarnation, total_chunks)``
    end of stream (``total_chunks`` is the full source length, the
    coordinator's termination criterion);
``("error", worker_id, incarnation, detail)``
    a Python-level failure (bad data, encode error) — distinct from a
    *crash*, which sends nothing and is detected by pipe EOF.

Workers never see each other and never see the merged model; all
ordering and dedupe lives in the coordinator.  Because the source and
encode are deterministic, a restarted worker (``incarnation + 1``,
``start_index`` = its cursor) regenerates byte-identical deltas for any
chunk it replays — the property that makes ``kill -9`` recovery exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from ..exceptions import InvalidParameterError
from ..learning.classifier import CentroidClassifier
from ..learning.merge import shard_delta
from ..learning.regression import HDRegressor

__all__ = ["WorkerPlan", "worker_main", "worker_proto"]


def worker_proto(
    model: Union[CentroidClassifier, HDRegressor],
) -> Union[CentroidClassifier, HDRegressor]:
    """An untrained, RNG-free clone of ``model`` for pure delta work.

    Workers only call :func:`~repro.learning.merge.shard_delta`, which
    needs the model's type, dimensionality and (for regressors) label
    embedding — never its accumulators or tie-break RNG.  Shipping a
    stripped clone keeps worker plans small and makes it structurally
    impossible for a worker to consume the real model's RNG stream.
    """
    if isinstance(model, CentroidClassifier):
        return CentroidClassifier(model.dim, tie_break="zeros")
    if isinstance(model, HDRegressor):
        return HDRegressor(
            model.label_embedding,
            tie_break="zeros",
            decode=model.decode_mode,
            model=model.model_mode,
        )
    raise InvalidParameterError(
        f"no cluster worker dispatch for {type(model).__name__}; supported: "
        "CentroidClassifier, HDRegressor"
    )


@dataclass
class WorkerPlan:
    """Everything one worker process needs, fully picklable.

    ``hook`` (optional) is the fault-injection seam: a picklable
    callable ``hook(phase, worker_id, incarnation, chunk_index)`` fired
    before each assigned chunk encodes (``"chunk_start"``) and after its
    delta is sent (``"chunk_sent"``) — see
    :class:`~repro.cluster.fault.CrashPlan`.
    """

    worker_id: int
    num_workers: int
    source: object
    encode: Callable
    proto: object
    start_index: int = 0
    incarnation: int = 0
    hook: Callable | None = None

    def _fire(self, phase: str, chunk_index: int) -> None:
        if self.hook is not None:
            self.hook(phase, self.worker_id, self.incarnation, chunk_index)


def worker_main(plan: WorkerPlan, conn) -> None:
    """Process entry point: stream, encode, ship, exit.

    Module-level (not a closure) so worker processes can be started
    under the ``spawn`` method as well as ``fork``.  The connection is
    closed on every exit path; an abrupt death (``SIGKILL``) closes it
    mid-message, which the coordinator reads as a crash.
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
            # Same label normalisation as ingest_chunk, so cluster
            # models serialise exactly like serial ones.
            targets = chunk.targets
            targets = targets.tolist() if isinstance(targets, np.ndarray) else list(targets)
            delta = shard_delta(plan.proto, plan.encode(chunk), targets)
            conn.send(
                (
                    "delta",
                    plan.worker_id,
                    plan.incarnation,
                    chunk_index,
                    chunk.rows,
                    delta,
                )
            )
            plan._fire("chunk_sent", chunk_index)
        conn.send(("done", plan.worker_id, plan.incarnation, total))
    except Exception as exc:  # ship the failure; never die silently
        try:
            conn.send(
                (
                    "error",
                    plan.worker_id,
                    plan.incarnation,
                    f"{type(exc).__name__}: {exc}",
                )
            )
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
