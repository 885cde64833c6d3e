"""The ingest coordinator: shard, merge in order, survive ``kill -9``.

:class:`ClusterCoordinator` drives a fleet of worker *processes* over
one chunk stream and folds their per-chunk deltas into the live model
with three properties the fault-injection suite pins down:

* **determinism** — deltas are absorbed strictly in global chunk order
  through a reorder buffer, so the merged model (including a
  classifier's first-seen class order, which decides nearest-class
  ties) is bit-identical to a serial ``stream_fit`` for any worker
  count;
* **failover** — each worker has its own pipe, so a ``SIGKILL``
  mid-message corrupts only that worker's channel; the coordinator
  detects the death, restarts the worker at its chunk cursor (the
  smallest assigned chunk not yet received), and dedupes any chunk the
  dead incarnation had already delivered;
* **checkpointability** — absorption is strictly in order, so the
  absorbed frontier (chunks ``[0, frontier)``) is the whole replay
  state a checkpoint needs: on resume each worker starts at its first
  assigned chunk at or past it.

Worker assignment is round robin by global chunk index (``index %
workers``); workers regenerate the stream independently (the sources
re-derive per-cell RNG substreams, so iteration is deterministic and
cheap relative to encoding) and only encode their own chunks.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import Pipe, wait
from typing import Callable, Union

from ..exceptions import ClusterError, InvalidParameterError
from ..runtime.tree import fork, reap
from ..streaming.chunks import ChunkSource
from ..streaming.reduce import StreamStats
from .worker import WorkerPlan, worker_main

__all__ = ["ClusterCoordinator"]

#: Seconds the run loop waits on worker pipes before checking for
#: dead workers.
_POLL_INTERVAL_S = 0.05


@dataclass
class _WorkerState:
    pid: Union[int, None]  # None once waited for
    conn: object
    incarnation: int = 0
    done: bool = False
    restarts: int = 0


class ClusterCoordinator:
    """Shard a chunk stream across worker processes; merge exactly.

    Parameters
    ----------
    model:
        The live model deltas are folded into
        (:class:`~repro.learning.classifier.CentroidClassifier` or
        :class:`~repro.learning.regression.HDRegressor`).  Workers get
        a copy for its pure ``shard`` method; only the coordinator
        ever mutates it, through ``absorb``.
    source:
        A deterministically re-iterable
        :class:`~repro.streaming.ChunkSource`; every worker iterates
        its own forked copy.
    encode:
        The per-chunk encode callable
        (:class:`~repro.streaming.train.RecordEncode` /
        :class:`~repro.streaming.train.ValueEncode`).
    workers:
        Worker process count, a positive integer (default ``1``).  It
        only schedules work: the merged model is bit-identical for any
        value.
    hook:
        Optional fault-injection hook installed into every worker (see
        :class:`~repro.cluster.fault.CrashPlan`).
    max_restarts:
        Restart budget *per worker*; exceeding it raises
        :class:`~repro.exceptions.ClusterError`.

    Workers are forked by :func:`~repro.runtime.tree.fork` after the
    model, source and encoder are loaded, so they share those pages and
    nothing but the deltas is pickled (Linux).

    Example
    -------
    >>> import numpy as np
    >>> from repro.learning import CentroidClassifier
    >>> from repro.runtime import BatchEncoder
    >>> from repro.streaming import JigsawsStream, stream_fit_classifier
    >>> from repro.streaming.train import RecordEncode
    >>> from repro.hdc.hypervector import random_hypervectors
    >>> from repro.basis import CircularBasis
    >>> stream = JigsawsStream("suturing", seed=3, chunk_size=40,
    ...                        samples_per_gesture=4)
    >>> emb = CircularBasis(10, 128, seed=1).circular_embedding(period=6.3)
    >>> enc = BatchEncoder(random_hypervectors(18, 128, seed=2), emb,
    ...                    tie_break="zeros")
    >>> merged = CentroidClassifier(128, tie_break="zeros", seed=0)
    >>> stats = ClusterCoordinator(merged, stream, RecordEncode(enc),
    ...                            workers=2).run()
    >>> serial = CentroidClassifier(128, tie_break="zeros", seed=0)
    >>> _ = stream_fit_classifier(serial, enc, stream)
    >>> stats.rows == 60 and all(
    ...     bool(np.array_equal(merged.class_vector(c), serial.class_vector(c)))
    ...     for c in serial.classes)
    True
    """

    def __init__(
        self,
        model,
        source: ChunkSource,
        encode: Callable,
        workers: int = 1,
        hook: Callable | None = None,
        max_restarts: int = 5,
    ) -> None:
        if not all(callable(getattr(model, m, None)) for m in ("shard", "absorb")):
            raise InvalidParameterError(
                f"cluster ingest needs a model with shard/absorb "
                f"(CentroidClassifier, HDRegressor), got {type(model).__name__}"
            )
        self.model = model
        self.source = source
        self.encode = encode
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise InvalidParameterError(
                f"cluster workers must be a positive integer, got {workers!r}"
            )
        self.workers = workers
        if max_restarts < 0:
            raise InvalidParameterError(
                f"max_restarts must be non-negative, got {max_restarts}"
            )
        self.hook = hook
        self.max_restarts = max_restarts
        # merge state (rebuilt by run())
        self._frontier = 0
        self._buffer: dict[int, tuple[int, object]] = {}
        self._expected_total: Union[int, None] = None
        self._states: dict[int, _WorkerState] = {}

    # -- cursor ----------------------------------------------------------------
    def _first_assigned(self, worker_id: int, at: int) -> int:
        """Smallest chunk index ``>= at`` assigned to ``worker_id``."""
        return at + ((worker_id - at) % self.workers)

    def _next_unreceived(self, worker_id: int) -> int:
        """Smallest assigned chunk neither absorbed nor buffered.

        The *in-flight* restart cursor: buffered deltas were fully
        received from the dead incarnation and stay valid, so the
        replacement skips past them.
        """
        index = self._first_assigned(worker_id, self._frontier)
        while index in self._buffer:
            index += self.workers
        return index

    # -- worker lifecycle ------------------------------------------------------
    def _spawn(self, worker_id: int, incarnation: int, start_index: int) -> _WorkerState:
        recv_end, send_end = Pipe(duplex=False)
        plan = WorkerPlan(
            worker_id=worker_id,
            num_workers=self.workers,
            source=self.source,
            encode=self.encode,
            model=self.model,
            start_index=start_index,
            incarnation=incarnation,
            hook=self.hook,
        )
        receivers = [state.conn for state in self._states.values() if state.conn is not None]
        pid = fork(worker_main, plan, send_end, close=[recv_end, *receivers])
        gc.unfreeze()  # frozen for the fork only: this process lives on
        # Close the parent's copy of the send end so a worker death
        # surfaces as EOF on the receive end instead of a silent hang.
        send_end.close()
        return _WorkerState(pid=pid, conn=recv_end, incarnation=incarnation)

    def _handle(self, message: object) -> None:
        if not isinstance(message, tuple) or not message:
            raise ClusterError(f"malformed worker message: {message!r}")
        kind = message[0]
        if kind == "delta":
            _, worker_id, _incarnation, index, rows, delta = message
            if index < self._frontier or index in self._buffer:
                return  # replayed duplicate: already absorbed or buffered
            self._buffer[index] = (int(rows), delta)
        elif kind == "done":
            _, worker_id, _incarnation, total = message
            total = int(total)
            if self._expected_total is not None and total != self._expected_total:
                raise ClusterError(
                    f"workers disagree about the stream length: "
                    f"{self._expected_total} vs {total} (worker {worker_id})"
                )
            self._expected_total = total
            state = self._states.get(worker_id)
            if state is not None:
                state.done = True
        elif kind == "error":
            _, worker_id, _incarnation, detail = message
            raise ClusterError(f"worker {worker_id} failed: {detail}")
        else:
            raise ClusterError(f"unknown worker message kind {kind!r}")

    def _drain_conn(self, state: _WorkerState) -> None:
        """Pull every message queued on a (possibly dead) worker's pipe."""
        while state.conn is not None:
            try:
                if not state.conn.poll(0):
                    return
                self._handle(state.conn.recv())
            except (EOFError, OSError, ValueError):
                # EOF, a torn mid-send message, or an unpicklable tail —
                # this channel is spent either way.
                state.conn.close()
                state.conn = None

    def _absorb_ready(
        self,
        stats: StreamStats,
        on_chunk: Union[Callable[[StreamStats], None], None],
    ) -> None:
        while self._frontier in self._buffer:
            rows, delta = self._buffer.pop(self._frontier)
            self.model.absorb(delta)
            self._frontier += 1
            stats.absorb(rows)
            if on_chunk is not None:
                on_chunk(stats)

    def _finished(self) -> bool:
        return (
            self._expected_total is not None
            and self._frontier >= self._expected_total
        )

    def _restart_dead(self) -> None:
        """Detect dead workers; restart them from their chunk cursor."""
        for worker_id, state in self._states.items():
            if state.done:
                continue
            if state.pid is not None and os.waitpid(state.pid, os.WNOHANG)[0]:
                state.pid = None  # waited for: never waited for again
            alive = state.pid is not None
            if alive and state.conn is not None:
                continue
            # The pipe may still hold complete messages the dead worker
            # sent before the kill (including its "done") — credit them
            # before deciding anything.
            self._drain_conn(state)
            if state.done:
                continue
            if alive:
                continue  # conn torn but process alive: next poll settles it
            restart_from = self._next_unreceived(worker_id)
            if self._expected_total is not None and restart_from >= self._expected_total:
                # Everything this worker owed has been received; nothing
                # to replay, so a restart would be pure waste.
                state.done = True
                continue
            if state.restarts >= self.max_restarts:
                raise ClusterError(
                    f"worker {worker_id} died {state.restarts + 1} times "
                    f"(restart budget {self.max_restarts}); giving up at "
                    f"chunk cursor {restart_from}"
                )
            restarts = state.restarts + 1
            replacement = self._spawn(worker_id, state.incarnation + 1, restart_from)
            replacement.restarts = restarts
            self._states[worker_id] = replacement

    def _cleanup(self) -> None:
        """Close every pipe, then kill and reap every worker not yet waited for."""
        for state in self._states.values():
            if state.conn is not None:
                state.conn.close()
                state.conn = None
        pids = [state.pid for state in self._states.values() if state.pid is not None]
        reap(pids, timeout=0.0)  # a worker still running owes nothing

    # -- the run loop ----------------------------------------------------------
    def run(
        self,
        on_chunk: Union[Callable[[StreamStats], None], None] = None,
        start: int = 0,
        stats: Union[StreamStats, None] = None,
    ) -> StreamStats:
        """Ingest the whole stream; return the pass's :class:`StreamStats`.

        ``start`` is the absorbed-chunk frontier of a resumed run (the
        checkpoint cursor's ``chunks``); each worker starts at its first
        assigned chunk at or past it.  Deltas that were only in a
        crashed coordinator's reorder buffer are not in the checkpoint,
        so they are replayed.  ``on_chunk`` runs after every absorbed
        chunk, in global chunk order — checkpoints hook here exactly as
        in the single-process reducer.  ``stats`` pre-seeds the
        accounting for resumed runs.
        """
        if start < 0:
            raise InvalidParameterError(f"start must be non-negative, got {start}")
        stats = stats if stats is not None else StreamStats()
        self._frontier = int(start)
        self._buffer = {}
        self._expected_total = None
        self._states = {}
        try:
            for worker_id in range(self.workers):
                self._states[worker_id] = self._spawn(
                    worker_id, 0, self._first_assigned(worker_id, self._frontier)
                )
            while True:
                conns = {s.conn: s for s in self._states.values() if s.conn is not None}
                if conns:
                    for conn in wait(list(conns), timeout=_POLL_INTERVAL_S):
                        self._drain_conn(conns[conn])
                else:
                    time.sleep(_POLL_INTERVAL_S)
                self._absorb_ready(stats, on_chunk)
                if self._finished():
                    break
                self._restart_dead()
                if (
                    all(state.done for state in self._states.values())
                    and not self._finished()
                    and self._frontier not in self._buffer
                ):
                    raise ClusterError(
                        f"stream gap at chunk {self._frontier}: all workers "
                        f"done but only {self._frontier} of "
                        f"{self._expected_total} chunks absorbed"
                    )
        finally:
            self._cleanup()
        return stats
