"""Adaptive micro-batching: coalesce concurrent requests into one kernel call.

Encoding a key–value record and scanning the prototypes both cost far
less per row in one batched call than in one call per request, so the
serving tier's scheduler turns *concurrency* into *batch size*: the
rows of every request in flight at the same instant are packed into a
single :meth:`~repro.serve.engine.InferenceEngine.predict_coalesced`
call, which answers every row bit-identically to a sequential
``predict_one`` (no record's answer depends on its batch neighbours;
that property is what makes coalescing safe to do silently).

The unit of work is the **request**: :meth:`MicroBatcher.submit_records`
admits an ``(n, k)`` block of rows and queues it as one entry with one
future.  The scheduler packs queued rows into batches of up to
``max_batch`` rows, splitting a request across batches when it does
not fit, and resolves the request's future once, when its last span is
answered.  :meth:`MicroBatcher.submit` is the one-row case.

Each batch reads the model's current engine from the registry once, so
every row of a batch is answered by one model generation and a hot
swap takes effect at the next batch boundary.  A request split across
batches can straddle a swap: each of its spans is one generation, but
its spans need not be the same one.

The scheduler is **adaptive**: the batch window only holds a non-full
batch open while other admitted requests are still unanswered.  A lone
request on an idle server is dispatched immediately — the window never
taxes light traffic — while a flood of concurrent requests fills
batches up to ``max_batch`` before the window expires.

Both knobs resolve through the knob chain
(:func:`~repro.tuning.calibration.resolve_knob`): explicit argument,
then the ``REPRO_SERVE_BATCH_WINDOW_MS`` / ``REPRO_SERVE_BATCH_MAX``
environment variables, then the built-ins below.  Like every knob in
the repository, they only move scheduling — answers are bit-identical
for any value.

Admission control is a bounded count of admitted-but-unanswered
**rows** per batcher (``max_queue`` / ``REPRO_SERVE_MAX_QUEUE``).  A
request is admitted all or nothing, in one synchronous step: either
every row fits and the request is queued, or
:class:`~repro.exceptions.BackpressureError` is raised with nothing
queued (the HTTP front end maps it to ``429``), so clients see fast,
explicit backpressure instead of unbounded queueing.  Rows are the
admission unit, so the ``requests``, ``rejected`` and batch-size
counters in :attr:`MicroBatcher.stats` count rows; the latency
histogram takes one sample per request.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Sequence

import numpy as np

from ..exceptions import BackpressureError, InvalidParameterError
from ..tuning.calibration import resolve_knob
from .registry import ModelRegistry

__all__ = [
    "DEFAULT_BATCH_WINDOW_MS",
    "DEFAULT_BATCH_MAX",
    "DEFAULT_MAX_QUEUE",
    "LATENCY_BUCKETS_S",
    "BATCH_SIZE_BUCKETS",
    "default_batch_window_ms",
    "default_batch_max",
    "default_max_queue",
    "MicroBatcher",
]

#: Built-in batch window: how long a non-full batch may wait for more
#: concurrent traffic, in milliseconds.
DEFAULT_BATCH_WINDOW_MS = 2.0

#: Built-in cap on coalesced batch size.
DEFAULT_BATCH_MAX = 32

#: Built-in bound on admitted-but-unanswered rows per model; a request
#: that would pass it fails with backpressure.
DEFAULT_MAX_QUEUE = 256

#: Upper edges (seconds) of the request-latency histogram kept in
#: :attr:`MicroBatcher.stats` and exported by the HTTP tier's
#: ``/metrics`` endpoint; the final implicit bucket is ``+Inf``.
LATENCY_BUCKETS_S = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Upper edges (rows) of the coalesced-batch-size histogram; the final
#: implicit bucket is ``+Inf`` (batches above ``max_batch`` never occur,
#: but the edges are fixed so series from differently-tuned replicas
#: aggregate).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


def _bucket_counts(edges: tuple) -> list[int]:
    return [0] * (len(edges) + 1)


def _observe(edges: tuple, counts: list[int], value: float) -> None:
    """Increment the first bucket whose upper edge admits ``value``.

    Non-cumulative per-bucket counts; the Prometheus rendering
    (:meth:`~repro.serve.server.ServeServer` ``/metrics``) re-cumulates
    them, keeping the hot path to one integer increment.
    """
    for i, edge in enumerate(edges):
        if value <= edge:
            counts[i] += 1
            return
    counts[-1] += 1


def default_batch_window_ms(window_ms: float | None = None) -> float:
    """Resolve the micro-batch window through the knob chain.

    ``arg > REPRO_SERVE_BATCH_WINDOW_MS > built-in``.  ``0`` disables
    waiting entirely (a batch still coalesces whatever is already
    queued).

    >>> default_batch_window_ms(1.5)
    1.5
    """
    value = resolve_knob(
        builtin=DEFAULT_BATCH_WINDOW_MS,
        arg=window_ms,
        env_var="REPRO_SERVE_BATCH_WINDOW_MS",
        cast=float,
        minimum=0.0,
    )
    return max(0.0, float(value))


def default_batch_max(batch_max: int | None = None) -> int:
    """Resolve the micro-batch size cap through the knob chain.

    ``arg > REPRO_SERVE_BATCH_MAX > built-in``.
    ``1`` disables coalescing (every request is its own kernel call).

    >>> default_batch_max(8)
    8
    """
    value = resolve_knob(
        builtin=DEFAULT_BATCH_MAX,
        arg=batch_max,
        env_var="REPRO_SERVE_BATCH_MAX",
        cast=int,
        minimum=1,
    )
    return max(1, int(value))


def default_max_queue(max_queue: int | None = None) -> int:
    """Resolve the admission-control bound through the knob chain.

    ``arg > REPRO_SERVE_MAX_QUEUE > built-in``.

    >>> default_max_queue(64)
    64
    """
    value = resolve_knob(
        builtin=DEFAULT_MAX_QUEUE,
        arg=max_queue,
        env_var="REPRO_SERVE_MAX_QUEUE",
        cast=int,
        minimum=1,
    )
    return max(1, int(value))


class _Request:
    """One admitted request: its rows, its future and how far it got.

    ``sent`` rows have been handed to batches; ``answers`` holds the
    predictions of the spans answered so far, in row order.
    """

    __slots__ = ("rows", "future", "sent", "answers")

    def __init__(self, rows: np.ndarray, future: asyncio.Future) -> None:
        self.rows = rows
        self.future = future
        self.sent = 0
        self.answers: list = []


class MicroBatcher:
    """Per-model request coalescer over a :class:`ModelRegistry` entry.

    Parameters
    ----------
    registry, name:
        Where predictions come from.  The batcher reads the model's
        *current* engine once per batch (see the module docstring for
        what that means across a hot swap).
    window_ms, max_batch, max_queue:
        Scheduling knobs; ``None`` resolves through the knob chain
        (see the module docstring).

    The kernel call runs on the event loop's own thread, one batch at a
    time: ``max_batch`` bounds how long it holds the loop, and the
    scheduler yields to the loop between batches.

    Use as an async context manager, or call :meth:`start` / :meth:`stop`
    explicitly.  :meth:`submit_records` is the request API;
    :meth:`submit` predicts a single record through it.

    Example
    -------
    >>> import asyncio
    >>> from repro.experiments.config import RegressionConfig
    >>> from repro.experiments.serving import train_regression_pipeline
    >>> from repro.serve import MicroBatcher, ModelRegistry
    >>> pipe = train_regression_pipeline("circular", config=RegressionConfig(dim=128, seed=3))
    >>> async def demo():
    ...     with ModelRegistry() as registry:
    ...         registry.register("mars", pipe)
    ...         async with MicroBatcher(registry, "mars") as batcher:
    ...             one = await batcher.submit([1.25])
    ...             many = await batcher.submit_records([[1.25], [2.5]])
    ...             return one, many
    >>> one, many = asyncio.run(demo())
    >>> isinstance(one, float), len(many), bool(many[0] == one)
    (True, 2, True)
    """

    def __init__(
        self,
        registry: ModelRegistry,
        name: str,
        window_ms: float | None = None,
        max_batch: int | None = None,
        max_queue: int | None = None,
    ) -> None:
        registry.engine(name)  # fail fast on unknown models
        self.registry = registry
        self.name = name
        self.window_s = default_batch_window_ms(window_ms) / 1e3
        self.max_batch = default_batch_max(max_batch)
        self.max_queue = default_max_queue(max_queue)
        self._queue: deque[_Request] = deque()
        self._arrived = asyncio.Event()  # set when a request is queued
        self._pending = 0  # rows admitted, not yet answered (adaptive signal)
        self._idle = asyncio.Event()  # set while nothing is pending
        self._idle.set()
        self._task: asyncio.Task | None = None
        self.stats = {
            "requests": 0,
            "rejected": 0,
            "batches": 0,
            "max_batch_seen": 0,
            "max_pending_seen": 0,
            # Histogram state for the /metrics endpoint: per-bucket
            # (non-cumulative) counts over the fixed module-level edges,
            # plus the sums Prometheus histograms carry.
            "latency_seconds_sum": 0.0,
            "latency_buckets": _bucket_counts(LATENCY_BUCKETS_S),
            "batch_rows_sum": 0,
            "batch_buckets": _bucket_counts(BATCH_SIZE_BUCKETS),
        }

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> "MicroBatcher":
        """Spawn the scheduler loop (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())
        return self

    async def stop(self) -> None:
        """Wait until every admitted request is answered, then cancel the
        scheduler loop."""
        if self._task is None:
            return
        await self._idle.wait()
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None

    async def __aenter__(self) -> "MicroBatcher":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- request path ----------------------------------------------------------
    def submit_records(self, records: Any) -> asyncio.Future:
        """Admit an ``(n, k)`` block of records as one request.

        Returns the request's one future, which resolves to the ``n``
        predictions in row order; await it.  Admission is all or nothing
        and happens here, synchronously: a request larger than
        ``max_queue`` can never be admitted and raises
        :class:`~repro.exceptions.InvalidParameterError`; one that does
        not fit the rows still free raises
        :class:`~repro.exceptions.BackpressureError`.  Either way nothing
        is queued.  Cancelling the future drops the rows not yet
        computed.
        """
        rows = np.asarray(records, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise InvalidParameterError(
                f"submit_records takes a non-empty (n, k) block of records, "
                f"got shape {rows.shape}"
            )
        n = rows.shape[0]
        if n > self.max_queue:
            raise InvalidParameterError(
                f"{n} records exceed model {self.name!r}'s "
                f"max_queue={self.max_queue}; split the request"
            )
        if self._task is None:
            raise RuntimeError("MicroBatcher.start() has not been awaited")
        if self._pending + n > self.max_queue:
            self.stats["rejected"] += n
            raise BackpressureError(
                f"model {self.name!r} has {self._pending} "
                f"requests in flight and cannot admit {n} more "
                f"(max_queue={self.max_queue}); retry later"
            )
        self._pending += n
        self._idle.clear()
        self.stats["requests"] += n
        self.stats["max_pending_seen"] = max(
            self.stats["max_pending_seen"], self._pending
        )
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        start = loop.time()

        def settle(_: asyncio.Future) -> None:
            self._pending -= n
            if self._pending == 0:
                self._idle.set()
            elapsed = loop.time() - start
            self.stats["latency_seconds_sum"] += elapsed
            _observe(LATENCY_BUCKETS_S, self.stats["latency_buckets"], elapsed)

        future.add_done_callback(settle)
        self._queue.append(_Request(rows, future))
        self._arrived.set()
        return future

    async def submit(self, features: Sequence[float]) -> Any:
        """Predict one record; coalesced with concurrent requests.

        The one-row case of :meth:`submit_records`: admission control
        happens *before* queueing, so an overloaded model raises
        :class:`~repro.exceptions.BackpressureError` at once instead of
        buffering unboundedly.
        """
        row = np.asarray(features, dtype=np.float64)
        if row.ndim != 1:
            raise InvalidParameterError(
                f"submit takes one (k,) record, got shape {row.shape}"
            )
        return (await self.submit_records(row[None]))[0]

    # -- scheduler loop ----------------------------------------------------------
    def _fill(self, spans: list, room: int) -> int:
        """Move up to ``room`` queued rows into ``spans``; return the room
        left.  Requests already cancelled (or failed) are dropped."""
        queue = self._queue
        while room and queue:
            req = queue[0]
            if req.future.done():
                queue.popleft()
                continue
            n = req.rows.shape[0]
            take = min(room, n - req.sent)
            spans.append((req, req.sent, req.sent + take))
            req.sent += take
            room -= take
            if req.sent == n:
                queue.popleft()
        return room

    async def _collect(self) -> list[tuple]:
        """Gather and count one batch of ``(request, lo, hi)`` spans,
        adaptively."""
        loop = asyncio.get_running_loop()
        spans: list[tuple] = []
        while not spans:
            while not self._queue:
                self._arrived.clear()
                await self._arrived.wait()
            room = self._fill(spans, self.max_batch)
        deadline = loop.time() + self.window_s
        while room:
            # Adaptive hold: only wait while requests outside this batch
            # are still unanswered; an idle server dispatches at once.
            remaining = deadline - loop.time()
            in_batch = sum(req.rows.shape[0] for req, _, _ in spans)
            if remaining <= 0 or self._pending <= in_batch:
                break
            self._arrived.clear()
            try:
                await asyncio.wait_for(self._arrived.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                break
            room = self._fill(spans, room)
        size = sum(hi - lo for _, lo, hi in spans)
        self.stats["batches"] += 1
        self.stats["max_batch_seen"] = max(self.stats["max_batch_seen"], size)
        self.stats["batch_rows_sum"] += size
        _observe(BATCH_SIZE_BUCKETS, self.stats["batch_buckets"], size)
        return spans

    async def _run(self) -> None:
        while True:
            spans = await self._collect()
            try:
                if len(spans) == 1:
                    req, lo, hi = spans[0]
                    rows = req.rows[lo:hi]
                else:
                    rows = np.concatenate([req.rows[lo:hi] for req, lo, hi in spans])
                predictions = self.registry.engine(self.name).predict_coalesced(rows)
            except Exception as exc:
                for req, _, _ in spans:
                    if not req.future.done():
                        req.future.set_exception(exc)
            else:
                at = 0
                for req, lo, hi in spans:
                    answered = predictions[at:at + hi - lo]
                    at += hi - lo
                    if req.future.done():
                        continue
                    req.answers.extend(answered)
                    if len(req.answers) == req.rows.shape[0]:
                        req.future.set_result(req.answers)
            # The batch ran on the loop thread: let the HTTP handlers run
            # before the next one, so a request split across batches
            # blocks the loop for one batch at a time.
            await asyncio.sleep(0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroBatcher(model={self.name!r}, window_ms={self.window_s * 1e3}, "
            f"max_batch={self.max_batch}, max_queue={self.max_queue})"
        )
