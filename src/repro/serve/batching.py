"""Adaptive micro-batching: coalesce concurrent requests into one kernel call.

The GEMM similarity kernels reward batching — one BLAS product over 32
stacked queries costs far less than 32 single-row scans — so the serving
tier's scheduler turns *concurrency* into *batch size*: requests that
are in flight at the same instant are coalesced into a single
:meth:`~repro.serve.engine.InferenceEngine.predict_coalesced` call,
which answers every row bit-identically to a sequential ``predict_one``
(including tie-break RNG draws; that property is what makes coalescing
safe to do silently).

The scheduler is **adaptive**: the batch window only holds a batch open
while there are other admitted requests still unanswered.  A lone
request on an idle server is dispatched immediately — the window never
taxes light traffic — while a flood of concurrent requests fills
batches up to ``max_batch`` before the window expires.

Both knobs resolve through the calibration chain
(:func:`~repro.tuning.calibration.resolve_knob`): explicit argument,
then the ``REPRO_SERVE_BATCH_WINDOW_MS`` / ``REPRO_SERVE_BATCH_MAX``
environment variables, then the active calibration artifact's
``serve.batch_window_ms`` / ``serve.batch_max`` knobs (measured by
``repro calibrate``), then the built-ins below.  Like every knob in the
repository, they only move scheduling — answers are bit-identical for
any value.

Admission control is a bounded in-flight count per batcher
(``serve.max_queue`` / ``REPRO_SERVE_MAX_QUEUE``): a submit over the
bound raises :class:`~repro.exceptions.BackpressureError` immediately,
which the HTTP front end maps to ``429`` — clients see fast, explicit
backpressure instead of unbounded queueing.  A multi-record request is
admitted all or nothing through :meth:`MicroBatcher.admit`, so a
rejected request never leaves rows behind in the queue.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
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
#: concurrent traffic, in milliseconds.  ``repro calibrate`` measures a
#: host-specific value (``serve.batch_window_ms``).
DEFAULT_BATCH_WINDOW_MS = 2.0

#: Built-in cap on coalesced batch size (``serve.batch_max``).
DEFAULT_BATCH_MAX = 32

#: Built-in bound on admitted-but-unanswered requests per model
#: (``serve.max_queue``); beyond it, submits fail with backpressure.
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
    """Resolve the micro-batch window through the calibration chain.

    ``arg > REPRO_SERVE_BATCH_WINDOW_MS > serve.batch_window_ms >
    built-in``.  ``0`` disables waiting entirely (a batch still
    coalesces whatever is already queued).

    >>> default_batch_window_ms(1.5)
    1.5
    """
    value = resolve_knob(
        "serve",
        "batch_window_ms",
        builtin=DEFAULT_BATCH_WINDOW_MS,
        arg=window_ms,
        env_var="REPRO_SERVE_BATCH_WINDOW_MS",
        cast=float,
        minimum=0.0,
    )
    return max(0.0, float(value))


def default_batch_max(batch_max: int | None = None) -> int:
    """Resolve the micro-batch size cap through the calibration chain.

    ``arg > REPRO_SERVE_BATCH_MAX > serve.batch_max > built-in``.
    ``1`` disables coalescing (every request is its own kernel call).

    >>> default_batch_max(8)
    8
    """
    value = resolve_knob(
        "serve",
        "batch_max",
        builtin=DEFAULT_BATCH_MAX,
        arg=batch_max,
        env_var="REPRO_SERVE_BATCH_MAX",
        cast=int,
        minimum=1,
    )
    return max(1, int(value))


def default_max_queue(max_queue: int | None = None) -> int:
    """Resolve the admission-control bound through the calibration chain.

    ``arg > REPRO_SERVE_MAX_QUEUE > serve.max_queue > built-in``.

    >>> default_max_queue(64)
    64
    """
    value = resolve_knob(
        "serve",
        "max_queue",
        builtin=DEFAULT_MAX_QUEUE,
        arg=max_queue,
        env_var="REPRO_SERVE_MAX_QUEUE",
        cast=int,
        minimum=1,
    )
    return max(1, int(value))


class _Slots:
    """Queue slots reserved by :meth:`MicroBatcher.admit`, spent one per
    submit; leaving the ``with`` block returns the unspent ones."""

    __slots__ = ("_batcher", "left")

    def __init__(self, batcher: "MicroBatcher", rows: int) -> None:
        self._batcher = batcher
        self.left = rows

    def __enter__(self) -> "_Slots":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._batcher._reserved -= self.left
        self.left = 0


class MicroBatcher:
    """Per-model request coalescer over a :class:`ModelRegistry` entry.

    Parameters
    ----------
    registry, name:
        Where predictions come from.  The batcher leases the model's
        *current* engine per batch, so a hot swap takes effect on the
        next batch boundary and every response is computed by exactly
        one model generation.
    window_ms, max_batch, max_queue:
        Scheduling knobs; ``None`` resolves through the calibration
        chain (see the module docstring).
    executor:
        Where the (GIL-releasing) kernel call runs.  ``None`` uses the
        event loop's default thread pool.

    Use as an async context manager, or call :meth:`start` / :meth:`stop`
    explicitly.  :meth:`submit` is the whole request API; :meth:`admit`
    reserves the slots of a multi-record request up front.

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
    ...             return await batcher.submit([1.25])
    >>> isinstance(asyncio.run(demo()), float)
    True
    """

    def __init__(
        self,
        registry: ModelRegistry,
        name: str,
        window_ms: float | None = None,
        max_batch: int | None = None,
        max_queue: int | None = None,
        executor: Executor | None = None,
    ) -> None:
        registry.engine(name)  # fail fast on unknown models
        self.registry = registry
        self.name = name
        self.window_s = default_batch_window_ms(window_ms) / 1e3
        self.max_batch = default_batch_max(max_batch)
        self.max_queue = default_max_queue(max_queue)
        self._executor = executor
        self._queue: asyncio.Queue = asyncio.Queue()
        self._pending = 0  # admitted, not yet answered (adaptive signal)
        self._reserved = 0  # held by admit(), not yet submitted
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
        """Drain queued requests, then cancel the scheduler loop."""
        if self._task is None:
            return
        while self._pending > 0:  # let in-flight work finish
            await asyncio.sleep(0.001)
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
    def _check_capacity(self, rows: int) -> None:
        if self._task is None:
            raise RuntimeError("MicroBatcher.start() has not been awaited")
        if self._pending + self._reserved + rows > self.max_queue:
            self.stats["rejected"] += rows
            raise BackpressureError(
                f"model {self.name!r} has {self._pending + self._reserved} "
                f"requests in flight and cannot admit {rows} more "
                f"(max_queue={self.max_queue}); retry later"
            )

    def admit(self, rows: int) -> _Slots:
        """Reserve ``rows`` queue slots at once, or raise without queueing.

        All-or-nothing admission for a multi-record request: either every
        row gets a slot — use the result as ``with batcher.admit(n) as
        slots:`` and pass ``slots`` to :meth:`submit` for each row — or
        :class:`~repro.exceptions.BackpressureError` is raised before
        anything is queued.  A request larger than ``max_queue`` can
        never be admitted and raises
        :class:`~repro.exceptions.InvalidParameterError`.  Slots still
        unspent when the ``with`` block exits (the request was
        cancelled) are returned.
        """
        if rows > self.max_queue:
            raise InvalidParameterError(
                f"{rows} records exceed model {self.name!r}'s "
                f"max_queue={self.max_queue}; split the request"
            )
        self._check_capacity(rows)
        self._reserved += rows
        return _Slots(self, rows)

    async def submit(
        self, features: Sequence[float], slots: _Slots | None = None
    ) -> Any:
        """Predict one record; coalesced with concurrent submits.

        Raises :class:`~repro.exceptions.BackpressureError` when the
        admitted-but-unanswered count is at ``max_queue`` — admission
        control happens *before* queueing, so an overloaded model fails
        fast instead of buffering unboundedly.  With ``slots`` from
        :meth:`admit` the record spends a slot reserved earlier instead.
        """
        if slots is None:
            self._check_capacity(1)
        elif slots.left > 0:
            slots.left -= 1
            self._reserved -= 1
        else:
            raise RuntimeError("admission slots are spent or released")
        self._pending += 1
        self.stats["requests"] += 1
        self.stats["max_pending_seen"] = max(
            self.stats["max_pending_seen"], self._pending
        )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._queue.put_nowait((features, future))
        start = loop.time()
        try:
            return await future
        finally:
            self._pending -= 1
            elapsed = loop.time() - start
            self.stats["latency_seconds_sum"] += elapsed
            _observe(LATENCY_BUCKETS_S, self.stats["latency_buckets"], elapsed)

    # -- scheduler loop ----------------------------------------------------------
    async def _collect(self) -> list[tuple]:
        """Gather one batch: first request, then coalesce adaptively."""
        loop = asyncio.get_running_loop()
        batch = [await self._queue.get()]
        deadline = loop.time() + self.window_s
        while len(batch) < self.max_batch:
            # Drain whatever is already queued without yielding.
            try:
                batch.append(self._queue.get_nowait())
                continue
            except asyncio.QueueEmpty:
                pass
            # Adaptive hold: only wait while other admitted requests are
            # still on their way to the queue; an idle server dispatches
            # a lone request immediately.
            remaining = deadline - loop.time()
            if remaining <= 0 or self._pending <= len(batch):
                break
            try:
                batch.append(
                    await asyncio.wait_for(self._queue.get(), timeout=remaining)
                )
            except asyncio.TimeoutError:
                break
        return batch

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self._collect()
            self.stats["batches"] += 1
            self.stats["max_batch_seen"] = max(
                self.stats["max_batch_seen"], len(batch)
            )
            self.stats["batch_rows_sum"] += len(batch)
            _observe(BATCH_SIZE_BUCKETS, self.stats["batch_buckets"], len(batch))
            lease = self.registry.lease(self.name)
            try:
                rows = np.asarray([features for features, _ in batch], dtype=np.float64)
                predictions = await loop.run_in_executor(
                    self._executor, lease.engine.predict_coalesced, rows
                )
            except asyncio.CancelledError:  # pragma: no cover - stop() path
                self.registry.release(lease)
                for _, future in batch:
                    if not future.done():
                        future.cancel()
                raise
            except Exception as exc:
                self.registry.release(lease)
                for _, future in batch:
                    if not future.done():
                        future.set_exception(exc)
                continue
            self.registry.release(lease)
            for (_, future), prediction in zip(batch, predictions):
                if not future.done():
                    future.set_result(prediction)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroBatcher(model={self.name!r}, window_ms={self.window_s * 1e3}, "
            f"max_batch={self.max_batch}, max_queue={self.max_queue})"
        )
