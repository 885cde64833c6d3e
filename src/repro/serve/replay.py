"""Replay-driven load generation for the serving tier.

The concurrency harness in ``benchmarks/bench_serve_concurrency.py`` and
``tests/serve/test_replay.py`` is built on three pieces that live here:

* a **trace**: a list of :class:`TraceRequest` records — arrival time,
  target model, feature row — generated from a seed
  (:func:`generate_trace`) or loaded from a JSONL file
  (:func:`load_trace`, every line validated with its line number in the
  error) so a run is reproducible from a file checked into the repo;
* a **replayer** (:func:`replay_async` / :func:`replay`): schedules each
  request at ``t / speedup`` on the event loop, fires them concurrently
  against any async ``submit(model, features)`` callable, and reports
  per-request latencies (p50/p99) plus the response transcript in trace
  order;
* an **oracle** (:func:`oracle_transcript`): the same trace answered
  sequentially through :meth:`InferenceEngine.predict_one
  <repro.serve.engine.InferenceEngine.predict_one>` — the ground truth
  that any concurrent interleaving through the micro-batcher must match
  **bit-identically** (both transcripts normalise through
  :func:`~repro.serve.server.json_scalar`, so the comparison is exact
  ``==`` on JSON scalars).

:class:`HTTPReplayClient` is the socket-level submitter: a small pool of
keep-alive HTTP/1.1 connections to a running ``repro serve-http``
server, so the replay exercises the full network path, not just the
scheduler.

Trace file format (JSONL, one request per line)::

    {"id": 0, "t": 0.0,     "model": "suturing", "features": [0.1, ...]}
    {"id": 1, "t": 0.0031,  "model": "mars",     "features": [2.5]}

``id`` is a unique non-negative integer (transcripts are ordered by
trace position), ``t`` is the arrival offset in seconds from replay
start (non-negative, finite), ``model`` is a registry name and
``features`` is the record row (finite numbers).  Unknown extra keys are
rejected, as are malformed lines — :func:`load_trace` raises
:class:`~repro.exceptions.InvalidParameterError` naming the offending
line instead of letting a bad trace hang a replay.
"""

from __future__ import annotations

import asyncio
import json
import os
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Mapping, Sequence

import numpy as np

from .._rng import ensure_rng
from ..exceptions import BackpressureError, InvalidParameterError
from .engine import InferenceEngine
from .server import finite_number, json_scalar

__all__ = [
    "TraceRequest",
    "ReplayReport",
    "generate_trace",
    "save_trace",
    "load_trace",
    "replay_async",
    "replay",
    "oracle_transcript",
    "HTTPReplayClient",
]

_TRACE_KEYS = frozenset({"id", "t", "model", "features"})


@dataclass(frozen=True)
class TraceRequest:
    """One request in a replayable trace."""

    id: int  #: unique, non-negative; transcripts are keyed by it
    t: float  #: arrival offset from replay start, seconds
    model: str  #: registry model name
    features: tuple  #: the feature row (immutable so traces are hashable)


@dataclass
class ReplayReport:
    """What one replay run observed.

    ``responses`` is the transcript in trace order — every value already
    normalised through :func:`~repro.serve.server.json_scalar`, so it
    compares exactly against :func:`oracle_transcript`.  Failed requests
    hold ``None`` in ``responses`` and an entry in ``errors``.
    """

    responses: list = field(default_factory=list)
    errors: dict[int, str] = field(default_factory=dict)
    rejected: int = 0  #: how many errors were backpressure (429) rejections
    latencies_ms: list[float] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def count(self) -> int:
        return len(self.responses)

    @property
    def ok(self) -> int:
        return self.count - len(self.errors)

    def percentile_ms(self, q: float) -> float:
        """Latency percentile over successful requests, in milliseconds."""
        if not self.latencies_ms:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_ms), q))

    @property
    def p50_ms(self) -> float:
        return self.percentile_ms(50.0)

    @property
    def p99_ms(self) -> float:
        return self.percentile_ms(99.0)

    @property
    def throughput_rps(self) -> float:
        return self.ok / self.duration_s if self.duration_s > 0 else 0.0

    def summary(self) -> dict:
        """JSON-ready digest (what the benchmark records)."""
        return {
            "requests": self.count,
            "ok": self.ok,
            "rejected": self.rejected,
            "errors": len(self.errors),
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
        }


def generate_trace(
    model_specs: Mapping[str, tuple[int, tuple[float, float]]],
    num_requests: int,
    seed: Any,
    rate_hz: float = 500.0,
) -> list[TraceRequest]:
    """Synthesise a seeded mixed-model request trace.

    Parameters
    ----------
    model_specs:
        ``name -> (num_features, (low, high))``: each request targets a
        model drawn uniformly from the mapping (sorted order, so the
        draw is reproducible) with features uniform in ``[low, high)``.
    num_requests, seed:
        Trace length and RNG seed — same seed, same trace, bit for bit.
    rate_hz:
        Mean arrival rate; inter-arrival gaps are exponential (Poisson
        arrivals), which is what produces the bursts of genuinely
        concurrent in-flight requests the micro-batcher coalesces.

    >>> trace = generate_trace({"m": (2, (0.0, 1.0))}, 3, seed=0, rate_hz=100.0)
    >>> [r.id for r in trace], trace == generate_trace({"m": (2, (0.0, 1.0))}, 3, seed=0, rate_hz=100.0)
    ([0, 1, 2], True)
    """
    if num_requests < 1:
        raise InvalidParameterError("num_requests must be >= 1")
    if not model_specs:
        raise InvalidParameterError("model_specs must name at least one model")
    if not (rate_hz > 0):
        raise InvalidParameterError("rate_hz must be positive")
    rng = ensure_rng(seed)
    names = sorted(model_specs)
    trace: list[TraceRequest] = []
    t = 0.0
    for i in range(num_requests):
        t += float(rng.exponential(1.0 / rate_hz))
        name = names[int(rng.integers(len(names)))]
        num_features, (low, high) = model_specs[name]
        features = tuple(
            float(v) for v in rng.uniform(low, high, size=int(num_features))
        )
        trace.append(TraceRequest(id=i, t=t, model=name, features=features))
    return trace


def save_trace(trace: Sequence[TraceRequest], path: str | os.PathLike) -> None:
    """Write a trace as JSONL (the format in the module docstring)."""
    with open(path, "w", encoding="utf-8") as fh:
        for req in trace:
            fh.write(
                json.dumps(
                    {
                        "id": req.id,
                        "t": req.t,
                        "model": req.model,
                        "features": list(req.features),
                    }
                )
                + "\n"
            )


def _trace_line(line: str, lineno: int) -> TraceRequest:
    def bad(reason: str) -> InvalidParameterError:
        return InvalidParameterError(f"trace line {lineno}: {reason}")

    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise bad(f"not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise bad("expected a JSON object")
    missing = _TRACE_KEYS - obj.keys()
    if missing:
        raise bad(f"missing key(s) {sorted(missing)}")
    extra = obj.keys() - _TRACE_KEYS
    if extra:
        raise bad(f"unknown key(s) {sorted(extra)}")
    rid, t, model, features = obj["id"], obj["t"], obj["model"], obj["features"]
    if not isinstance(rid, int) or isinstance(rid, bool) or rid < 0:
        raise bad(f"'id' must be a non-negative integer, got {rid!r}")
    if not finite_number(t) or t < 0:
        raise bad(f"'t' must be a finite non-negative number, got {t!r}")
    if not isinstance(model, str) or not model:
        raise bad(f"'model' must be a non-empty string, got {model!r}")
    if not isinstance(features, list) or not features:
        raise bad("'features' must be a non-empty list")
    for v in features:
        if not finite_number(v):
            raise bad(f"'features' must hold finite numbers, got {v!r}")
    return TraceRequest(
        id=rid, t=float(t), model=model, features=tuple(float(v) for v in features)
    )


def load_trace(path: str | os.PathLike) -> list[TraceRequest]:
    """Read a JSONL trace, validating every line.

    Malformed input — bad JSON, missing/unknown keys, non-finite
    numbers, duplicate ids — raises
    :class:`~repro.exceptions.InvalidParameterError` naming the
    offending line, so a broken trace fails the run immediately instead
    of hanging a replay.  Blank lines and ``#`` comment lines are
    skipped.
    """
    trace: list[TraceRequest] = []
    seen_ids: set[int] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            req = _trace_line(line, lineno)
            if req.id in seen_ids:
                raise InvalidParameterError(
                    f"trace line {lineno}: duplicate id {req.id}"
                )
            seen_ids.add(req.id)
            trace.append(req)
    if not trace:
        raise InvalidParameterError(f"trace {path} holds no requests")
    return trace


async def replay_async(
    trace: Sequence[TraceRequest],
    submit: Callable[[str, Sequence[float]], Awaitable[Any]],
    speedup: float = 1.0,
) -> ReplayReport:
    """Fire a trace at a submit callable, honouring arrival times.

    Each request is scheduled at ``t / speedup`` seconds after replay
    start (``speedup=10`` replays a 5 s trace in 0.5 s, stacking up more
    concurrency); all requests run as concurrent tasks, exactly like
    independent clients.  ``submit`` is any async callable — a
    :meth:`MicroBatcher.submit <repro.serve.batching.MicroBatcher.submit>`
    wrapper for in-process runs, or
    :meth:`HTTPReplayClient.submit` for socket-level runs.

    The report's transcript is in trace order and json-normalised;
    backpressure rejections are counted separately from other errors.
    """
    if not (speedup > 0):
        raise InvalidParameterError("speedup must be positive")
    loop = asyncio.get_running_loop()
    start = loop.time()
    report = ReplayReport(responses=[None] * len(trace))

    async def one(index: int, req: TraceRequest) -> None:
        delay = start + req.t / speedup - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        begin = loop.time()
        try:
            value = await submit(req.model, req.features)
        except BackpressureError as exc:
            report.rejected += 1
            report.errors[req.id] = str(exc)
            return
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            report.errors[req.id] = f"{type(exc).__name__}: {exc}"
            return
        report.latencies_ms.append((loop.time() - begin) * 1e3)
        report.responses[index] = json_scalar(value)

    await asyncio.gather(*(one(i, req) for i, req in enumerate(trace)))
    report.duration_s = loop.time() - start
    return report


def replay(
    trace: Sequence[TraceRequest],
    submit: Callable[[str, Sequence[float]], Awaitable[Any]],
    speedup: float = 1.0,
) -> ReplayReport:
    """Synchronous wrapper: run :func:`replay_async` on a fresh loop."""
    return asyncio.run(replay_async(trace, submit, speedup=speedup))


def oracle_transcript(
    trace: Sequence[TraceRequest], engines: Mapping[str, InferenceEngine]
) -> list:
    """The sequential ground truth a concurrent replay must reproduce.

    Answers the trace one request at a time through each model's
    :meth:`~repro.serve.engine.InferenceEngine.predict_one` — no
    batching, no concurrency, no scheduler — and returns the transcript
    in trace order, json-normalised.  Any interleaving of the same trace
    through the micro-batcher (or the HTTP server) must equal this list
    exactly; the tests and the concurrency benchmark both assert ``==``.
    """
    transcript = []
    for req in trace:
        engine = engines.get(req.model)
        if engine is None:
            raise InvalidParameterError(
                f"trace request {req.id} targets unknown model {req.model!r}"
            )
        transcript.append(json_scalar(engine.predict_one(list(req.features))))
    return transcript


class HTTPReplayClient:
    """Keep-alive HTTP/1.1 connection pool for socket-level replays.

    Holds up to ``connections`` persistent connections to a running
    serve-http server; :meth:`submit` checks one out, issues a
    ``:predict`` POST and returns the prediction.  429 responses raise
    :class:`~repro.exceptions.BackpressureError` (so
    :func:`replay_async` counts them as rejections), other non-200s
    raise :class:`~repro.exceptions.InvalidParameterError` with the
    server's error message.

    Use as an async context manager inside the replay's event loop.
    """

    def __init__(self, host: str, port: int, connections: int = 16) -> None:
        if connections < 1:
            raise InvalidParameterError("connections must be >= 1")
        self.host = host
        self.port = port
        self.connections = connections
        self._pool: asyncio.Queue = asyncio.Queue()
        self._created = 0
        self._closed = False

    async def __aenter__(self) -> "HTTPReplayClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def close(self) -> None:
        """Close every pooled connection (idempotent)."""
        self._closed = True
        while self._created > 0:
            _, writer = await self._pool.get()
            self._created -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass

    async def _acquire(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self._closed:
            raise InvalidParameterError("HTTPReplayClient is closed")
        if self._pool.empty() and self._created < self.connections:
            self._created += 1
            try:
                return await asyncio.open_connection(self.host, self.port)
            except BaseException:
                self._created -= 1
                raise
        return await self._pool.get()

    async def submit(self, model: str, features: Sequence[float]) -> Any:
        """POST one record to ``/v1/models/<model>:predict``."""
        reader, writer = await self._acquire()
        try:
            body = json.dumps({"features": list(features)}).encode("utf-8")
            writer.write(
                (
                    f"POST /v1/models/{model}:predict HTTP/1.1\r\n"
                    f"Host: {self.host}:{self.port}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: keep-alive\r\n\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
            status, payload = await self._read_response(reader)
        except BaseException:
            # The connection state is unknown; drop it from the pool.
            self._created -= 1
            writer.close()
            raise
        self._pool.put_nowait((reader, writer))
        if status == 200:
            return payload["prediction"]
        message = payload.get("error", f"HTTP {status}")
        if status == 429:
            raise BackpressureError(message)
        raise InvalidParameterError(f"HTTP {status}: {message}")

    async def _read_response(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict]:
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.decode("latin-1").split()
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise InvalidParameterError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        length = 0
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                raise ConnectionError("server closed mid-headers")
            key, sep, value = raw.decode("latin-1").partition(":")
            if sep and key.strip().lower() == "content-length":
                length = int(value.strip())
        body = await reader.readexactly(length) if length else b""
        return status, json.loads(body.decode("utf-8"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HTTPReplayClient({self.host}:{self.port}, pool={self.connections})"
