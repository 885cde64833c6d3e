"""Asyncio HTTP front end: many models, micro-batched, backpressured.

``repro serve-http`` turns the single-model stdin/stdout JSONL loop into
a real network tier: one server serves every model in a
:class:`~repro.serve.registry.ModelRegistry` over a small HTTP/1.1 API,
with per-model :class:`~repro.serve.batching.MicroBatcher` scheduling
(concurrent requests coalesce into single kernel calls, bit-identical
to sequential serving) and bounded-queue admission control (HTTP 429 on
overload).  The server is stdlib-only — asyncio streams plus a minimal
HTTP/1.1 reader with keep-alive — so it runs anywhere the library does.

API surface (all request/response bodies are JSON):

===========================================  =================================
``GET /healthz``                             liveness + model names
``GET /metrics``                             Prometheus text exposition:
                                             per-model admitted/rejected
                                             row counters, batch-size and
                                             request-latency histograms
``GET /v1/models``                           registry listing with metadata
``POST /v1/models/<name>:predict``           ``{"features": [...]}`` → one
                                             prediction, or
                                             ``{"records": [[...], ...]}`` →
                                             in-order predictions
``POST /v1/models/<name>:swap``              ``{"path": "model.npz"}`` —
                                             zero-downtime hot swap
===========================================  =================================

Error mapping: malformed requests → 400, unknown model/route → 404,
oversized body or more records than ``max_queue`` → 413,
admission-control rejection → 429 (body carries ``"backpressure": true``
so clients can retry), internal faults → 500.  Every error body is
``{"error": "..."}``.  A ``records`` request is admitted all or nothing:
a rejected one computes no row.

A :class:`ServeServer` binds nothing; :mod:`repro.serve.prefork`
accepts its connections.  ``serve-http`` runs one server per CPU
through :func:`repro.serve.prefork.serve`.  :class:`ServerThread` runs
the one-CPU case of the same code (listeners, accept loop, server,
batchers) on an event loop in a background thread — the harness tests,
the docs walkthrough and the concurrency benchmark all drive a real
socket server through it.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import threading
from itertools import chain
from typing import Any

import numpy as np

from ..exceptions import BackpressureError, InvalidParameterError, ReproError
from .batching import (
    BATCH_SIZE_BUCKETS,
    DEFAULT_BATCH_MAX,
    DEFAULT_BATCH_WINDOW_MS,
    DEFAULT_MAX_QUEUE,
    LATENCY_BUCKETS_S,
    MicroBatcher,
)
from .registry import ModelRegistry

__all__ = ["ServeServer", "ServerThread", "finite_number", "json_scalar"]

#: Request bodies above this are rejected outright (1 MiB is ~16k
#: float features — far beyond any legitimate record batch here).
_MAX_BODY_BYTES = 1 << 20

#: The longest request or header line (the connection's stream limit),
#: and the most header fields a request may carry.
_MAX_LINE_BYTES = 1 << 16
_MAX_HEADER_FIELDS = 100

#: How long a connection closed after a bad head keeps reading (and
#: discarding) what the client still sends, so the close does not reset
#: the connection before the client has read the error.
_LINGER_S = 2.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}


def json_scalar(value: Any) -> Any:
    """Coerce a model prediction to a JSON-serialisable scalar.

    The one canonical scalar mapping shared by the HTTP server, the
    JSONL serve loop, the ``predict_one`` oracle and the benchmarks — responses
    compared across those paths must be identical *as JSON*, so they
    must all serialise through the same function.

    >>> import numpy as np
    >>> json_scalar(np.float64(2.5)), json_scalar(np.int64(3)), json_scalar("g1")
    (2.5, 3, 'g1')
    """
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    return value


def _json_fallback(value: Any) -> Any:
    """``json.dumps`` hook: what :func:`json_scalar` makes of ``value``.

    ``json.dumps`` calls it only for objects it cannot encode itself, so
    a response body is byte-identical to one whose values all went
    through :func:`json_scalar` first (numpy floats and strings
    subclass ``float`` and ``str`` and encode the same either way).
    """
    plain = json_scalar(value)
    if plain is value:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return plain


#: The response encoder: ``json.dumps`` defaults plus the fallback above,
#: built once (``json.dumps(default=...)`` would build one per call).
_JSON = json.JSONEncoder(default=_json_fallback)


def finite_number(value: Any) -> bool:
    """True for a JSON number that is a finite float64.

    The one check every serving input path applies to a feature value
    (the HTTP body and the JSONL loop): booleans, strings
    and ``null`` are refused, and so is an integer too large for a
    float64, which ``float`` rejects with ``OverflowError``.

    >>> finite_number(1.5), finite_number(True), finite_number(10**400)
    (True, False, False)
    """
    try:
        return (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(float(value))
        )
    except OverflowError:
        return False


def _finite_row(row: Any) -> bool:
    return isinstance(row, list) and bool(row) and all(map(finite_number, row))


_NUMBER_TYPES = frozenset((int, float))


def _rows_array(rows: list, num_features: int) -> np.ndarray | None:
    """``rows`` as an ``(n, num_features)`` float64 array, or ``None``.

    The vectorised pass over a body that is already a non-empty list:
    every row a list of ``num_features`` JSON numbers (never a bool,
    which ``np.fromiter`` would silently take as 0 or 1), every value
    finite.  ``None`` means some row breaks a rule; the per-row loop in
    :meth:`ServeServer._validated_rows` then names the first one.
    """
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {num_features}:
        return None
    if not set(map(type, chain.from_iterable(rows))) <= _NUMBER_TYPES:
        return None
    try:
        arr = np.fromiter(
            chain.from_iterable(rows), np.float64, len(rows) * num_features
        )
    except OverflowError:  # an int too large for float64
        return None
    if not np.isfinite(arr).all():
        return None
    return arr.reshape(len(rows), num_features)


class _HTTPError(Exception):
    """Internal: carries a status + message up to the response writer."""

    def __init__(self, status: int, message: str, **extra: Any) -> None:
        super().__init__(message)
        self.status = status
        self.payload = {"error": message, **extra}


async def _read_line(reader: asyncio.StreamReader, status: int, what: str) -> bytes:
    """One head line; a line over the stream limit is ``status``."""
    try:
        return await reader.readline()
    except ValueError:  # asyncio's LimitOverrunError, re-raised by readline
        raise _HTTPError(status, f"{what} exceeds {_MAX_LINE_BYTES} bytes") from None


async def _linger(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """Half-close, then discard input until the client closes (or
    :data:`_LINGER_S` passes): closing with unread input would reset the
    connection under the response just written."""
    if writer.can_write_eof():
        writer.write_eof()

    async def discard() -> None:
        while await reader.read(1 << 16):
            pass

    try:
        await asyncio.wait_for(discard(), _LINGER_S)
    except asyncio.TimeoutError:
        pass


class ServeServer:
    """The asyncio serving front end over a model registry.

    Parameters
    ----------
    registry:
        The models to serve.  The server does **not** own the registry —
        close it yourself after :meth:`stop` (the CLI and
        :class:`ServerThread` both do).
    window_ms, max_batch, max_queue:
        Micro-batching knobs forwarded to every per-model
        :class:`~repro.serve.batching.MicroBatcher`, which checks them;
        the defaults are its built-ins.

    The server binds nothing: it answers the connections handed to
    :meth:`adopt`, which :mod:`repro.serve.prefork` accepts for it
    (:func:`~repro.serve.prefork.serve`, and :class:`ServerThread` in
    one process).

    :attr:`tree` is what ``/metrics`` and ``:swap`` act on: an object
    with ``async stats()`` (the counters ``/metrics`` renders) and
    ``async swap(name, path) -> (generation, source)``, set by
    :mod:`repro.serve.prefork` so that both act on every serving
    process.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        window_ms: float = DEFAULT_BATCH_WINDOW_MS,
        max_batch: int = DEFAULT_BATCH_MAX,
        max_queue: int = DEFAULT_MAX_QUEUE,
    ) -> None:
        self.registry = registry
        self._window_ms = window_ms
        self._max_batch = max_batch
        self._max_queue = max_queue
        self._batchers: dict[str, MicroBatcher] = {}
        # Live connection handlers and their writers, closed by stop().
        self._clients: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.tree: Any = None

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> "ServeServer":
        """Spawn one micro-batcher per model."""
        for name in self.registry.names():
            batcher = MicroBatcher(
                self.registry,
                name,
                window_ms=self._window_ms,
                max_batch=self._max_batch,
                max_queue=self._max_queue,
            )
            await batcher.start()
            self._batchers[name] = batcher
        return self

    async def adopt(self, sock: socket.socket) -> None:
        """Serve a connection some other code accepted."""
        loop = asyncio.get_running_loop()
        await loop.connect_accepted_socket(
            lambda: asyncio.StreamReaderProtocol(
                asyncio.StreamReader(_MAX_LINE_BYTES), self._handle_client
            ),
            sock,
        )

    async def stop(self) -> None:
        """Close live connections, drain every batcher.

        Every connection (idle keep-alive clients included) is closed and
        its handler awaited here, so no handler is left pending when the
        event loop closes.  A handler mid-request still gets its answer
        computed; writing it to the closed connection is a no-op.
        """
        while self._clients:
            for writer in self._clients.values():
                writer.close()
            await asyncio.gather(*self._clients, return_exceptions=True)
        for batcher in self._batchers.values():
            await batcher.stop()
        self._batchers.clear()

    def stats(self) -> dict[str, dict]:
        """Per-model scheduler counters (requests, batches, rejections)."""
        return {name: dict(b.stats) for name, b in self._batchers.items()}

    @staticmethod
    def _render_metrics(stats: dict[str, dict]) -> str:
        """The ``/metrics`` body: Prometheus text exposition format.

        One sample per model per family, rendered straight from the
        batchers' counter dicts — the scheduler's hot path pays one
        integer increment per observation, and the cumulative ``le``
        ladder Prometheus histograms require is computed here, at
        scrape time.
        """
        stats = dict(sorted(stats.items()))
        out: list[str] = []

        def counter(metric: str, help_text: str, key: str) -> None:
            out.append(f"# HELP {metric} {help_text}")
            out.append(f"# TYPE {metric} counter")
            for name, s in stats.items():
                out.append(f'{metric}{{model="{name}"}} {s[key]}')

        def histogram(
            metric: str, help_text: str, edges: tuple, bucket_key: str, sum_key: str
        ) -> None:
            out.append(f"# HELP {metric} {help_text}")
            out.append(f"# TYPE {metric} histogram")
            for name, s in stats.items():
                cumulative = 0
                for edge, count in zip(edges, s[bucket_key]):
                    cumulative += count
                    out.append(
                        f'{metric}_bucket{{model="{name}",le="{edge}"}} {cumulative}'
                    )
                cumulative += s[bucket_key][-1]
                out.append(f'{metric}_bucket{{model="{name}",le="+Inf"}} {cumulative}')
                out.append(f'{metric}_sum{{model="{name}"}} {s[sum_key]}')
                out.append(f'{metric}_count{{model="{name}"}} {cumulative}')

        counter(
            "repro_serve_requests_total",
            "Rows admitted to the micro-batch scheduler (a records body counts each row).",
            "requests",
        )
        counter(
            "repro_serve_rejected_total",
            "Rows refused with 429 backpressure before queueing.",
            "rejected",
        )
        counter(
            "repro_serve_batches_total",
            "Coalesced batches dispatched as single kernel calls.",
            "batches",
        )
        histogram(
            "repro_serve_request_latency_seconds",
            "Wall time from admission to answer, one sample per predict request.",
            LATENCY_BUCKETS_S,
            "latency_buckets",
            "latency_seconds_sum",
        )
        histogram(
            "repro_serve_batch_rows",
            "Rows per coalesced batch.",
            BATCH_SIZE_BUCKETS,
            "batch_buckets",
            "batch_rows_sum",
        )
        return "\n".join(out) + "\n"

    # -- HTTP plumbing ---------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._clients[task] = writer
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HTTPError as exc:
                    # The stream cannot be resynchronised past a bad
                    # head: answer it, then close the connection.
                    await self._write_response(writer, exc.status, exc.payload, False)
                    await _linger(reader, writer)
                    break
                if request is None:
                    break
                method, path, headers, body = request
                try:
                    status, payload = await self._dispatch(method, path, body)
                except _HTTPError as exc:
                    status, payload = exc.status, exc.payload
                except BackpressureError as exc:
                    status, payload = 429, {"error": str(exc), "backpressure": True}
                except ReproError as exc:
                    status, payload = 400, {"error": str(exc)}
                except Exception as exc:  # noqa: BLE001 - last-resort 500
                    status, payload = 500, {"error": f"internal error: {exc}"}
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; drop the connection
        finally:
            del self._clients[task]
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        line = await _read_line(reader, 414, "request line")
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HTTPError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADER_FIELDS + 1):
            raw = await _read_line(reader, 431, "header line")
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                return None
            key, sep, value = raw.decode("latin-1").partition(":")
            if sep:
                headers[key.strip().lower()] = value.strip()
        else:
            raise _HTTPError(431, f"more than {_MAX_HEADER_FIELDS} header fields")
        if "transfer-encoding" in headers:
            raise _HTTPError(501, "Transfer-Encoding is not supported; send Content-Length")
        value = headers.get("content-length", "0")
        if not (value.isascii() and value.isdigit()):
            raise _HTTPError(400, "malformed Content-Length")
        length = int(value)
        if length > _MAX_BODY_BYTES:
            raise _HTTPError(413, f"request body exceeds {_MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method, target.split("?", 1)[0], headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | str,
        keep_alive: bool,
    ) -> None:
        if isinstance(payload, str):
            # Non-JSON routes (/metrics) hand back ready-made text.
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = (_JSON.encode(payload) + "\n").encode("utf-8")
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- routing ---------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict | str]:
        if path == "/healthz":
            if method != "GET":
                raise _HTTPError(405, "healthz is GET-only")
            return 200, {"ok": True, "models": self.registry.names()}
        if path == "/metrics":
            if method != "GET":
                raise _HTTPError(405, "metrics is GET-only")
            return 200, self._render_metrics(await self.tree.stats())
        if path == "/v1/models":
            if method != "GET":
                raise _HTTPError(405, "model listing is GET-only")
            return 200, {"models": self.registry.describe()}
        if path.startswith("/v1/models/"):
            tail = path[len("/v1/models/"):]
            name, sep, action = tail.partition(":")
            if not sep or action not in ("predict", "swap"):
                raise _HTTPError(404, f"unknown route {path!r}")
            if method != "POST":
                raise _HTTPError(405, f"{action} is POST-only")
            if name not in self._batchers:
                raise _HTTPError(404, f"unknown model {name!r}")
            payload = self._parse_body(body)
            if action == "predict":
                return await self._predict(name, payload)
            return await self._swap(name, payload)
        raise _HTTPError(404, f"unknown route {path!r}")

    def _parse_body(self, body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, ValueError) as exc:
            raise _HTTPError(400, f"request body is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return payload

    def _validated_rows(self, name: str, payload: dict) -> tuple[np.ndarray, bool]:
        """Extract ``(rows, batched)`` from a predict body, fully checked.

        ``rows`` is one ``(n, k)`` float64 array.  Validation happens
        *before* admission so a malformed record can never poison a
        coalesced batch: everything the scheduler queues is already
        known to be a finite row of the right arity.
        """
        num_features = self.registry.engine(name).num_features
        if "features" in payload and "records" in payload:
            raise _HTTPError(400, "send either 'features' or 'records', not both")
        if "features" in payload:
            rows, batched = [payload["features"]], False
        elif "records" in payload:
            rows = payload["records"]
            if not isinstance(rows, list) or not rows:
                raise _HTTPError(400, "'records' must be a non-empty list of rows")
            batched = True
        else:
            raise _HTTPError(400, "predict body needs 'features' or 'records'")
        arr = _rows_array(rows, num_features)
        if arr is not None:
            return arr, batched
        # Slow path: name the first bad record.
        for i, row in enumerate(rows):
            if not _finite_row(row):
                raise _HTTPError(
                    400, f"record {i} must be a list of finite numbers"
                )
            if len(row) != num_features:
                raise _HTTPError(
                    400,
                    f"record {i} has {len(row)} feature(s); "
                    f"model {name!r} takes {num_features}",
                )
        raise AssertionError("the vectorised check refused a valid body")

    async def _predict(self, name: str, payload: dict) -> tuple[int, dict]:
        rows, batched = self._validated_rows(name, payload)
        batcher = self._batchers[name]
        if not batched:
            value = await batcher.submit(rows[0])
            return 200, {"model": name, "prediction": json_scalar(value)}
        # One queued entry for the whole body, admitted all or nothing (a
        # rejected request computes nothing); the scheduler packs its
        # rows, plus any other in-flight traffic, into shared batches.
        try:
            answer = batcher.submit_records(rows)
        except InvalidParameterError as exc:  # more rows than max_queue
            raise _HTTPError(413, str(exc)) from None
        # The answers go out as they are: a regressor's are Python floats
        # already, and a numpy label takes the json_scalar fallback of
        # _write_response, so the bytes match mapping every value through
        # json_scalar.
        return 200, {"model": name, "predictions": await answer}

    async def _swap(self, name: str, payload: dict) -> tuple[int, dict]:
        path = payload.get("path")
        if not isinstance(path, str) or not path:
            raise _HTTPError(400, "swap body needs a 'path' string")
        try:
            generation, source = await self.tree.swap(name, path)
        except ReproError as exc:
            raise _HTTPError(400, f"swap failed: {exc}") from None
        return 200, {
            "model": name,
            "swapped": True,
            "generation": generation,
            "source": source,
        }


class ServerThread:
    """Run a :class:`ServeServer` (and its event loop) in a thread.

    The synchronous harness used by the tests, the docs walkthrough and
    the benchmarks: enter the context manager, get a live socket server,
    talk to it with :meth:`request`, and leave — the loop, the server
    and the batchers are torn down on exit.  It binds and accepts as
    ``serve-http`` does on one CPU (:mod:`repro.serve.prefork` with no
    member), so the harness drives the shipped accept path.  The
    registry is owned by the caller unless ``own_registry=True``.

    Example
    -------
    >>> from repro.experiments.config import RegressionConfig
    >>> from repro.experiments.serving import train_regression_pipeline
    >>> from repro.serve import ModelRegistry, ServerThread
    >>> pipe = train_regression_pipeline("circular", config=RegressionConfig(dim=128, seed=3))
    >>> registry = ModelRegistry()
    >>> _ = registry.register("mars", pipe)
    >>> with ServerThread(registry, own_registry=True) as server:
    ...     status, body = server.request("GET", "/healthz")
    >>> status, body["models"]
    (200, ['mars'])
    """

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        window_ms: float = DEFAULT_BATCH_WINDOW_MS,
        max_batch: int = DEFAULT_BATCH_MAX,
        max_queue: int = DEFAULT_MAX_QUEUE,
        own_registry: bool = False,
    ) -> None:
        self.server = ServeServer(registry, window_ms, max_batch, max_queue)
        self.host = host
        #: The bound port once :meth:`start` has bound it (``0`` asks for
        #: an ephemeral one).
        self.port = port
        self._own_registry = own_registry
        self._listeners: list[socket.socket] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "ServerThread":
        """Bind (an ``OSError`` such as a port in use raises here), then
        serve on the loop thread through the ``serve-http`` accept path."""
        from .prefork import _listen  # prefork imports this module

        self._listeners = _listen(self.host, self.port)
        self.port = self._listeners[0].getsockname()[1]
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            self.stop()
            raise self._startup_error
        if self._loop is None:  # pragma: no cover - defensive
            raise RuntimeError("server thread failed to start")
        return self

    def _thread_main(self) -> None:
        from .prefork import _coordinate

        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._stop = asyncio.Event()

        def ready() -> None:
            self._loop = loop
            self._started.set()

        try:
            loop.run_until_complete(
                _coordinate(self.server, self._listeners, [], self._stop, ready)
            )
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._startup_error = exc
            self._started.set()
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
                # ``:swap`` loads models on the loop's default executor;
                # join its threads or they outlive the server (leak-checked
                # by the serve test suite).
                loop.run_until_complete(loop.shutdown_default_executor())
            finally:
                asyncio.set_event_loop(None)
                loop.close()

    def stop(self) -> None:
        """Stop the server, join the loop thread, close the listening
        sockets (idempotent)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
            self._loop = None
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        for sock in self._listeners:
            sock.close()
        self._listeners = []
        if self._own_registry:
            self.server.registry.close()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- convenience -----------------------------------------------------------
    def request(
        self, method: str, path: str, payload: dict | None = None, timeout: float = 30.0
    ) -> tuple[int, dict]:
        """One synchronous JSON request against the live server.

        Returns ``(status_code, decoded_body)``.
        """
        # The server never acts as a client, so only these helpers load it.
        import http.client

        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            body = json.dumps(payload).encode("utf-8") if payload is not None else None
            conn.request(
                method, path, body=body, headers={"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            raw = response.read()
            return response.status, json.loads(raw.decode("utf-8"))
        finally:
            conn.close()

    def request_text(
        self, method: str, path: str, timeout: float = 30.0
    ) -> tuple[int, str]:
        """Like :meth:`request` for non-JSON routes (``/metrics``).

        Returns ``(status_code, body_text)``.
        """
        import http.client

        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            return response.status, response.read().decode("utf-8")
        finally:
            conn.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServerThread({self.host}:{self.port})"
