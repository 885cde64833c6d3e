"""Asyncio HTTP load generation over a few keep-alive connections.

The client is written here, not borrowed from the program, so a change
to the program's own replay client cannot change what is measured.
Request bytes are built before the timed window; responses are kept as
raw bytes and decoded after it.

* :func:`open_loop` sends each request when it is due, whatever the
  server is doing, on the connection its lane names, and times it from
  that due time, so a stall also charges the requests queued behind it.  It records how late the
  generator ran (``lag``) and how long each request waited for a free
  connection (``conn_wait``).
* :func:`closed_loop` has each connection send its next request as soon
  as the previous one is answered, and times each from when it is sent.
* :func:`search_max_rate` bisects for the highest offered rate a probe
  passes.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

now = time.monotonic

#: How long before a due time the open-loop generator stops sleeping and
#: yields to the event loop until the request is due.
SPIN_S = 0.001

#: A request not answered within this many seconds fails (and so does the
#: rest of its connection's traffic), so a hung server cannot hang the run.
TIMEOUT_S = 20.0


def build_request(host: str, model: str, payload: dict) -> bytes:
    """The full HTTP/1.1 request for one ``:predict`` call."""
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"POST /v1/models/{model}:predict HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.broken = False

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def roundtrip(self, request: bytes) -> tuple[int, bytes]:
        self.writer.write(request)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(None, 2)[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise ConnectionError("server closed mid-headers")
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def open_connections(host: str, port: int, count: int) -> list[Connection]:
    return [await Connection.open(host, port) for _ in range(count)]


async def close_connections(conns: list[Connection]) -> None:
    for conn in conns:
        await conn.close()


@dataclass
class Outcome:
    """Per-request observations of one load phase (index = request)."""

    due: list[float] = field(default_factory=list)
    send: list[float] = field(default_factory=list)
    recv: list[float] = field(default_factory=list)
    status: list[int] = field(default_factory=list)
    body: list[bytes] = field(default_factory=list)
    lag: list[float] = field(default_factory=list)
    conn_wait: list[float] = field(default_factory=list)
    #: requests due but not yet sent when the last one fell due
    backlog_end: int = 0

    @classmethod
    def sized(cls, n: int) -> "Outcome":
        return cls(
            due=[math.nan] * n, send=[math.nan] * n, recv=[math.nan] * n,
            status=[0] * n, body=[b""] * n, lag=[math.nan] * n,
            conn_wait=[math.nan] * n,
        )

    def ok(self, i: int) -> bool:
        return self.status[i] == 200


async def _serve_one(conn: Connection, request: bytes, out: Outcome, i: int) -> None:
    """One timed request; a failure marks the connection unusable."""
    out.send[i] = now()
    if conn.broken:
        out.status[i], out.body[i] = -1, b"connection unusable after an earlier failure"
    else:
        try:
            out.status[i], out.body[i] = await asyncio.wait_for(conn.roundtrip(request), TIMEOUT_S)
        except (ConnectionError, OSError, ValueError, asyncio.IncompleteReadError,
                asyncio.TimeoutError) as exc:
            conn.broken = True
            out.status[i], out.body[i] = -1, repr(exc).encode()
    out.recv[i] = now()


async def open_loop(conns: list[Connection], requests: list[bytes], dues: list[float],
                    lanes: list[int]) -> Outcome:
    """Send ``requests[i]`` at ``start + dues[i]`` on connection ``lanes[i]``.

    A request that falls due while its connection is busy waits in that
    connection's FIFO; the wait is part of its latency.
    """
    out = Outcome.sized(len(requests))
    queues: list[asyncio.Queue] = [asyncio.Queue() for _ in conns]

    async def worker(conn: Connection, queue: asyncio.Queue) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            i, queued = item
            out.conn_wait[i] = now() - queued
            await _serve_one(conn, requests[i], out, i)

    workers = [asyncio.create_task(worker(c, q)) for c, q in zip(conns, queues)]
    start = now() + 0.005
    for i, offset in enumerate(dues):
        due = start + offset
        # The loop's timer wakes up to a millisecond late; sleep to just
        # before the due time, then yield until it arrives.
        if due - now() > SPIN_S:
            await asyncio.sleep(due - now() - SPIN_S)
        while now() < due:
            await asyncio.sleep(0)
        t = now()
        out.due[i] = due
        out.lag[i] = t - due
        queues[lanes[i]].put_nowait((i, t))
    out.backlog_end = sum(q.qsize() for q in queues)
    for q in queues:
        q.put_nowait(None)
    await asyncio.gather(*workers)
    return out


async def closed_loop(conns: list[Connection], cycles: list[list[bytes]], seconds: float,
                      min_requests: int = 0) -> tuple[Outcome, list[tuple[int, int]]]:
    """Each connection ``c`` cycles through ``cycles[c]`` back to back.

    Sends for ``seconds``, and on until ``min_requests`` have been sent, but
    never past twice ``seconds``.  Returns the outcome (requests in the
    order they were sent) and, per request, ``(connection, position in
    its cycle)``.
    """
    out = Outcome()
    where: list[tuple[int, int]] = []
    start = now()

    def more() -> bool:
        elapsed = now() - start
        return elapsed < seconds or (len(out.status) < min_requests and elapsed < 2 * seconds)

    async def worker(c: int, conn: Connection) -> None:
        k = 0
        while more():
            i = len(out.status)
            for column in (out.due, out.send, out.recv, out.lag, out.conn_wait):
                column.append(math.nan)
            out.status.append(0)
            out.body.append(b"")
            where.append((c, k % len(cycles[c])))
            await _serve_one(conn, cycles[c][k % len(cycles[c])], out, i)
            k += 1

    await asyncio.gather(*(worker(c, conn) for c, conn in enumerate(conns)))
    return out, where


def search_max_rate(probe: Callable[[float], bool], base: float, top_factor: float,
                    steps: int) -> float:
    """Highest rate in ``[base, base * top_factor]`` that ``probe`` passes.

    Bisection in log space: ``base`` is taken as passing and the top of the
    range as failing, so the answer is resolved to a factor of
    ``top_factor ** (1 / 2**steps)``.  A curve that passes everywhere
    reports the last rate tried below the top.
    """
    lo, hi = base, base * top_factor
    for _ in range(steps):
        mid = math.sqrt(lo * hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return lo
