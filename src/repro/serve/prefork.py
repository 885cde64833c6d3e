"""Serve on every CPU: load once, fork, hand each connection to one process.

:func:`serve` is what ``serve-http`` runs.  It takes a loaded
:class:`~repro.serve.registry.ModelRegistry`, freezes the garbage
collector's view of it (``gc.freeze()``, so refcount traffic in a child
does not unshare the pages of a model that never changes), and forks
N − 1 copies of the unchanged single-threaded server, N being the CPUs
this process may run on (``os.sched_getaffinity``; restrict it with
``taskset`` or a cpuset).  Each process has its own event loop,
micro-batchers and engines, and answers the connections it holds from
start to finish.  No row, table or tensor crosses processes.

The first process, the **coordinator**, keeps the listening sockets
(one per address the host name resolves to).  It accepts every
connection and deals them round-robin over itself and its members: its
own turn it serves, every other turn it passes the socket to a member
with ``socket.send_fds`` over that member's ``socketpair`` and closes
its copy.  A keep-alive connection
therefore lives on one process, and two concurrent clients always land
on two processes.

The same socketpair is the control channel (:class:`Channel`): small
JSON calls in either direction, matched by id.  Every call is made and
answered in this module; the server sees the tree only through its
:attr:`~repro.serve.server.ServeServer.tree`, which here is
:class:`_Coordinator` in the first process and :class:`_Member` in the
others.

* ``/metrics`` on any process asks the coordinator, which adds every
  process's :meth:`~repro.serve.server.ServeServer.stats`.
* ``:swap`` on any process goes to the coordinator, which runs it one
  at a time, in two steps: every process builds the new engine, then
  every process flips to it, or, if any build failed, every process
  drops its build and the client gets that failure.  Every process
  always serves the same generation.

Lifecycle.  The fork happens before any thread starts.  :func:`serve`
prints the ``serving … on http://…`` line only once every member has
answered a ``ready`` call.  SIGINT to the coordinator closes every
channel, which makes every member drain its connections and exit,
drains its own, reaps the members and returns.  A member ignores
SIGINT and stops when its channel reaches EOF, so a coordinator killed
by SIGKILL leaves no process behind.  Members are forked and reaped
by :mod:`repro.runtime.tree`, so they leave through ``os._exit``: no
``finally`` block or ``atexit`` hook of the coordinator's runs twice.
A member that dies is dropped from the rotation and from
``/metrics``; it is not replaced.

On one CPU this is the same code with an empty member list: the
coordinator accepts and serves every connection itself.
:class:`~repro.serve.server.ServerThread` is that case too: it binds
with :func:`_listen` and runs :func:`_coordinate` with no member on a
background thread, so its connections take the same accept path.
"""

from __future__ import annotations

import asyncio
import errno
import functools
import itertools
import json
import logging
import os
import signal
import socket
# asyncio imports its default executor on first use; a :swap build runs
# there, so load it once here rather than in every forked member.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from typing import Awaitable, Callable

from ..exceptions import ReproError
from ..runtime.tree import fork, reap
from .batching import DEFAULT_BATCH_MAX, DEFAULT_BATCH_WINDOW_MS, DEFAULT_MAX_QUEUE
from .registry import ModelRegistry
from .server import ServeServer

__all__ = ["Channel", "serve"]

_log = logging.getLogger(__name__)

#: Largest control message; a ``stats`` reply for a few models is ~1 KiB.
_MAX_MESSAGE = 1 << 16


class Channel:
    """One end of a coordinator–member ``socketpair`` on the running loop.

    ``call(op, *args)`` runs ``ops[op](*args)`` on the other end and
    returns its JSON result; a failure there raises here, as a
    :class:`~repro.exceptions.ReproError` if it was one (so the HTTP
    mapping stays the same) and a ``RuntimeError`` otherwise.
    :meth:`hand_off` passes an accepted connection to the other end,
    which gives it to ``adopt``.  :attr:`closed` resolves when the
    other end is gone; pending calls then fail with
    ``ConnectionError``.
    """

    def __init__(
        self,
        sock: socket.socket,
        ops: dict[str, Callable[..., Awaitable]],
        adopt: Callable[[socket.socket], Awaitable] | None = None,
    ) -> None:
        self._loop = asyncio.get_running_loop()
        self._sock = sock
        self._ops = ops
        self._adopt = adopt
        self._ids = itertools.count()
        self._calls: dict[int, asyncio.Future] = {}
        self._tasks: set[asyncio.Task] = set()
        self.closed: asyncio.Future = self._loop.create_future()
        sock.setblocking(False)
        self._loop.add_reader(sock.fileno(), self._on_readable)

    def _send(self, message: list, fds: tuple[int, ...] = ()) -> None:
        if self.closed.done():
            raise ConnectionError("the other serving process is gone")
        socket.send_fds(self._sock, [json.dumps(message).encode()], list(fds))

    async def call(self, op: str, *args):
        """Run ``op`` on the other end and return its result."""
        i = next(self._ids)
        future = self._loop.create_future()
        self._calls[i] = future
        try:
            self._send(["call", i, op, list(args)])
            return await future
        finally:
            del self._calls[i]

    def hand_off(self, conn: socket.socket) -> None:
        """Pass an accepted connection to the other end (raises ``OSError``)."""
        self._send(["conn"], (conn.fileno(),))

    def _spawn(self, coro: Awaitable) -> None:
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _on_readable(self) -> None:
        while not self.closed.done():
            try:
                data, fds, _, _ = socket.recv_fds(self._sock, _MAX_MESSAGE, 1)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                data, fds = b"", []
            if not data:
                self.close()
                return
            kind, *rest = json.loads(data)
            if kind == "conn":
                self._spawn(self._adopt(socket.socket(fileno=fds[0])))
            elif kind == "call":
                self._spawn(self._answer(*rest))
            else:
                i, ok, value = rest
                future = self._calls.get(i)
                if future is None or future.done():
                    continue
                if ok:
                    future.set_result(value)
                else:
                    is_repro, message = value
                    future.set_exception((ReproError if is_repro else RuntimeError)(message))

    async def _answer(self, i: int, op: str, args: list) -> None:
        try:
            reply = ["reply", i, True, await self._ops[op](*args)]
        except Exception as exc:  # noqa: BLE001 - shipped to the caller
            reply = ["reply", i, False, [isinstance(exc, ReproError), str(exc)]]
        try:
            self._send(reply)
        except OSError:
            pass  # the caller is gone; so is its interest in the answer

    def close(self) -> None:
        """Close this end (idempotent); the other end sees EOF."""
        if self.closed.done():
            return
        self._loop.remove_reader(self._sock.fileno())
        self._sock.close()
        for future in self._calls.values():
            if not future.done():
                future.set_exception(ConnectionError("the other serving process is gone"))
        self.closed.set_result(None)


class _Coordinator:
    """The coordinator's :attr:`~repro.serve.server.ServeServer.tree`.

    It answers for itself and every member in :attr:`members`, the
    coordinator-side channels that are still open.
    """

    def __init__(self, server: ServeServer) -> None:
        self._server = server
        self.members: list[Channel] = []
        self._swap_lock = asyncio.Lock()

    async def stats(self) -> dict[str, dict]:
        """Every process's :meth:`~repro.serve.server.ServeServer.stats`, summed.

        Counts, sums and histogram buckets add; ``max_*`` counters take
        the largest.  A member that is gone contributes nothing.
        """
        totals = self._server.stats()
        parts = await asyncio.gather(
            *(member.call("stats") for member in list(self.members)),
            return_exceptions=True,
        )
        for part in parts:
            if isinstance(part, BaseException):
                continue
            for name, counters in part.items():
                mine = totals[name]
                for key, value in counters.items():
                    if isinstance(value, list):
                        mine[key] = [a + b for a, b in zip(mine[key], value)]
                    elif key.startswith("max_"):
                        mine[key] = max(mine[key], value)
                    else:
                        mine[key] += value
        return totals

    async def swap(self, name: str, source: str) -> tuple[int, str]:
        """Hot-swap ``name`` in every process: ``(generation, source)``.

        All or nothing, one swap at a time.  Every process builds the
        new engine (:meth:`ModelRegistry.build`); only if every build
        succeeded does every process flip to it, otherwise every build
        is dropped and the first failure is raised.
        """
        async with self._swap_lock:
            members = list(self.members)
            loop = asyncio.get_running_loop()
            registry = self._server.registry
            builds = await asyncio.gather(
                loop.run_in_executor(None, registry.build, source),
                *(member.call("build", name, source) for member in members),
                return_exceptions=True,
            )
            failed = [b for b in builds if isinstance(b, BaseException)]
            if failed:
                await asyncio.gather(
                    *(member.call("drop", name) for member in members),
                    return_exceptions=True,
                )
                raise failed[0]
            entry = registry.flip(name, *builds[0])
            # A member that died since its build has nothing to flip.
            await asyncio.gather(
                *(member.call("flip", name) for member in members),
                return_exceptions=True,
            )
            return entry.generation, entry.source


class _Member:
    """A member's :attr:`~repro.serve.server.ServeServer.tree`: the
    coordinator answers for it over ``channel``."""

    def __init__(self, channel: Channel) -> None:
        self._channel = channel

    async def stats(self) -> dict[str, dict]:
        return await self._channel.call("stats")

    async def swap(self, name: str, source: str) -> tuple[int, str]:
        return tuple(await self._channel.call("swap", name, source))


def _member_ops(server: ServeServer) -> dict[str, Callable[..., Awaitable]]:
    """What a member answers: readiness, its counters, and the swap steps."""
    staged: dict = {}  # name -> (engine, source label) built, not yet flipped
    loop = asyncio.get_running_loop()

    async def ready() -> None:
        pass  # answering at all means the server is up

    async def stats() -> dict:
        return server.stats()

    async def build(name: str, source: str) -> None:
        staged[name] = await loop.run_in_executor(None, server.registry.build, source)

    async def flip(name: str) -> int:
        return server.registry.flip(name, *staged.pop(name)).generation

    async def drop(name: str) -> None:
        staged.pop(name, None)

    return {"ready": ready, "stats": stats, "build": build, "flip": flip, "drop": drop}


def _listen(host: str, port: int) -> list[socket.socket]:
    """Listening sockets on every address ``host`` resolves to.

    An address family the host has not enabled is skipped, and with
    ``port=0`` every address gets the port the first one drew.  Runs
    synchronously, so a port in use raises ``OSError`` here.
    """
    infos = socket.getaddrinfo(
        host or None, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
    )
    listeners: list[socket.socket] = []
    try:
        for family, kind, proto, _, address in dict.fromkeys(infos):
            if listeners and port == 0:
                address = (address[0], listeners[0].getsockname()[1], *address[2:])
            sock = socket.socket(family, kind, proto)
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                if family == socket.AF_INET6:
                    sock.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_V6ONLY, 1)
                sock.bind(address)
                sock.listen()
            except OSError as exc:
                sock.close()
                if exc.errno == errno.EADDRNOTAVAIL:
                    continue
                raise
            sock.setblocking(False)
            listeners.append(sock)
    except BaseException:
        for sock in listeners:
            sock.close()
        raise
    if not listeners:
        raise OSError(errno.EADDRNOTAVAIL, f"no address of {host!r} can be bound")
    return listeners


async def _accept(
    listener: socket.socket,
    server: ServeServer,
    members: list[Channel],
    turns: itertools.count,
) -> None:
    """Deal ``listener``'s connections round-robin over the coordinator and
    its members; every listener draws from the same ``turns``.

    A connection served here is adopted on a task of its own, so the
    next one is accepted while it is being set up.  Cancelling this
    cancels the adoptions still in flight.
    """
    loop = asyncio.get_running_loop()
    adopting: set[asyncio.Task] = set()
    try:
        while True:
            try:
                conn, _ = await loop.sock_accept(listener)
            except (ConnectionAbortedError, InterruptedError):
                continue
            except OSError as exc:  # e.g. out of file descriptors: back off
                _log.warning("accept failed: %s", exc)
                await asyncio.sleep(1.0)
                continue
            k = next(turns) % (len(members) + 1)
            if k:
                try:
                    members[k - 1].hand_off(conn)
                except OSError:
                    pass  # that member is gone: serve the connection here
                else:
                    conn.close()
                    continue
            task = loop.create_task(server.adopt(conn))
            adopting.add(task)
            task.add_done_callback(functools.partial(_adopted, conn, adopting))
    finally:
        for task in adopting:
            task.cancel()


def _adopted(conn: socket.socket, adopting: set[asyncio.Task], task: asyncio.Task) -> None:
    adopting.discard(task)
    if task.cancelled() or task.exception() is not None:
        conn.close()  # accepting stopped, or the connection could not be set up


async def _coordinate(
    server: ServeServer,
    listeners: list[socket.socket],
    ends: list[socket.socket],
    stop: asyncio.Event,
    ready: Callable[[], None],
) -> None:
    """Serve ``listeners`` with ``server`` and the members at ``ends``.

    Calls ``ready()`` once every member has answered, and returns, every
    process drained, once ``stop`` is set.
    """
    loop = asyncio.get_running_loop()
    await server.start()
    tree = server.tree = _Coordinator(server)
    members = tree.members
    members.extend(Channel(end, {"stats": tree.stats, "swap": tree.swap}) for end in ends)
    accepting: list[asyncio.Task] = []
    try:
        await asyncio.gather(*(member.call("ready") for member in members))

        def lost(member: Channel) -> None:
            if not stop.is_set():
                members.remove(member)
                _log.warning("a serving process exited; %d left", len(members) + 1)

        for member in members:
            member.closed.add_done_callback(lambda _, member=member: lost(member))
        ready()
        turns = itertools.count()
        accepting = [
            loop.create_task(_accept(listener, server, members, turns))
            for listener in listeners
        ]
        await stop.wait()
        _log.info("shutting down")
    finally:
        stop.set()
        for task in accepting:
            task.cancel()
        # Their in-flight adoptions are cancelled before the server stops.
        await asyncio.gather(*accepting, return_exceptions=True)
        for member in list(members):
            member.close()  # EOF: the member drains its connections and exits
        await server.stop()


async def _member(server: ServeServer, end: socket.socket) -> None:
    await server.start()
    channel = Channel(end, _member_ops(server), adopt=server.adopt)
    server.tree = _Member(channel)
    await channel.closed
    await server.stop()


def _member_main(server: ServeServer, end: socket.socket) -> None:
    """A forked member's whole life; :func:`~repro.runtime.tree.fork` runs it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the coordinator stops us
    # Not asyncio.run: its teardown would join a swap build still
    # running on the executor after the coordinator is gone.
    asyncio.new_event_loop().run_until_complete(_member(server, end))


def serve(
    registry: ModelRegistry,
    host: str = "127.0.0.1",
    port: int = 0,
    window_ms: float = DEFAULT_BATCH_WINDOW_MS,
    max_batch: int = DEFAULT_BATCH_MAX,
    max_queue: int = DEFAULT_MAX_QUEUE,
) -> None:
    """Serve ``registry`` over HTTP from one process per CPU until SIGINT.

    The CPUs are those this process may run on
    (``os.sched_getaffinity``), so ``taskset`` or a cpuset restricts
    them.  Prints ``serving N model(s) on http://HOST:PORT`` once every
    process is serving.  The other parameters are
    :class:`~repro.serve.server.ServeServer`'s.  Call it from the main
    thread, before any other thread has started.
    """
    # Not started yet, so every forked member gets a copy with no loop.
    server = ServeServer(registry, window_ms, max_batch, max_queue)
    listeners = _listen(host, port)
    port = listeners[0].getsockname()[1]
    banner = f"serving {len(registry)} model(s) on http://{host}:{port}"
    ends: list[socket.socket] = []
    pids: list[int] = []

    async def until_sigint() -> None:
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGINT, stop.set)
        await _coordinate(server, listeners, ends, stop, lambda: print(banner, flush=True))

    try:
        for _ in range(len(os.sched_getaffinity(0)) - 1):
            ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
            # Held open, the other ends would hide the coordinator's EOF.
            pid = fork(_member_main, server, theirs, close=[*listeners, ours, *ends])
            theirs.close()
            ends.append(ours)
            pids.append(pid)
        asyncio.run(until_sigint())
    finally:
        for sock in [*listeners, *ends]:
            sock.close()
        reap(pids)
