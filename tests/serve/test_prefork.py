"""The forked serving tree: ``serve-http`` on two processes.

Every test launches the CLI in a subprocess (the pytest process itself
never forks) through :data:`_LAUNCHER`, which makes the CPU affinity
mask :func:`repro.serve.prefork.serve` reads hold two CPUs whatever the
host has, so the coordinator always has one member.  Round-robin
hand-off means two consecutively opened connections are served by
different processes.

* answers — transcripts over many connections equal the sequential
  ``predict_one`` oracle for both models;
* ``/metrics`` — totals are the sum over both processes, whichever
  process answers the scrape;
* ``:swap`` — all or nothing: a build that fails in one process leaves
  both on the old generation; a good swap moves both;
* lifecycle — SIGINT drains both and exits 0; SIGKILL of the
  coordinator leaves no member behind;
* memory — a member shares the loaded models instead of copying them;
* binding — a host name is served on every address it resolves to;
* accepting — a connection is accepted while the one before it is
  still being adopted.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.config import ClassificationConfig, RegressionConfig
from repro.experiments.serving import train_pipeline
from repro.serve import InferenceEngine, json_scalar, oracle_transcript, save_model

from .http_load import mixed_trace, post_all

REPO_ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and Path("/proc/self/smaps_rollup").exists()),
    reason="needs fork and Linux /proc",
)

#: Runs the CLI (``argv[3:]``) as if this process could run on
#: ``argv[1]`` CPUs, so :func:`repro.serve.prefork.serve` forks that many
#: processes.  A build of the artifact named
#: ``argv[2]`` fails in every process but the coordinator (``-`` names
#: none).
_LAUNCHER = """
import os, sys
from pathlib import Path
from repro.exceptions import ModelFormatError
from repro.experiments.__main__ import main
from repro.serve import InferenceEngine

coordinator, processes, fail_name = os.getpid(), int(sys.argv[1]), sys.argv[2]
build = InferenceEngine.from_path

def from_path(path):
    if os.getpid() != coordinator and Path(path).name == fail_name:
        raise ModelFormatError(f"injected build failure for {Path(path).name}")
    return build(path)

InferenceEngine.from_path = staticmethod(from_path)
os.sched_getaffinity = lambda pid: set(range(processes))
sys.exit(main(sys.argv[3:]))
"""


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Paper-scale (d = 10,000) Suturing and Mars Express artifacts, plus
    a second Suturing generation to swap in."""
    root = tmp_path_factory.mktemp("prefork")
    specs = {
        "suturing": ("suturing", ClassificationConfig(dim=10_000, seed=1)),
        "mars": ("mars_express", RegressionConfig(dim=10_000, seed=2)),
        "suturing2": ("suturing", ClassificationConfig(dim=10_000, seed=5)),
    }
    return {
        name: save_model(train_pipeline(task, "circular", config=config), root / f"{name}.npz")
        for name, (task, config) in specs.items()
    }


class Tree:
    """A ``serve-http`` subprocess and its members' pids."""

    def __init__(
        self, models: dict, fail_name: str = "-", processes: int = 2, host: str = "127.0.0.1"
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        args = [sys.executable, "-c", _LAUNCHER, str(processes), fail_name]
        args += ["serve-http", "--host", host, "--port", "0"]
        for name, path in models.items():
            args += ["--model", f"{name}={path}"]
        self.proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=REPO_ROOT,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"http://(.+):(\d+)$", line.strip())
        if not match:
            self.kill()
            raise AssertionError(f"no address announced: {line!r}\n{self.proc.stderr.read()}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.members = _children(self.proc.pid)
        assert len(self.members) == processes - 1, self.members

    def connection(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        conn.connect()
        return conn

    def request(self, method, path, payload=None, conn=None):
        """One request, on ``conn`` or on a fresh connection of its own."""
        own = conn is None
        conn = conn or self.connection()
        try:
            body = None if payload is None else json.dumps(payload).encode()
            conn.request(method, path, body=body)
            response = conn.getresponse()
            raw = response.read().decode()
            is_json = response.getheader("Content-Type") == "application/json"
            return response.status, json.loads(raw) if is_json else raw
        finally:
            if own:
                conn.close()

    def interrupt(self) -> int:
        self.proc.send_signal(signal.SIGINT)
        try:
            return self.proc.wait(timeout=60)
        finally:
            self._close_pipes()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self._close_pipes()

    def _close_pipes(self) -> None:
        self.proc.stdout.close()
        self.proc.stderr.close()


@pytest.fixture
def tree_factory():
    trees = []

    def make(models, **kwargs):
        trees.append(Tree(models, **kwargs))
        return trees[-1]

    yield make
    for tree in trees:
        members = tree.members
        tree.kill()
        for pid in members:  # a failed test must not leave a member behind
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


def _children(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                kids.append(int(entry))
    return kids


def _running(pid: int) -> bool:
    """The process exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _private_mb(pid: int) -> float:
    """``Private_*`` pages of ``pid`` in MB, from ``smaps_rollup``."""
    total_kb = 0
    for line in Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines():
        if line.startswith("Private_"):
            total_kb += int(line.split()[1])
    return total_kb / 1024.0


def _counter(metrics: str, family: str, model: str) -> float:
    match = re.search(rf'^{family}{{model="{model}"}} (\S+)$', metrics, re.M)
    return float(match.group(1))


def test_transcripts_equal_the_oracle(tree_factory, artifacts):
    models = {"suturing": artifacts["suturing"], "mars": artifacts["mars"]}
    tree = tree_factory(models)
    engines = {name: InferenceEngine.from_path(path) for name, path in models.items()}
    specs = {"suturing": (18, -2.0, 2.0), "mars": (1, 0.0, 400.0)}
    trace = mixed_trace(specs, 400, seed=29)
    answers, _ = asyncio.run(post_all(tree.host, tree.port, trace, connections=8))
    assert [status for status, _ in answers] == [200] * len(trace)
    want = oracle_transcript(trace, engines)
    assert json.dumps([body["prediction"] for _, body in answers]) == json.dumps(want)
    assert {req.model for req in trace} == set(models)
    assert tree.interrupt() == 0


def test_metrics_sum_every_process(tree_factory, artifacts):
    tree = tree_factory({"mars": artifacts["mars"]})
    # Two connections opened back to back land on the two processes.
    first, second = tree.connection(), tree.connection()
    sent = {first: 7, second: 4}
    try:
        for conn, count in sent.items():
            for i in range(count):
                status, _ = tree.request(
                    "POST", "/v1/models/mars:predict", {"features": [float(i)]}, conn
                )
                assert status == 200
    finally:
        first.close()
        second.close()
    # Sequential single-row requests are one batch each, so both totals
    # are 11, which neither process reaches on its own.
    scrapes = [tree.request("GET", "/metrics")[1] for _ in range(2)]
    for metrics in scrapes:
        assert _counter(metrics, "repro_serve_requests_total", "mars") == 11
        assert _counter(metrics, "repro_serve_batches_total", "mars") == 11
        assert _counter(metrics, "repro_serve_batch_rows_sum", "mars") == 11
        assert _counter(metrics, "repro_serve_request_latency_seconds_count", "mars") == 11
    assert scrapes[0] == scrapes[1]
    assert tree.interrupt() == 0


def _generations(tree: Tree, name: str) -> list[int]:
    """The generation each process reports (two fresh connections)."""
    return [tree.request("GET", "/v1/models")[1]["models"][name]["generation"] for _ in range(2)]


def _oracle(path: Path, rows) -> list:
    engine = InferenceEngine.from_path(path)
    return [json_scalar(engine.predict_one(row)) for row in rows]


def _answers(tree: Tree, name: str, rows) -> list:
    """The answers each process gives for ``rows`` (two fresh connections)."""
    return [
        tree.request("POST", f"/v1/models/{name}:predict", {"records": rows})[1]["predictions"]
        for _ in range(2)
    ]


def test_swap_is_all_or_nothing(tree_factory, artifacts):
    old, new = artifacts["suturing"], artifacts["suturing2"]
    tree = tree_factory({"s": old}, fail_name=new.name)
    rows = np.random.default_rng(3).uniform(-2, 2, (16, 18)).tolist()
    want_old = _oracle(old, rows)
    assert _answers(tree, "s", rows) == [want_old, want_old]

    # Two attempts, so one arrives at each process: the member's build
    # fails either way, and the client gets its error.
    for _ in range(2):
        status, body = tree.request("POST", "/v1/models/s:swap", {"path": str(new)})
        assert status == 400
        assert body["error"] == f"swap failed: injected build failure for {new.name}"
        assert _generations(tree, "s") == [1, 1]
        assert _answers(tree, "s", rows) == [want_old, want_old]

    # The member's build of a path that fails nowhere succeeds: every
    # process flips, whichever one took the request.
    status, body = tree.request("POST", "/v1/models/s:swap", {"path": str(old)})
    assert (status, body["generation"]) == (200, 2)
    status, body = tree.request("POST", "/v1/models/s:swap", {"path": str(old)})
    assert (status, body["generation"]) == (200, 3)
    assert _generations(tree, "s") == [3, 3]
    assert tree.interrupt() == 0


def test_good_swap_moves_every_process(tree_factory, artifacts):
    old, new = artifacts["suturing"], artifacts["suturing2"]
    tree = tree_factory({"s": old})
    rows = np.random.default_rng(4).uniform(-2, 2, (16, 18)).tolist()
    want_new = _oracle(new, rows)
    assert want_new != _oracle(old, rows)
    status, body = tree.request("POST", "/v1/models/s:swap", {"path": str(new)})
    assert (status, body["generation"], body["source"]) == (200, 2, str(new))
    assert _generations(tree, "s") == [2, 2]
    assert _answers(tree, "s", rows) == [want_new, want_new]
    assert tree.interrupt() == 0


def test_sigint_stops_every_process_with_exit_code_0(tree_factory, artifacts):
    tree = tree_factory({"mars": artifacts["mars"]})
    (member,) = tree.members
    idle = tree.connection()  # a keep-alive client the drain must close
    try:
        assert tree.request("GET", "/healthz", conn=idle)[0] == 200
        assert tree.interrupt() == 0
    finally:
        idle.close()
    assert not _running(member)


def test_sigkill_of_the_coordinator_leaves_no_member(tree_factory, artifacts):
    tree = tree_factory({"mars": artifacts["mars"]})
    (member,) = tree.members
    tree.kill()
    deadline = time.monotonic() + 10.0
    while _running(member) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(member), "the member outlived its coordinator by 10 s"


def test_member_shares_the_loaded_models(tree_factory, artifacts):
    models = {"suturing": artifacts["suturing"], "mars": artifacts["mars"]}
    tree = tree_factory(models)
    (member,) = tree.members
    specs = {"suturing": (18, -2.0, 2.0), "mars": (1, 0.0, 400.0)}
    trace = mixed_trace(specs, 600, seed=31)
    peak = _private_mb(member)

    async def load_and_sample():
        task = asyncio.ensure_future(post_all(tree.host, tree.port, trace, connections=4))
        nonlocal peak
        while not task.done():
            peak = max(peak, _private_mb(member))
            await asyncio.sleep(0.02)
        return await task

    answers, _ = asyncio.run(load_and_sample())
    assert [status for status, _ in answers] == [200] * len(trace)
    # A member that shares the coordinator's pages reads about 6 MB; one
    # that loads its own copy of both models reads about 25 MB.
    assert peak < 16.0, f"member peak private memory {peak:.1f} MB"
    assert tree.interrupt() == 0


def test_one_process_is_the_same_code_with_no_member(tree_factory, artifacts):
    old, new = artifacts["suturing"], artifacts["suturing2"]
    tree = tree_factory({"s": old}, processes=1)
    rows = np.random.default_rng(5).uniform(-2, 2, (8, 18)).tolist()
    assert _answers(tree, "s", rows) == [_oracle(old, rows)] * 2
    status, body = tree.request("POST", "/v1/models/s:swap", {"path": str(new)})
    assert (status, body["generation"]) == (200, 2)
    assert _answers(tree, "s", rows) == [_oracle(new, rows)] * 2
    metrics = tree.request("GET", "/metrics")[1]
    assert _counter(metrics, "repro_serve_requests_total", "s") == 32
    assert tree.interrupt() == 0


def test_host_name_is_served_on_every_address_it_resolves_to(tree_factory, artifacts):
    tree = tree_factory({"mars": artifacts["mars"]}, host="localhost")
    assert tree.host == "localhost"
    infos = socket.getaddrinfo("localhost", tree.port, type=socket.SOCK_STREAM)
    for address in {info[4][0] for info in infos}:
        for _ in range(2):  # one connection to each process
            conn = http.client.HTTPConnection(address, tree.port, timeout=30)
            try:
                assert tree.request("GET", "/healthz", conn=conn)[0] == 200
            finally:
                conn.close()
    assert tree.interrupt() == 0


def test_every_resolved_address_is_bound_on_one_port(monkeypatch):
    from repro.serve import prefork

    both = [
        (socket.AF_INET6, socket.SOCK_STREAM, 6, "", ("::1", 0, 0, 0)),
        (socket.AF_INET, socket.SOCK_STREAM, 6, "", ("127.0.0.1", 0)),
    ]
    monkeypatch.setattr(socket, "getaddrinfo", lambda *args, **kwargs: both)
    listeners = prefork._listen("localhost", 0)
    try:
        names = [sock.getsockname()[:2] for sock in listeners]
    finally:
        for sock in listeners:
            sock.close()
    # ::1 is skipped where IPv6 is off, as asyncio.start_server skips it.
    assert "127.0.0.1" in {host for host, _ in names}
    assert len({port for _, port in names}) == 1, names


def test_a_connection_is_accepted_while_the_one_before_is_being_adopted():
    from repro.serve import prefork

    class Stalled:
        """A server whose ``adopt`` records the socket, then waits."""

        def __init__(self) -> None:
            self.adopted: list[socket.socket] = []
            self.release = asyncio.Event()

        async def adopt(self, sock: socket.socket) -> None:
            self.adopted.append(sock)
            await self.release.wait()

    async def run() -> int:
        server = Stalled()
        (listener,) = prefork._listen("127.0.0.1", 0)
        accepting = asyncio.get_running_loop().create_task(
            prefork._accept(listener, server, [], itertools.count())
        )
        address = listener.getsockname()
        clients = [socket.create_connection(address, timeout=5) for _ in range(2)]
        try:
            deadline = time.monotonic() + 5.0
            while len(server.adopted) < 2 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            adopted = len(server.adopted)  # before any adoption finished
            server.release.set()
        finally:
            accepting.cancel()
            await asyncio.gather(accepting, return_exceptions=True)
            for sock in [listener, *clients, *server.adopted]:
                sock.close()
        return adopted

    assert asyncio.run(run()) == 2
