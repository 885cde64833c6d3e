"""serve_mixed and serve_bulk: a ``serve-http`` child under HTTP load.

A run trains the two served pipelines (Suturing classification and Mars
Express regression, circular basis, d = 10,000) from the workload seed,
saves them as ``.npz`` models, and computes the sequential oracle
(``repro.serve.replay.oracle_transcript``) for every row it will send --
all before any timing.  It then starts the server ``SETUP_REPEATS``
times, timing each set-up (spawn until ``/healthz`` answers, plus the
fixed warm-up request set), and measures on the last one.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import math
import select
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

import analysis
import loadgen
import workloads as W
from host import HERE, child_env, cpu_times, least_disturbed, steal_line, steal_share
from stats import percentile
from tracing import now, row_key

HOST = "127.0.0.1"


@contextlib.contextmanager
def paused_gc():
    """Keep the client's own garbage collector out of a timed phase."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclass
class Req:
    """One HTTP request: its model, its rows and what the oracle answers."""

    model: str
    rows: list[list[float]]
    batched: bool
    expected: list
    wire: bytes = b""

    def __post_init__(self) -> None:
        payload = {"records": self.rows} if self.batched else {"features": self.rows[0]}
        self.wire = loadgen.build_request(HOST, self.model, payload)

    def matches(self, body: bytes) -> bool:
        try:
            payload = json.loads(body)
        except ValueError:
            return False
        if self.batched:
            return payload.get("predictions") == self.expected
        return payload.get("prediction") == self.expected[0]


def train_models(workdir: Path, seeds: dict[str, int]) -> dict[str, Path]:
    from repro.experiments.config import ClassificationConfig, RegressionConfig
    from repro.experiments.serving import train_pipeline
    from repro.serve.persist import save_model

    paths = {}
    for model, task, config in (
        ("suturing", "suturing", ClassificationConfig(dim=W.DIM, seed=seeds["suturing"])),
        ("mars", "mars_express", RegressionConfig(dim=W.DIM, seed=seeds["mars"])),
    ):
        paths[model] = save_model(train_pipeline(task, "circular", config=config),
                                  workdir / f"{model}.npz")
    return paths


def oracle(paths: dict[str, Path], rows: dict[str, list[list[float]]]) -> dict[str, list]:
    """Sequential ``predict_one`` answers for every row, per model."""
    from repro.serve.engine import InferenceEngine
    from repro.serve.replay import TraceRequest, oracle_transcript

    answers = {}
    for model, model_rows in rows.items():
        with InferenceEngine.from_path(paths[model]) as engine:
            trace = [TraceRequest(id=i, t=0.0, model=model, features=tuple(r))
                     for i, r in enumerate(model_rows)]
            answers[model] = oracle_transcript(trace, {model: engine})
    return answers


class Server:
    """One ``serve-http`` child process (optionally the traced launcher)."""

    def __init__(self, paths: dict[str, Path], workdir: Path, traced: bool, tag: str) -> None:
        models = [arg for m, p in sorted(paths.items()) for arg in ("--model", f"{m}={p}")]
        cli = ["serve-http", *models, "--host", HOST, "--port", "0"]
        self.spans_path = workdir / f"spans-{tag}.json" if traced else None
        if traced:
            self.argv = [sys.executable, str(HERE / "serve_child.py"), str(self.spans_path), *cli]
        else:
            self.argv = [sys.executable, "-m", "repro.experiments", *cli]
        self.log_path = workdir / f"server-{tag}.log"
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> None:
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(self.argv, stdout=subprocess.PIPE, stderr=log,
                                         env=child_env(), cwd=str(HERE.parent))
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start; see {self.log_path}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.proc = None

    def spans(self) -> list[analysis.Span]:
        with open(self.spans_path, encoding="utf-8") as fh:
            return analysis.load_spans(json.load(fh))


async def _get(port: int, path: str) -> tuple[int, bytes]:
    conn = await loadgen.Connection.open(HOST, port)
    try:
        request = f"GET {path} HTTP/1.1\r\nHost: {HOST}\r\n\r\n".encode()
        return await asyncio.wait_for(conn.roundtrip(request), loadgen.TIMEOUT_S)
    finally:
        await conn.close()


def metrics_snapshot(port: int) -> dict[str, float]:
    """Sums over models of the scheduler's ``/metrics`` counters."""
    status, body = asyncio.run(_get(port, "/metrics"))
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    totals: dict[str, float] = {}
    for line in body.decode().splitlines():
        if line.startswith("#") or not line:
            continue
        key, value = line.rsplit(" ", 1)
        name = key.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


async def _warm_up(port: int, warmup: list[bytes]) -> None:
    status, _ = await _get(port, "/healthz")
    if status != 200:
        raise RuntimeError(f"/healthz answered {status}")
    conns = await loadgen.open_connections(HOST, port, W.CONNECTIONS)
    try:
        half = [warmup[c::W.CONNECTIONS] for c in range(W.CONNECTIONS)]

        async def drive(conn, reqs):
            for wire in reqs:
                status, body = await asyncio.wait_for(conn.roundtrip(wire), loadgen.TIMEOUT_S)
                if status != 200:
                    raise RuntimeError(f"warm-up request answered {status}: {body[:200]!r}")

        await asyncio.gather(*(drive(c, r) for c, r in zip(conns, half)))
    finally:
        await loadgen.close_connections(conns)


def start_server(paths, workdir, traced: bool, tag: str, warmup: list[bytes]) -> tuple[Server, float]:
    """Start a server and warm it up; returns it with the set-up time."""
    server = Server(paths, workdir, traced, tag)
    t0 = now()
    server.start()
    try:
        asyncio.run(_warm_up(server.port, warmup))
    except BaseException:
        server.stop()
        raise
    return server, now() - t0


def warmup_set(rng: np.random.Generator) -> list[bytes]:
    reqs = []
    for i in range(W.WARMUP_SINGLE * len(W.MODELS)):
        model = sorted(W.MODELS)[i % len(W.MODELS)]
        reqs.append(loadgen.build_request(HOST, model, {"features": W.uniform_rows(rng, model, 1)[0]}))
    for i in range(W.WARMUP_BULK * len(W.MODELS)):
        model = sorted(W.MODELS)[i % len(W.MODELS)]
        reqs.append(loadgen.build_request(HOST, model, {"records": W.uniform_rows(rng, model, W.BULK_ROWS)}))
    return reqs


@dataclass
class Phase:
    """A load phase's requests, its outcome and the operations it checked."""

    reqs: list[Req]
    out: loadgen.Outcome
    failed: int = 0
    mismatched: int = 0

    def check(self) -> None:
        for i, req in enumerate(self.reqs):
            if not self.out.ok(i):
                self.failed += 1
            elif not req.matches(self.out.body[i]):
                self.failed += 1
                self.mismatched += 1


def _ms(seconds: list[float]) -> list[float]:
    return [s * 1e3 for s in seconds]


def _tail(values_ms: list[float], label: str, q: float, report: list) -> float:
    value = percentile(values_ms, q)
    report.append(f"  {label}: {value:.4f} ms (n={len(values_ms)})")
    return value


class ServeRun:
    """Everything one serving workload run needs, built from the seed."""

    def __init__(self, name: str, seed: int, seconds: float, workdir: Path) -> None:
        self.name = name
        self.seconds = seconds
        self.workdir = workdir
        s = W.seeds(seed)
        self.paths = train_models(workdir, W.model_seeds(s))
        self.trace_rng = np.random.default_rng(s.trace)
        rows_rng = np.random.default_rng(s.rows)
        self.warmup = warmup_set(rows_rng)
        if name == "serve_mixed":
            # Each model's requests cycle through a pool of rows, so a row
            # recurs only every few seconds and is never in flight twice.
            rows = {m: W.uniform_rows(rows_rng, m, W.ROW_POOL) for m in sorted(W.MODELS)}
            answers = oracle(self.paths, rows)
            cursor = {m: 0 for m in W.MODELS}
            self.windows = max(1, round(W.BASE_RATE * seconds / W.WINDOW_REQUESTS))
            self.base: list[Req] = []
            self.base_dues: list[list[float]] = []
            for _ in range(self.windows + W.SPARE_WINDOWS):
                for m in W.mixed_models(self.trace_rng, W.WINDOW_REQUESTS):
                    j = cursor[m] % W.ROW_POOL
                    cursor[m] += 1
                    self.base.append(Req(m, [rows[m][j]], False, [answers[m][j]]))
                self.base_dues.append(
                    W.poisson_dues(self.trace_rng, W.BASE_RATE, W.WINDOW_REQUESTS))
        else:
            # Connection c alternates models, starting with model c, over
            # BULK_BODIES bodies per model of its own (disjoint from the
            # other connection's, so a row is never in flight twice).
            names = sorted(W.MODELS)
            rows = {m: W.uniform_rows(rows_rng, m, W.CONNECTIONS * W.BULK_BODIES * W.BULK_ROWS)
                    for m in names}
            answers = oracle(self.paths, rows)
            self.cycles: list[list[Req]] = []
            for c in range(W.CONNECTIONS):
                cycle = []
                for k in range(W.BULK_BODIES * len(names)):
                    m = names[(c + k) % len(names)]
                    body = c * W.BULK_BODIES + k // len(names)
                    sl = slice(body * W.BULK_ROWS, (body + 1) * W.BULK_ROWS)
                    cycle.append(Req(m, rows[m][sl], True, answers[m][sl]))
                self.cycles.append(cycle)

    def measure(self, traced: bool) -> dict:
        """One pass: set-ups, the measured load, checks and metrics."""
        tag = "traced" if traced else "plain"
        setups = []
        server = None
        for k in range(W.SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, setup = start_server(self.paths, self.workdir, traced, f"{tag}{k}", self.warmup)
            setups.append(setup)
        try:
            before = metrics_snapshot(server.port)
            run = self._mixed if self.name == "serve_mixed" else self._bulk
            phases, layer_reqs, result = run(server.port, before)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        result["setup_s"] = median(setups)
        result["peak_rss_mb"] = rss
        result["setups"] = setups
        attempted = sum(len(p.reqs) for p in phases)
        failed = 0
        for p in phases:
            p.check()
            failed += p.failed
        result["attempted"] = attempted
        result["failed"] = failed
        result["mismatched"] = sum(p.mismatched for p in phases)
        result["ok_frac"] = (attempted - failed) / attempted
        if traced:
            result["layers"] = analysis.serving_layers(server.spans(), layer_reqs)
        return result

    def _open_loop(self, port: int, reqs: list[Req], dues: list[float]) -> Phase:
        async def run_phase():
            conns = await loadgen.open_connections(HOST, port, W.CONNECTIONS)
            lanes = [W.LANES[r.model] for r in reqs]
            try:
                with paused_gc():
                    return await loadgen.open_loop(conns, [r.wire for r in reqs], dues, lanes)
            finally:
                await loadgen.close_connections(conns)

        return Phase(reqs, asyncio.run(run_phase()))

    def _mixed(self, port: int, before: dict) -> tuple[list[Phase], list, dict]:
        n = W.WINDOW_REQUESTS
        phases, steals = [], []
        for w, dues in enumerate(self.base_dues):
            clean = sum(share <= W.STEAL_LIMIT for share in steals)
            if w >= self.windows and clean >= self.windows:
                break
            t0 = cpu_times()
            phases.append(self._open_loop(port, self.base[w * n:(w + 1) * n], dues))
            steals.append(steal_share(t0, cpu_times()))
        after = metrics_snapshot(port)
        used = least_disturbed(steals, self.windows)
        report = [steal_line(steals, used)]
        percentiles = {"p50_ms": [], "p99_ms": []}
        lags, answered, span = [], 0, 0.0
        for w in used:
            out = phases[w].out
            ok = [i for i in range(n) if out.ok(i)]
            for key, q in (("p50_ms", 0.50), ("p99_ms", 0.99)):
                lat = _ms([out.recv[i] - out.due[i] for i in ok])
                percentiles[key].append(_tail(lat, f"window {w} {key[:3]} from due time", q, report))
            lags += _ms(out.lag)
            answered += len(ok)
            span += max(out.recv) - min(out.due)
        result = {key: median(values) for key, values in percentiles.items()}
        result.update({
            "rows_per_s": answered / span,
            "lag_ms": lags,
            "conn_wait_ms": [x for w in used for x in _ms(phases[w].out.conn_wait)],
            "batching": _batching(before, after),
            "report": report,
        })
        lag_p99 = percentile(lags, 0.99)
        result["lag_ok"] = lag_p99 <= LAG_SHARE * result["p99_ms"]
        report.append(f"  generator lag p99: {lag_p99:.4f} ms (n={len(lags)}); "
                      f"limit {LAG_SHARE:.0%} of p99_ms")
        layer_reqs = [
            analysis.Request(p.out.send[i], p.out.recv[i], [row_key(r) for r in p.reqs[i].rows])
            for p in phases for i in range(n) if p.out.ok(i)
        ]
        return phases, layer_reqs, result

    def max_rps(self) -> dict:
        """The serve_mixed capacity search on a fresh, untimed server.

        Bisection over offered rates above the base rate; a probe passes
        when its p99 from due time is within the limit, none of its
        requests failed and the backlog it left was small.  Every probe's
        answers are checked against the oracle like any other operation.
        """
        server, _ = start_server(self.paths, self.workdir, False, "search", self.warmup)
        phases, report = [], []
        probe_rng = np.random.default_rng(self.trace_rng.integers(0, 2**63))

        def probe(rate: float) -> bool:
            reqs = [self.base[i % len(self.base)] for i in range(W.PROBE_REQUESTS)]
            phase = self._open_loop(server.port, reqs,
                                    W.poisson_dues(probe_rng, rate, W.PROBE_REQUESTS))
            phases.append(phase)
            o = phase.out
            p99 = math.inf
            if all(o.ok(i) for i in range(len(reqs))):
                p99 = percentile(_ms([o.recv[i] - o.due[i] for i in range(len(reqs))]), 0.99)
            passed = p99 <= W.P99_LIMIT_MS and o.backlog_end <= W.BACKLOG_LIMIT
            report.append(f"  probe {rate:8.2f} req/s: p99 {p99:.3f} ms (n={len(reqs)}), "
                          f"backlog at end {o.backlog_end} -> {'pass' if passed else 'fail'}")
            return passed

        try:
            found = loadgen.search_max_rate(probe, W.BASE_RATE, W.TOP_FACTOR, W.PROBE_STEPS)
        finally:
            server.stop()
        for p in phases:
            p.check()
        return {
            "max_rps": found,
            "attempted": sum(len(p.reqs) for p in phases),
            "failed": sum(p.failed for p in phases),
            "mismatched": sum(p.mismatched for p in phases),
            "report": report,
        }

    def _bulk(self, port: int, before: dict) -> tuple[list[Phase], list, dict]:
        cycles = [[r.wire for r in cycle] for cycle in self.cycles]

        async def run_window():
            conns = await loadgen.open_connections(HOST, port, W.CONNECTIONS)
            try:
                with paused_gc():
                    return await loadgen.closed_loop(
                        conns, cycles, self.seconds / W.BULK_WINDOWS, W.BULK_WINDOW_REQUESTS)
            finally:
                await loadgen.close_connections(conns)

        phases, steals = [], []
        while len(phases) < W.BULK_WINDOWS + W.SPARE_WINDOWS:
            clean = sum(share <= W.STEAL_LIMIT for share in steals)
            if len(phases) >= W.BULK_WINDOWS and clean >= W.BULK_WINDOWS:
                break
            t0 = cpu_times()
            out, where = asyncio.run(run_window())
            steals.append(steal_share(t0, cpu_times()))
            phases.append(Phase([self.cycles[c][k] for c, k in where], out))
        after = metrics_snapshot(port)
        used = least_disturbed(steals, W.BULK_WINDOWS)
        report = [steal_line(steals, used)]
        per_window: dict[str, list[float]] = {"p50_ms": [], "rows_per_s": []}
        pooled: list[float] = []
        for w in used:
            out, reqs = phases[w].out, phases[w].reqs
            ok = [i for i in range(len(reqs)) if out.ok(i)]
            lat = _ms([out.recv[i] - out.send[i] for i in ok])
            pooled += lat
            span = max(out.recv) - min(out.send)
            report.append(f"  window {w}: {len(reqs)} requests in {span:.2f} s")
            per_window["p50_ms"].append(_tail(lat, f"window {w} p50 from send", 0.50, report))
            per_window["rows_per_s"].append(sum(len(reqs[i].rows) for i in ok) / span)
        result = {key: median(values) for key, values in per_window.items()}
        result["p99_ms"] = _tail(pooled, "p99 from send, windows used", 0.99, report)
        result.update({
            "lag_ms": [],
            "conn_wait_ms": [],
            "lag_ok": True,
            "batching": _batching(before, after),
            "report": report,
        })
        layer_reqs = [
            analysis.Request(p.out.send[i], p.out.recv[i], [row_key(r) for r in p.reqs[i].rows])
            for p in phases for i in range(len(p.reqs)) if p.out.ok(i)
        ]
        return phases, layer_reqs, result


#: A serve_mixed run is rejected when the generator's p99 lateness exceeds
#: this share of p99_ms: beyond it, client lateness rather than the server
#: would set the tail.
LAG_SHARE = 0.5


def _batching(before: dict, after: dict) -> dict:
    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    count = delta("repro_serve_batch_rows_count")
    return {
        "rows_per_batch": delta("repro_serve_batch_rows_sum") / count if count else 0.0,
        "batches": delta("repro_serve_batches_total"),
        "rejected": delta("repro_serve_rejected_total"),
    }
