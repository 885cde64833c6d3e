"""Zero-downtime hot swap: the pointer flip, batch boundaries, sustained
load, and kill -9 safety.

Four layers of the swap contract:

* the **registry flip** in isolation — a swap installs a new engine
  under the next generation number;
* the **generation boundary** — every batch is answered by exactly one
  generation, and a swap that lands while a batch runs takes effect at
  the next batch, so a ``records`` body split across batches straddles
  it span by span;
* a swap landing **under sustained load** — every request is answered
  (none dropped), every answer comes from exactly one model generation
  (old or new, never a mix), and traffic after the flip is served by the
  new model;
* **crash safety** — ``kill -9`` parked *mid-swap* (new engine built,
  pointer not yet flipped; the test launcher below parks it there)
  corrupts nothing on disk, and a restarted server configured with the
  original paths serves the old model.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.config import RegressionConfig
from repro.experiments.serving import train_regression_pipeline
from repro.serve import (
    InferenceEngine,
    MicroBatcher,
    ModelRegistry,
    OnlineLearner,
    ServerThread,
    json_scalar,
    save_model,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

PROBE = np.linspace(0.0, 2 * np.pi, 24)[:, None]


@pytest.fixture(scope="module")
def pipeline_a():
    return train_regression_pipeline(
        "circular", config=RegressionConfig(dim=128, seed=3)
    )


@pytest.fixture(scope="module")
def pipeline_b():
    """Same shape as ``pipeline_a`` but a different seed, so the two
    generations are distinguishable on every probe row."""
    return train_regression_pipeline(
        "circular", config=RegressionConfig(dim=128, seed=23)
    )


def _transcript(source, rows=PROBE):
    engine = source if isinstance(source, InferenceEngine) else None
    if engine is not None:
        return [json_scalar(engine.predict_one(row)) for row in rows]
    with InferenceEngine(source) as engine:
        return [json_scalar(engine.predict_one(row)) for row in rows]


class TestRegistrySwap:
    def test_swap_flips_to_the_next_generation(self, pipeline_a, pipeline_b):
        with ModelRegistry() as registry:
            registry.register("m", pipeline_a)
            old_engine = registry.engine("m")
            entry = registry.swap("m", pipeline_b)
            assert entry.generation == 2
            assert registry.engine("m") is entry.engine is not old_engine
            # An engine read before the flip keeps answering with its
            # own generation's bits.
            assert _transcript(old_engine) == _transcript(pipeline_a)
            assert _transcript(entry.engine) == _transcript(pipeline_b)

    def test_swap_unknown_model_rejected(self, pipeline_a, pipeline_b):
        with ModelRegistry() as registry:
            registry.register("m", pipeline_a)
            with pytest.raises(InvalidParameterError, match="unknown model"):
                registry.swap("ghost", pipeline_b)
            assert registry.names() == ["m"]

    def test_generations_count_up_in_describe(self, pipeline_a, pipeline_b):
        with ModelRegistry() as registry:
            registry.register("m", pipeline_a)
            registry.swap("m", pipeline_b)
            registry.swap("m", pipeline_a)
            assert registry.describe()["m"]["generation"] == 3


class TestGenerationBoundary:
    """A swap that lands *while a batch is being answered*, made
    deterministic: generation 1's ``predict_coalesced`` calls
    ``registry.swap`` before it answers, so the flip happens exactly
    inside the first batch."""

    MAX_BATCH = 4
    ROWS = PROBE[: 2 * MAX_BATCH]

    def _run(self, pipeline_a, pipeline_b, submit):
        """Serve ``submit(batcher)`` with the swap wired into generation
        1; return the awaited answers and the batcher's batch count."""
        engine_a = InferenceEngine(pipeline_a)
        registry = ModelRegistry()
        registry.register("m", engine_a)
        answer = engine_a.predict_coalesced

        def swap_then_answer(rows):
            registry.swap("m", pipeline_b)
            return answer(rows)

        engine_a.predict_coalesced = swap_then_answer

        async def run():
            async with MicroBatcher(
                registry, "m", window_ms=0.0, max_batch=self.MAX_BATCH
            ) as batcher:
                # Every request is queued before the scheduler runs, so
                # the batches are exactly the first and the next
                # MAX_BATCH rows.
                futures = submit(batcher)
                return await asyncio.gather(*futures), batcher.stats["batches"]

        with registry:
            got, batches = asyncio.run(run())
            # Generation 1 answered exactly one batch: a second call
            # would have swapped again.
            assert registry.describe()["m"]["generation"] == 2
        return got, batches

    def _expected(self, pipeline_a, pipeline_b):
        """Generation 1's answers for the first batch, generation 2's for
        the next."""
        oracle_a = _transcript(pipeline_a, self.ROWS)
        oracle_b = _transcript(pipeline_b, self.ROWS)
        # Every row tells the generations apart.
        assert all(a != b for a, b in zip(oracle_a, oracle_b))
        return oracle_a[: self.MAX_BATCH] + oracle_b[self.MAX_BATCH:]

    def test_each_batch_is_one_generation(self, pipeline_a, pipeline_b):
        got, batches = self._run(
            pipeline_a,
            pipeline_b,
            lambda batcher: [batcher.submit_records(row[None]) for row in self.ROWS],
        )
        assert batches == 2
        # The batch that was running when the swap landed is all
        # generation 1; the next batch is all generation 2.
        assert [json_scalar(answers[0]) for answers in got] == self._expected(
            pipeline_a, pipeline_b
        )

    def test_records_body_straddles_the_swap_span_by_span(
        self, pipeline_a, pipeline_b
    ):
        (got,), batches = self._run(
            pipeline_a, pipeline_b, lambda batcher: [batcher.submit_records(self.ROWS)]
        )
        assert batches == 2
        # One response, two generations: the body's first span was
        # answered before the flip took effect, its second span after.
        assert [json_scalar(v) for v in got] == self._expected(pipeline_a, pipeline_b)


class TestSwapUnderLoad:
    def test_no_drops_and_no_mixed_generations(self, pipeline_a, pipeline_b):
        """300 requests arriving over ~0.45 s, swap landing ~0.12 s in:
        every response must match one full generation's oracle for that
        row, early traffic is old-model, and late traffic is new-model."""
        rng = np.random.default_rng(31)
        rows = rng.uniform(0.0, 2 * np.pi, size=(300, 1))
        oracle_a = _transcript(pipeline_a, rows)
        oracle_b = _transcript(pipeline_b, rows)
        assert oracle_a != oracle_b  # the generations are distinguishable
        with ModelRegistry() as registry:
            registry.register("m", pipeline_a)

            async def run():
                async with MicroBatcher(
                    registry, "m", window_ms=1.0, max_batch=8, max_queue=1024
                ) as batcher:
                    loop = asyncio.get_running_loop()

                    async def one(i, row):
                        await asyncio.sleep(i * 0.0015)
                        return await batcher.submit(row)

                    async def swapper():
                        await asyncio.sleep(0.12)
                        await loop.run_in_executor(
                            None, registry.swap, "m", pipeline_b
                        )

                    results, _ = await asyncio.gather(
                        asyncio.gather(*(one(i, r) for i, r in enumerate(rows))),
                        swapper(),
                    )
                    return [json_scalar(v) for v in results]

            got = asyncio.run(run())
            # Post-swap traffic is served by the new generation.
            assert _transcript(registry.engine("m")) == _transcript(pipeline_b)
        from_a = from_b = 0
        for i, value in enumerate(got):
            assert value in (oracle_a[i], oracle_b[i]), f"request {i} is neither generation"
            if value == oracle_a[i]:
                from_a += 1
            else:
                from_b += 1
        assert from_a > 0 and from_b > 0  # the swap really landed mid-load
        assert got[0] == oracle_a[0] and got[-1] == oracle_b[-1]

    def test_checkpoint_then_swap_serves_the_updated_model(
        self, pipeline_a, tmp_path
    ):
        """The OnlineLearner → checkpoint → swap loop: a registry entry
        replaced by a learner's checkpoint answers exactly like the
        learner did."""
        fresh = train_regression_pipeline(
            "circular", config=RegressionConfig(dim=128, seed=3)
        )
        with ModelRegistry() as registry:
            registry.register("m", pipeline_a)
            before = _transcript(registry.engine("m"))
            learner = OnlineLearner(fresh)
            # A heavy, far-out-of-distribution update so the swap's
            # effect is unambiguous on the probe transcript.
            drift = np.linspace(0.0, 2 * np.pi, 200)[:, None]
            learner.learn(drift, np.full(200, 9999.0))
            path = learner.checkpoint(tmp_path / "ckpt.npz")
            expected = [
                json_scalar(learner.engine.predict_one(row)) for row in PROBE
            ]
            entry = registry.swap("m", path)
            assert entry.generation == 2
            after = _transcript(registry.engine("m"))
        assert after == expected
        assert after != before  # the update is visible

    def test_http_swap_endpoint(self, pipeline_a, pipeline_b, tmp_path):
        b_path = tmp_path / "b.npz"
        save_model(pipeline_b, b_path)
        want_a = _transcript(pipeline_a, PROBE[:1])[0]
        want_b = _transcript(pipeline_b, PROBE[:1])[0]
        assert want_a != want_b
        registry = ModelRegistry()
        registry.register("m", pipeline_a)
        with ServerThread(registry, own_registry=True) as server:
            probe = [float(PROBE[0, 0])]
            status, body = server.request(
                "POST", "/v1/models/m:predict", {"features": probe}
            )
            assert (status, body["prediction"]) == (200, want_a)
            status, body = server.request(
                "POST", "/v1/models/m:swap", {"path": str(b_path)}
            )
            assert status == 200
            assert body["swapped"] is True and body["generation"] == 2
            status, body = server.request(
                "POST", "/v1/models/m:predict", {"features": probe}
            )
            assert (status, body["prediction"]) == (200, want_b)
            status, body = server.request(
                "POST", "/v1/models/m:swap", {"path": str(tmp_path / "missing.npz")}
            )
            assert status == 400 and "swap failed" in body["error"]


# -- kill -9 crash safety (subprocess) -----------------------------------------

#: Runs the CLI (``argv[4:]``) with a parking spot between building a
#: swapped-in engine and the registry's pointer flip: once the engine
#: for the artifact named ``argv[1]`` is built, touch the marker file
#: ``argv[2]``, then sleep ``argv[3]`` seconds before handing it over.
_PARKING_LAUNCHER = """
import sys, time
from pathlib import Path
from repro.experiments.__main__ import main
from repro.serve import InferenceEngine

park_name, marker, hold = sys.argv[1], Path(sys.argv[2]), float(sys.argv[3])
build = InferenceEngine.from_path

def from_path(path):
    engine = build(path)
    if Path(path).name == park_name:
        marker.touch()
        time.sleep(hold)
    return engine

InferenceEngine.from_path = staticmethod(from_path)
sys.exit(main(sys.argv[4:]))
"""


def _spawn_server(models: dict, park: tuple | None = None):
    """Start ``repro serve-http`` in a subprocess; return (proc, host, port).

    ``park=(artifact_name, marker_path, hold_s)`` starts it through
    :data:`_PARKING_LAUNCHER` instead.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if park is None:
        args = [sys.executable, "-m", "repro.experiments"]
    else:
        args = [sys.executable, "-c", _PARKING_LAUNCHER, *map(str, park)]
    args += ["serve-http", "--port", "0"]
    for name, path in models.items():
        args += ["--model", f"{name}={path}"]
    proc = subprocess.Popen(
        args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    line = proc.stdout.readline()  # "serving N model(s) on http://host:port"
    match = re.search(r"http://([\d.]+):(\d+)", line)
    if not match:
        proc.kill()
        proc.wait(timeout=30)
        raise AssertionError(
            f"server did not announce a port: {line!r}\n{proc.stderr.read()}"
        )
    return proc, match.group(1), int(match.group(2))


def _close_pipes(proc):
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def _post(host, port, path, payload, timeout=30.0):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            "POST",
            path,
            body=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


class TestKillDuringSwap:
    def test_kill9_mid_swap_leaves_the_old_model_serving(
        self, pipeline_a, pipeline_b, tmp_path
    ):
        a_path, b_path = tmp_path / "a.npz", tmp_path / "b.npz"
        save_model(pipeline_a, a_path)
        save_model(pipeline_b, b_path)
        a_bytes, b_bytes = a_path.read_bytes(), b_path.read_bytes()
        probe = [2.5]
        want_a = json_scalar(InferenceEngine.from_path(a_path).predict_one(probe))
        # The probe tells the generations apart, so a swap that completes
        # before the kill shows in the parked predict below.
        assert want_a != _transcript(pipeline_b, [probe])[0]

        # Park the server mid-swap: new engine built, pointer NOT yet
        # flipped, then SIGKILL — the worst possible instant.
        marker = tmp_path / "parked"
        proc, host, port = _spawn_server(
            {"m": a_path}, park=(b_path.name, marker, 30)
        )
        try:
            status, body = _post(host, port, "/v1/models/m:predict", {"features": probe})
            assert (status, body["prediction"]) == (200, want_a)

            def fire_swap():
                try:
                    _post(
                        host, port, "/v1/models/m:swap",
                        {"path": str(b_path)}, timeout=60.0,
                    )
                except Exception:
                    pass  # the server dies mid-request by design

            swapper = threading.Thread(target=fire_swap, daemon=True)
            swapper.start()
            deadline = time.monotonic() + 30.0
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert marker.exists(), "the swap never built the new engine"
            # Parked: the new engine is built, but the old one still
            # answers — the flip has not happened.
            status, body = _post(host, port, "/v1/models/m:predict", {"features": probe})
            assert (status, body["prediction"]) == (200, want_a)
            proc.kill()  # SIGKILL: no handlers, no cleanup, nothing
            proc.wait(timeout=30)
            swapper.join(timeout=30)
            assert not swapper.is_alive()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            _close_pipes(proc)

        # Swaps never write: both artifacts are byte-identical on disk.
        assert a_path.read_bytes() == a_bytes
        assert b_path.read_bytes() == b_bytes

        # A restart with the original configuration serves the old
        # model — and a clean swap still works afterwards.
        proc2, host2, port2 = _spawn_server({"m": a_path})
        try:
            status, body = _post(
                host2, port2, "/v1/models/m:predict", {"features": probe}
            )
            assert (status, body["prediction"]) == (200, want_a)
            status, body = _post(
                host2, port2, "/v1/models/m:swap", {"path": str(b_path)}
            )
            assert status == 200 and body["generation"] == 2
        finally:
            proc2.send_signal(signal.SIGINT)
            try:
                proc2.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc2.kill()
                proc2.wait(timeout=30)
            _close_pipes(proc2)
        assert proc2.returncode == 0
