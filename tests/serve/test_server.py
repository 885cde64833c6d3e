"""Micro-batcher + HTTP front end: concurrency must be invisible.

The serving tier's keystone contract: any interleaving of concurrent
requests through the adaptive micro-batcher — any batch window, batch
cap, worker count, pipeline family or tie-break policy — answers every
request bit-identically to a sequential ``predict_one`` oracle.  The
HTTP tests then drive the same scheduler through a real socket server:
routing, validation, backpressure (429) and a ≥64-in-flight mixed-model
replay against the sequential transcript.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import logging
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.basis import CircularBasis
from repro.exceptions import BackpressureError, InvalidParameterError
from repro.learning import HDRegressor
from repro.serve import (
    HTTPReplayClient,
    InferenceEngine,
    MicroBatcher,
    ModelRegistry,
    ServerThread,
    TrainedPipeline,
    generate_trace,
    json_scalar,
    oracle_transcript,
    replay_async,
)
from repro.serve.server import ServeServer

#: The three pipeline families the coalescer must be exact for: keyed
#: classification ("zeros" ties), keyless regression (no tie draws at
#: all), and "random"-tie classification (per-record RNG draws — the
#: case that forbids naive batch encoding).
PIPELINES = ["classification_pipeline", "regression_pipeline", "random_tie_pipeline"]


def _rows(pipeline, n, seed):
    rng = np.random.default_rng(seed)
    return rng.random((n, pipeline.num_features))


def _oracle(pipeline, rows):
    """Sequential single-record ground truth, json-normalised."""
    with InferenceEngine(pipeline) as engine:
        return [json_scalar(engine.predict_one(row)) for row in rows]


async def _coalesced(registry, name, rows, *, jitter_seed=None, **knobs):
    """Submit every row concurrently through one MicroBatcher."""
    delays = None
    if jitter_seed is not None:
        delays = np.random.default_rng(jitter_seed).uniform(0.0, 0.008, len(rows))
    async with MicroBatcher(registry, name, **knobs) as batcher:

        async def one(i, row):
            if delays is not None:
                await asyncio.sleep(float(delays[i]))
            return await batcher.submit(row)

        values = await asyncio.gather(*(one(i, r) for i, r in enumerate(rows)))
        stats = dict(batcher.stats)
    return [json_scalar(v) for v in values], stats


class TestCoalescedBitIdentity:
    """Property tests: interleaving → transcript equality, exactly."""

    @pytest.mark.parametrize("pipeline_fixture", PIPELINES)
    @pytest.mark.parametrize(
        "window_ms,max_batch",
        [(0.0, 4), (1.0, 1), (5.0, 32), (2.0, 7)],
    )
    def test_any_knob_setting_matches_sequential_oracle(
        self, request, pipeline_fixture, window_ms, max_batch
    ):
        pipeline = request.getfixturevalue(pipeline_fixture)
        rows = _rows(pipeline, 48, seed=42)
        expected = _oracle(pipeline, rows)
        with ModelRegistry() as registry:
            registry.register("m", pipeline)
            got, stats = asyncio.run(
                _coalesced(
                    registry, "m", rows, window_ms=window_ms, max_batch=max_batch
                )
            )
        assert got == expected
        assert stats["requests"] == len(rows)
        assert stats["max_batch_seen"] <= max_batch

    @pytest.mark.parametrize("pipeline_fixture", PIPELINES)
    @pytest.mark.parametrize("jitter_seed", [0, 1, 2])
    def test_jittered_arrival_orders_are_invisible(
        self, request, pipeline_fixture, jitter_seed
    ):
        """Randomised arrival jitter produces different batch splits —
        and identical answers."""
        pipeline = request.getfixturevalue(pipeline_fixture)
        rows = _rows(pipeline, 32, seed=7)
        expected = _oracle(pipeline, rows)
        with ModelRegistry() as registry:
            registry.register("m", pipeline)
            got, _ = asyncio.run(
                _coalesced(
                    registry, "m", rows, window_ms=3.0, jitter_seed=jitter_seed
                )
            )
        assert got == expected

    @pytest.mark.parametrize("backend", ["gemm", "xor"])
    def test_backend_is_invisible(self, classification_pipeline, backend):
        rows = _rows(classification_pipeline, 40, seed=5)
        expected = _oracle(classification_pipeline, rows)
        with ModelRegistry(backend=backend) as registry:
            registry.register("m", classification_pipeline)
            got, _ = asyncio.run(_coalesced(registry, "m", rows, window_ms=2.0))
        assert got == expected

    def test_random_ties_force_the_per_record_path(self, random_tie_pipeline):
        """Prove the fixture draws real ties: batch encoding (shared RNG
        stream) disagrees with per-record encoding, yet the coalescer
        still reproduces the sequential transcript bit for bit."""
        rows = _rows(random_tie_pipeline, 24, seed=3)
        with InferenceEngine(random_tie_pipeline) as engine:
            batch_bits = engine.encode(rows).data
            row_bits = np.concatenate(
                [engine.encode(row[None]).data for row in rows]
            )
            assert not np.array_equal(batch_bits, row_bits)
            expected = [json_scalar(engine.predict_one(row)) for row in rows]
            coalesced = [json_scalar(v) for v in engine.predict_coalesced(rows)]
        assert coalesced == expected


class TestAdaptiveScheduling:
    def test_lone_request_is_not_taxed_by_the_window(self, regression_pipeline):
        """A huge window must not delay an idle server's lone request."""
        with ModelRegistry() as registry:
            registry.register("m", regression_pipeline)

            async def run():
                async with MicroBatcher(registry, "m", window_ms=500.0) as batcher:
                    loop = asyncio.get_running_loop()
                    begin = loop.time()
                    await batcher.submit([1.25])
                    elapsed = loop.time() - begin
                    return elapsed, dict(batcher.stats)

            elapsed, stats = asyncio.run(run())
        assert elapsed < 0.25  # nowhere near the 500 ms window
        assert stats["batches"] == 1
        assert stats["max_batch_seen"] == 1

    def test_flood_coalesces_into_shared_batches(self, regression_pipeline):
        rows = _rows(regression_pipeline, 32, seed=9)
        with ModelRegistry() as registry:
            registry.register("m", regression_pipeline)
            got, stats = asyncio.run(
                _coalesced(registry, "m", rows, window_ms=50.0, max_batch=8)
            )
        assert got == _oracle(regression_pipeline, rows)
        assert stats["max_batch_seen"] > 1  # concurrency became batch size
        assert stats["max_batch_seen"] <= 8  # ... capped at max_batch
        assert stats["batches"] < len(rows)

    def test_backpressure_rejects_over_admission(self, regression_pipeline):
        rows = _rows(regression_pipeline, 12, seed=1)
        expected = _oracle(regression_pipeline, rows)
        with ModelRegistry() as registry:
            registry.register("m", regression_pipeline)

            async def run():
                async with MicroBatcher(
                    registry, "m", window_ms=20.0, max_queue=1
                ) as batcher:
                    results = await asyncio.gather(
                        *(batcher.submit(r) for r in rows), return_exceptions=True
                    )
                    return results, dict(batcher.stats)

            results, stats = asyncio.run(run())
        rejected = [r for r in results if isinstance(r, BackpressureError)]
        assert rejected, "admission control never fired"
        assert stats["rejected"] == len(rejected)
        for got, want in zip(results, expected):
            if not isinstance(got, BaseException):
                assert json_scalar(got) == want  # served answers still exact

    def test_admit_reserves_all_rows_or_none(self, regression_pipeline):
        with ModelRegistry() as registry:
            registry.register("m", regression_pipeline)

            async def run():
                async with MicroBatcher(registry, "m", max_queue=4) as batcher:
                    with batcher.admit(4) as slots:
                        with pytest.raises(BackpressureError):
                            with batcher.admit(1):
                                pass
                        with pytest.raises(BackpressureError):
                            await batcher.submit([0.5])  # reserved slots count
                        value = await batcher.submit([1.25], slots)
                    # The three unspent slots went back on exit.
                    assert (batcher._pending, batcher._reserved) == (0, 0)
                    with pytest.raises(RuntimeError, match="spent"):
                        await batcher.submit([1.25], slots)
                    with batcher.admit(4):
                        pass
                    with pytest.raises(InvalidParameterError, match="max_queue=4"):
                        with batcher.admit(5):
                            pass
                    return value, dict(batcher.stats)

            value, stats = asyncio.run(run())
        assert json_scalar(value) == _oracle(regression_pipeline, [[1.25]])[0]
        assert stats["requests"] == 1
        assert stats["rejected"] == 2  # one admit row + one submit, none queued
        assert stats["batch_rows_sum"] == 1

    def test_submit_requires_started_scheduler(self, regression_pipeline):
        with ModelRegistry() as registry:
            registry.register("m", regression_pipeline)

            async def run():
                batcher = MicroBatcher(registry, "m")
                with pytest.raises(RuntimeError, match="start"):
                    await batcher.submit([1.0])

            asyncio.run(run())

    def test_unknown_model_fails_at_construction(self, regression_pipeline):
        with ModelRegistry() as registry:
            registry.register("m", regression_pipeline)
            with pytest.raises(Exception, match="unknown model"):
                MicroBatcher(registry, "nope")


class TestKnobResolution:
    """The scheduling knobs resolve arg > env > built-in."""

    def test_env_knobs_configure_the_batcher(
        self, regression_pipeline, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SERVE_BATCH_WINDOW_MS", "7.5")
        monkeypatch.setenv("REPRO_SERVE_BATCH_MAX", "5")
        monkeypatch.setenv("REPRO_SERVE_MAX_QUEUE", "17")
        with ModelRegistry() as registry:
            registry.register("m", regression_pipeline)
            batcher = MicroBatcher(registry, "m")
        assert batcher.window_s == pytest.approx(0.0075)
        assert batcher.max_batch == 5
        assert batcher.max_queue == 17

    def test_explicit_args_beat_the_environment(
        self, regression_pipeline, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SERVE_BATCH_MAX", "5")
        with ModelRegistry() as registry:
            registry.register("m", regression_pipeline)
            batcher = MicroBatcher(registry, "m", max_batch=3, window_ms=0.0)
        assert batcher.max_batch == 3
        assert batcher.window_s == 0.0


@pytest.fixture
def http_server(classification_pipeline, regression_pipeline):
    registry = ModelRegistry()
    registry.register("gesture", classification_pipeline)
    registry.register("mars", regression_pipeline)
    with ServerThread(registry, window_ms=1.0, own_registry=True) as server:
        yield server


def test_huge_finite_value_wraps_onto_its_level():
    """Any finite JSON number reaches the quantiser: on a 24-level circle
    of period 24, -1e20 sits on level 8 (10**20 % 24 == 16)."""
    emb = CircularBasis(24, 512, seed=0).circular_embedding(period=24.0)
    hours = np.arange(24.0)
    model = HDRegressor(emb, seed=1).fit(emb.encode_packed(hours), hours)
    registry = ModelRegistry()
    registry.register("hours", TrainedPipeline(kind="regression", model=model, embedding=emb))
    with ServerThread(registry, own_registry=True) as server:
        status, body = server.request(
            "POST", "/v1/models/hours:predict", {"records": [[-1e20], [8.0], [1e20]]}
        )
    assert status == 200
    assert body["predictions"] == [8.0, 8.0, 16.0]


class TestHTTPServer:
    def test_healthz(self, http_server):
        status, body = http_server.request("GET", "/healthz")
        assert status == 200
        assert body == {"ok": True, "models": ["gesture", "mars"]}

    def test_model_listing(self, http_server):
        status, body = http_server.request("GET", "/v1/models")
        assert status == 200
        models = body["models"]
        assert models["gesture"]["kind"] == "classification"
        assert models["mars"]["kind"] == "regression"
        assert models["mars"]["num_features"] == 1
        assert all(info["generation"] == 1 for info in models.values())

    def test_predict_single_matches_oracle(
        self, http_server, classification_pipeline
    ):
        rows = _rows(classification_pipeline, 6, seed=21)
        expected = _oracle(classification_pipeline, rows)
        for row, want in zip(rows, expected):
            status, body = http_server.request(
                "POST",
                "/v1/models/gesture:predict",
                {"features": [float(v) for v in row]},
            )
            assert status == 200
            assert body == {"model": "gesture", "prediction": want}

    def test_predict_records_batch_in_order(self, http_server, regression_pipeline):
        rows = _rows(regression_pipeline, 16, seed=22)
        expected = _oracle(regression_pipeline, rows)
        status, body = http_server.request(
            "POST",
            "/v1/models/mars:predict",
            {"records": [[float(v) for v in row] for row in rows]},
        )
        assert status == 200
        assert body == {"model": "mars", "predictions": expected}

    @pytest.mark.parametrize(
        "method,path,payload,status,needle",
        [
            ("POST", "/v1/models/nope:predict", {"features": [1.0]}, 404, "unknown model"),
            ("GET", "/v1/odd/route", None, 404, "unknown route"),
            ("GET", "/v1/models/mars:predict", None, 405, "POST-only"),
            ("POST", "/healthz", {}, 405, "GET-only"),
            ("POST", "/v1/models/mars:predict", {}, 400, "'features' or 'records'"),
            (
                "POST",
                "/v1/models/mars:predict",
                {"features": [1.0], "records": [[1.0]]},
                400,
                "not both",
            ),
            ("POST", "/v1/models/mars:predict", {"features": [1.0, 2.0]}, 400, "feature"),
            ("POST", "/v1/models/mars:predict", {"features": ["x"]}, 400, "finite"),
            ("POST", "/v1/models/mars:predict", {"records": []}, 400, "non-empty"),
            ("POST", "/v1/models/mars:swap", {}, 400, "'path'"),
        ],
    )
    def test_error_mapping(self, http_server, method, path, payload, status, needle):
        got_status, body = http_server.request(method, path, payload)
        assert got_status == status
        assert needle in body["error"]

    def test_non_json_body_is_a_400(self, http_server):
        conn = http.client.HTTPConnection(
            http_server.host, http_server.port, timeout=10
        )
        try:
            conn.request(
                "POST",
                "/v1/models/mars:predict",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()
        assert response.status == 400
        assert "not JSON" in body["error"]

    def test_keep_alive_serves_many_requests_per_connection(self, http_server):
        conn = http.client.HTTPConnection(
            http_server.host, http_server.port, timeout=10
        )
        try:
            for _ in range(5):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()


class _GatedEngine(InferenceEngine):
    """An engine whose coalesced predicts wait for ``gate`` — holds a
    batch in flight for exactly as long as a test needs."""

    def __init__(self, pipeline, gate):
        super().__init__(pipeline)
        self.gate = gate

    def predict_coalesced(self, records):
        assert self.gate.wait(timeout=30), "gate never opened"
        return super().predict_coalesced(records)


def _spy_on_responses(monkeypatch):
    """Record ``(status, pending, requests, batch rows)`` of the model
    ``mars`` at the instant each response is written."""
    seen = []
    write = ServeServer._write_response

    async def spy(self, writer, status, payload, keep_alive):
        batcher = self._batchers["mars"]
        seen.append(
            (
                status,
                batcher._pending,
                batcher.stats["requests"],
                batcher.stats["batch_rows_sum"],
            )
        )
        await write(self, writer, status, payload, keep_alive)

    monkeypatch.setattr(ServeServer, "_write_response", spy)
    return seen


def _records(n, offset=0):
    return {"records": [[float(i + offset)] for i in range(n)]}


class TestHTTPBackpressure:
    def test_records_beyond_max_queue_get_429(self, regression_pipeline, monkeypatch):
        """A records request that fits max_queue but not the slots left
        is refused whole: 429, no row queued, nothing computed for it,
        and the server keeps serving afterwards."""
        seen = _spy_on_responses(monkeypatch)
        gate = threading.Event()
        registry = ModelRegistry()
        registry.register("mars", _GatedEngine(regression_pipeline, gate))
        with ServerThread(
            registry, window_ms=1.0, max_queue=8, own_registry=True
        ) as server:
            held = []
            first = threading.Thread(
                target=lambda: held.append(
                    server.request("POST", "/v1/models/mars:predict", _records(6))
                )
            )
            first.start()
            try:
                deadline = time.monotonic() + 30
                while server.server.stats()["mars"]["requests"] < 6:
                    assert time.monotonic() < deadline, "6-row request never admitted"
                    time.sleep(0.001)
                status, body = server.request(
                    "POST", "/v1/models/mars:predict", _records(4, offset=10)
                )
            finally:
                gate.set()
                first.join(timeout=30)
            assert status == 429
            assert body["backpressure"] is True
            assert "max_queue" in body["error"]
            # Written while the 6-row batch was held: not one of the 4
            # rows was admitted or dispatched.
            assert seen[0] == (429, 6, 6, 6)
            status, body = server.request(
                "POST", "/v1/models/mars:predict", {"features": [1.25]}
            )
            assert status == 200  # admission recovered after the burst
            stats = server.server.stats()["mars"]
        assert held[0][0] == 200
        assert held[0][1]["predictions"] == _oracle(
            regression_pipeline, [[float(i)] for i in range(6)]
        )
        assert stats["rejected"] == 4
        assert stats["requests"] == 7
        assert stats["batch_rows_sum"] == 7  # the refused rows never ran

    def test_records_over_max_queue_get_413_and_compute_nothing(
        self, regression_pipeline, monkeypatch
    ):
        """More rows than max_queue can never be admitted: 413, and not
        one row is queued or computed before the error is written."""
        seen = _spy_on_responses(monkeypatch)
        registry = ModelRegistry()
        registry.register("mars", regression_pipeline)
        with ServerThread(
            registry, window_ms=1.0, max_queue=8, own_registry=True
        ) as server:
            status, body = server.request(
                "POST", "/v1/models/mars:predict", _records(64)
            )
            assert status == 413
            assert "max_queue=8" in body["error"]
            assert seen == [(413, 0, 0, 0)]
            status, _ = server.request(
                "POST", "/v1/models/mars:predict", _records(8)
            )
            assert status == 200  # a request that fits is still served
            stats = server.server.stats()["mars"]
        assert stats["requests"] == stats["batch_rows_sum"] == 8

    def test_concurrent_clients_see_429_not_unbounded_queueing(
        self, regression_pipeline
    ):
        registry = ModelRegistry()
        registry.register("mars", regression_pipeline)
        with ServerThread(
            registry, window_ms=25.0, max_queue=1, own_registry=True
        ) as server:

            def one(i):
                return server.request(
                    "POST", "/v1/models/mars:predict", {"features": [float(i)]}
                )

            with ThreadPoolExecutor(max_workers=16) as pool:
                outcomes = list(pool.map(one, range(48)))
        statuses = {status for status, _ in outcomes}
        assert statuses <= {200, 429}
        assert 200 in statuses  # some traffic was served...
        assert 429 in statuses  # ... and the overload was refused, not buffered


class TestConcurrentReplayHTTP:
    def test_64_plus_in_flight_mixed_models_bit_identical(
        self, classification_pipeline, regression_pipeline
    ):
        """The acceptance property, over a real socket: ≥64 concurrent
        in-flight requests across two models, transcript exactly equal
        to the sequential oracle."""
        trace = generate_trace(
            {
                "gesture": (classification_pipeline.num_features, (0.0, 1.0)),
                "mars": (1, (0.0, float(2 * np.pi))),
            },
            num_requests=96,
            seed=29,
            rate_hz=2000.0,
        )
        with InferenceEngine(classification_pipeline) as cls_engine, \
                InferenceEngine(regression_pipeline) as reg_engine:
            expected = oracle_transcript(
                trace, {"gesture": cls_engine, "mars": reg_engine}
            )
        registry = ModelRegistry()
        registry.register("gesture", classification_pipeline)
        registry.register("mars", regression_pipeline)
        with ServerThread(registry, window_ms=2.0, own_registry=True) as server:

            async def run():
                gauge = {"now": 0, "peak": 0}
                async with HTTPReplayClient(
                    server.host, server.port, connections=32
                ) as client:

                    async def submit(model, features):
                        gauge["now"] += 1
                        gauge["peak"] = max(gauge["peak"], gauge["now"])
                        try:
                            return await client.submit(model, features)
                        finally:
                            gauge["now"] -= 1

                    report = await replay_async(trace, submit, speedup=1000.0)
                return report, gauge["peak"]

            report, peak = asyncio.run(run())
            stats = server.server.stats()
        assert report.errors == {}
        assert peak >= 64, f"only {peak} requests were concurrently in flight"
        assert report.responses == expected  # bit-identical, every request
        assert sum(s["requests"] for s in stats.values()) == len(trace)
        assert max(s["max_batch_seen"] for s in stats.values()) > 1


class TestShutdown:
    def test_stop_with_open_keep_alive_client_is_clean(
        self, regression_pipeline, caplog, monkeypatch
    ):
        """Stopping while a keep-alive client holds its connection open
        closes that connection and leaves no pending handler task or
        closed-loop error behind."""
        unraisable = []
        monkeypatch.setattr(
            sys, "unraisablehook", lambda info: unraisable.append(info.exc_value)
        )
        registry = ModelRegistry()
        registry.register("mars", regression_pipeline)
        server = ServerThread(registry, own_registry=True).start()
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
            with caplog.at_level(logging.DEBUG, logger="asyncio"):
                server.stop()
                gc.collect()
            assert conn.sock.recv(1) == b""  # the server closed our socket
        finally:
            conn.close()
        assert unraisable == []
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []
