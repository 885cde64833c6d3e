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
import os
import socket
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.basis import CircularBasis
from repro.exceptions import BackpressureError, InvalidParameterError
from repro.learning import CentroidClassifier, HDRegressor
from repro.runtime import BatchEncoder
from repro.serve import (
    InferenceEngine,
    MicroBatcher,
    ModelRegistry,
    ServerThread,
    TrainedPipeline,
    json_scalar,
    oracle_transcript,
)
from repro.serve.batching import DEFAULT_BATCH_MAX, DEFAULT_BATCH_WINDOW_MS, DEFAULT_MAX_QUEUE
from repro.serve.server import ServeServer

from .http_load import mixed_trace, post_all

#: The three pipeline families the coalescer must be exact for: keyed
#: classification ("zeros" ties), keyless regression (no encode at
#: all), and "alternate"-tie classification (ties that set bits).
PIPELINES = ["classification_pipeline", "regression_pipeline", "alternate_tie_pipeline"]


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

    def test_either_kernel_side_is_exact(self, classification_pipeline, kernel_side):
        rows = _rows(classification_pipeline, 40, seed=5)
        expected = _oracle(classification_pipeline, rows)
        with ModelRegistry() as registry:
            registry.register("m", classification_pipeline)
            got, _ = asyncio.run(_coalesced(registry, "m", rows, window_ms=2.0))
        assert got == expected

    def test_tied_records_batch_encode_exactly(self, alternate_tie_pipeline):
        """Prove the fixture draws real ties (its bits differ from the
        "zeros" policy), yet one batch encode equals per-record encodes
        and the coalescer reproduces the sequential transcript."""
        rows = _rows(alternate_tie_pipeline, 24, seed=3)
        with InferenceEngine(alternate_tie_pipeline) as engine:
            batch_bits = engine.encode(rows).data
            row_bits = np.concatenate(
                [engine.encode(row[None]).data for row in rows]
            )
            assert np.array_equal(batch_bits, row_bits)
            zeros = BatchEncoder(
                alternate_tie_pipeline.keys, alternate_tie_pipeline.embedding,
                tie_break="zeros",
            )
            assert not np.array_equal(batch_bits, zeros.encode(rows, packed=True).data)
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

    def test_records_are_admitted_all_or_none(self, regression_pipeline):
        with ModelRegistry() as registry:
            registry.register("m", regression_pipeline)

            async def run():
                async with MicroBatcher(registry, "m", max_queue=4) as batcher:
                    held = batcher.submit_records([[0.5], [0.75], [1.0]])
                    with pytest.raises(BackpressureError, match="has 3 requests"):
                        batcher.submit_records([[0.5], [0.75]])
                    assert len(batcher._queue) == 1  # the refused rows never queued
                    value = await batcher.submit([1.25])  # the last free row
                    await held
                    assert batcher._pending == 0
                    with pytest.raises(InvalidParameterError, match="max_queue=4"):
                        batcher.submit_records([[1.0]] * 5)
                    return value, dict(batcher.stats)

            value, stats = asyncio.run(run())
        assert json_scalar(value) == _oracle(regression_pipeline, [[1.25]])[0]
        assert stats["requests"] == 4
        assert stats["rejected"] == 2  # the 429'd rows; a 413 rejects nothing
        assert stats["batch_rows_sum"] == 4

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


class _CountingEngine(InferenceEngine):
    """Counts ``predict_coalesced`` calls and records the thread each one
    runs on (and ``probe()``, when given); raises on the first ``fail``
    of them."""

    def __init__(self, pipeline, fail=0, probe=None):
        super().__init__(pipeline)
        self.calls = 0
        self.fail = fail
        self.probe = probe
        self.threads = []
        self.probed = []

    def predict_coalesced(self, records):
        self.calls += 1
        self.threads.append(threading.get_ident())
        if self.probe is not None:
            self.probed.append(self.probe())
        if self.calls <= self.fail:
            raise InvalidParameterError("engine fault")
        return super().predict_coalesced(records)


class _BatchGate:
    """Holds every batch in flight, once its rows are taken and counted,
    until :meth:`open` — for exactly as long as a test needs.  The batch
    waits on the event loop, so the loop (and the HTTP front end on it)
    keeps running meanwhile."""

    def __init__(self, monkeypatch):
        self.held = 0
        self._event = asyncio.Event()
        self._loop = None
        collect = MicroBatcher._collect

        async def held(batcher):
            spans = await collect(batcher)
            self._loop = asyncio.get_running_loop()
            self.held += 1
            await self._event.wait()
            return spans

        monkeypatch.setattr(MicroBatcher, "_collect", held)

    def open(self):
        """Release every held batch, and every later one; any thread."""
        if self._loop is None:
            self._event.set()
        else:
            self._loop.call_soon_threadsafe(self._event.set)


async def _until(predicate):
    """Yield to the event loop until ``predicate()`` holds."""
    deadline = time.monotonic() + 30
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.001)


class TestRequestQueue:
    """A records request is one queued entry with one future, packed
    into batches of at most ``max_batch`` rows."""

    def test_request_splits_across_batches_and_resolves_once(
        self, classification_pipeline
    ):
        rows = _rows(classification_pipeline, 64, seed=31)
        with ModelRegistry() as registry:
            registry.register("m", classification_pipeline)

            async def run():
                async with MicroBatcher(registry, "m", max_batch=32) as batcher:
                    future = batcher.submit_records(rows)
                    assert isinstance(future, asyncio.Future)
                    assert len(batcher._queue) == 1  # one entry, not 64
                    values = await future
                    return values, batcher._pending, dict(batcher.stats)

            values, pending, stats = asyncio.run(run())
        assert [json_scalar(v) for v in values] == _oracle(classification_pipeline, rows)
        assert stats["batches"] == 2
        assert stats["max_batch_seen"] == 32
        assert stats["batch_rows_sum"] == 64
        assert stats["requests"] == 64  # counters count rows ...
        assert sum(stats["latency_buckets"]) == 1  # ... latency, requests
        assert pending == 0

    def test_engine_error_fails_the_request_once_and_skips_its_tail(
        self, regression_pipeline
    ):
        engine = _CountingEngine(regression_pipeline, fail=1)
        with ModelRegistry() as registry:
            registry.register("m", engine)

            async def run():
                async with MicroBatcher(registry, "m", max_batch=32) as batcher:
                    future = batcher.submit_records(_rows(regression_pipeline, 64, 2))
                    with pytest.raises(InvalidParameterError, match="engine fault"):
                        await future
                    # The scheduler keeps serving after the fault.
                    value = await batcher.submit([1.25])
                    return value, batcher._pending, dict(batcher.stats)

            value, pending, stats = asyncio.run(run())
        assert json_scalar(value) == _oracle(regression_pipeline, [[1.25]])[0]
        assert engine.calls == 2  # the failed span, then the single row
        assert stats["batch_rows_sum"] == 32 + 1  # the second span never ran
        assert pending == 0

    def test_cancelled_requests_compute_no_more_rows(
        self, regression_pipeline, monkeypatch
    ):
        """Cancel one request mid-split and one still queued: neither
        computes another row, and the pending count returns to 0."""
        gate = _BatchGate(monkeypatch)
        engine = _CountingEngine(regression_pipeline)
        with ModelRegistry() as registry:
            registry.register("m", engine)

            async def run():
                async with MicroBatcher(registry, "m", max_batch=32) as batcher:
                    split = batcher.submit_records(_rows(regression_pipeline, 64, 3))
                    await _until(lambda: batcher.stats["batches"] == 1)
                    assert gate.held == 1  # the first span is in flight
                    queued = batcher.submit_records(_rows(regression_pipeline, 8, 4))
                    split.cancel()
                    queued.cancel()
                    await asyncio.sleep(0)  # run the futures' done callbacks
                    assert batcher._pending == 0
                    gate.open()
                    value = await batcher.submit([1.25])
                    return value, dict(batcher.stats)

            value, stats = asyncio.run(run())
        assert json_scalar(value) == _oracle(regression_pipeline, [[1.25]])[0]
        assert engine.calls == 2
        assert stats["batch_rows_sum"] == 32 + 1

    def test_stop_waits_for_the_request_in_flight(
        self, regression_pipeline, monkeypatch
    ):
        gate = _BatchGate(monkeypatch)
        with ModelRegistry() as registry:
            registry.register("m", _CountingEngine(regression_pipeline))

            async def run():
                batcher = await MicroBatcher(registry, "m").start()
                future = batcher.submit_records([[0.5], [1.0]])
                stopping = asyncio.ensure_future(batcher.stop())
                await asyncio.sleep(0.05)
                assert gate.held == 1  # the batch is in flight ...
                assert not stopping.done()  # ... and stop() waits on its answer
                gate.open()
                await stopping
                return await future

            values = asyncio.run(run())
        assert [json_scalar(v) for v in values] == _oracle(
            regression_pipeline, [[0.5], [1.0]]
        )


class TestLoopThreadDispatch:
    """Batches run on the event loop's own thread, one at a time."""

    def test_server_predicts_on_the_loop_thread(self, regression_pipeline):
        engine = _CountingEngine(regression_pipeline)
        registry = ModelRegistry()
        registry.register("mars", engine)
        with ServerThread(
            registry, window_ms=1.0, max_batch=4, own_registry=True
        ) as server:
            loop_thread = server._thread.ident
            for n in (1, 3, 10):
                status, _ = server.request(
                    "POST", "/v1/models/mars:predict", _records(n)
                )
                assert status == 200
        assert engine.calls == 1 + 1 + 3  # 10 rows split 4 + 4 + 2
        assert set(engine.threads) == {loop_thread}
        assert loop_thread != threading.get_ident()

    def test_scheduler_yields_between_batches(self, regression_pipeline):
        """A 128-row request splits into four 32-row batches; a ticker
        coroutine must run between every two of them, or one request
        could hold the loop (and every HTTP handler) for all four."""
        ticks = [0]
        engine = _CountingEngine(regression_pipeline, probe=lambda: ticks[0])
        with ModelRegistry() as registry:
            registry.register("m", engine)

            async def run():
                async def ticker():
                    while True:
                        ticks[0] += 1
                        await asyncio.sleep(0)

                async with MicroBatcher(registry, "m", max_batch=32) as batcher:
                    task = asyncio.ensure_future(ticker())
                    values = await batcher.submit_records(
                        _rows(regression_pipeline, 128, 5)
                    )
                    task.cancel()
                    return values, dict(batcher.stats)

            values, stats = asyncio.run(run())
        assert len(values) == 128
        assert stats["batches"] == engine.calls == 4
        probed = engine.probed
        assert all(b > a for a, b in zip(probed, probed[1:])), probed


class TestKnobResolution:
    """The scheduling knobs are arguments whose defaults are the built-ins."""

    def test_built_ins_configure_an_unconfigured_batcher(self, regression_pipeline):
        with ModelRegistry() as registry:
            registry.register("m", regression_pipeline)
            batcher = MicroBatcher(registry, "m")
        assert batcher.window_s == pytest.approx(DEFAULT_BATCH_WINDOW_MS / 1e3)
        assert batcher.max_batch == DEFAULT_BATCH_MAX
        assert batcher.max_queue == DEFAULT_MAX_QUEUE

    def test_explicit_args_configure_the_batcher(self, regression_pipeline):
        with ModelRegistry() as registry:
            registry.register("m", regression_pipeline)
            batcher = MicroBatcher(
                registry, "m", window_ms=7.5, max_batch=5, max_queue=17
            )
            assert MicroBatcher(registry, "m", window_ms=0.0).window_s == 0.0
        assert batcher.window_s == pytest.approx(0.0075)
        assert batcher.max_batch == 5
        assert batcher.max_queue == 17


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


def _post_raw(server, path, body: bytes):
    """POST ``body`` verbatim (it may not be valid JSON output)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


_HUGE_INT = "1" + "0" * 400  # a JSON integer beyond float64's range

#: Bad predict bodies for the one-feature model ``mars`` and the exact
#: error each gets: the first bad record is named, whatever breaks it.
BAD_BODIES = [
    pytest.param('{"records": [[1.0], [true]]}', "record 1 must be a list of finite numbers", id="bool"),
    pytest.param('{"records": [[1.0], ["1.5"]]}', "record 1 must be a list of finite numbers", id="string"),
    pytest.param('{"records": [[null]]}', "record 0 must be a list of finite numbers", id="null"),
    pytest.param('{"records": [[1.0], [[1.0]]]}', "record 1 must be a list of finite numbers", id="nested"),
    pytest.param('{"records": [[1.0], 1.0]}', "record 1 must be a list of finite numbers", id="scalar-row"),
    pytest.param('{"records": [[1.0], [1.0, 2.0]]}', "record 1 has 2 feature(s); model 'mars' takes 1", id="ragged"),
    pytest.param('{"records": [[1.0], []]}', "record 1 must be a list of finite numbers", id="empty-row"),
    pytest.param('{"records": [[1.0], [NaN]]}', "record 1 must be a list of finite numbers", id="nan"),
    pytest.param('{"records": [[1e400]]}', "record 0 must be a list of finite numbers", id="1e400"),
    pytest.param('{"records": [[2.0, 1.0]]}', "record 0 has 2 feature(s); model 'mars' takes 1", id="arity"),
    pytest.param('{"records": [[1.0], [2.0, "x"], [true]]}', "record 1 must be a list of finite numbers", id="first-bad-wins"),
    pytest.param('{"records": [[1.0, 2.0], [true]]}', "record 0 has 2 feature(s); model 'mars' takes 1", id="arity-before-bool"),
    pytest.param('{"records": {"a": [1.0]}}', "'records' must be a non-empty list of rows", id="records-dict"),
    pytest.param('{"features": [true]}', "record 0 must be a list of finite numbers", id="features-bool"),
    pytest.param('{"features": 1.0}', "record 0 must be a list of finite numbers", id="features-scalar"),
    pytest.param('{"features": [Infinity]}', "record 0 must be a list of finite numbers", id="features-inf"),
    pytest.param('{"features": []}', "record 0 must be a list of finite numbers", id="features-empty"),
    pytest.param('{"features": [1.0, 2.0]}', "record 0 has 2 feature(s); model 'mars' takes 1", id="features-arity"),
    pytest.param('{"features": [%s]}' % _HUGE_INT, "record 0 must be a list of finite numbers", id="features-huge-int"),
    pytest.param('{"records": [[1.0], [%s]]}' % _HUGE_INT, "record 1 must be a list of finite numbers", id="records-huge-int"),
]


@pytest.mark.parametrize("body,message", BAD_BODIES)
def test_bad_predict_bodies_name_the_first_bad_record(http_server, body, message):
    """Every malformed body is a 400 with the message naming its first
    bad record, and computes nothing (an integer too large for a float64
    is a bad value too, not a 500)."""
    status, payload = _post_raw(http_server, "/v1/models/mars:predict", body.encode())
    assert (status, payload) == (400, {"error": message})
    assert http_server.server.stats()["mars"]["requests"] == 0


def test_integer_features_are_served_like_floats(http_server, regression_pipeline):
    status, body = http_server.request(
        "POST", "/v1/models/mars:predict", {"records": [[1], [2.0], [3]]}
    )
    assert status == 200
    assert body["predictions"] == _oracle(regression_pipeline, [[1.0], [2.0], [3.0]])


def _post_bytes(server, path, payload):
    """POST ``payload`` as JSON; return the status and the raw body bytes."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request(
            "POST", path, body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _int_label_pipeline():
    """A keyless classifier whose labels are numpy integers, not JSON ones."""
    emb = CircularBasis(16, 256, seed=2).circular_embedding(period=16.0)
    x = np.arange(64) % 16 + 0.25
    labels = [np.int64(v // 4) for v in x]
    clf = CentroidClassifier(dim=256, seed=4).fit(emb.encode_packed(x), labels)
    return TrainedPipeline(kind="classification", model=clf, embedding=emb)


@pytest.mark.parametrize(
    "make_pipeline",
    [
        lambda request: request.getfixturevalue("regression_pipeline"),
        lambda request: request.getfixturevalue("classification_pipeline"),
        lambda request: _int_label_pipeline(),
    ],
    ids=["regressor", "string-label classifier", "numpy-int-label classifier"],
)
def test_records_body_bytes_equal_json_scalar_serialisation(request, make_pipeline):
    """A records response is the bytes of mapping every answer through
    ``json_scalar``, though the server no longer calls it per value."""
    pipeline = make_pipeline(request)
    rows = _rows(pipeline, 40, seed=31)
    with InferenceEngine(pipeline) as engine:
        answers = engine.predict(rows)
    expected = json.dumps(
        {"model": "m", "predictions": [json_scalar(v) for v in answers]}
    ) + "\n"
    registry = ModelRegistry()
    registry.register("m", pipeline)
    with ServerThread(registry, window_ms=1.0, own_registry=True) as server:
        status, body = _post_bytes(
            server, "/v1/models/m:predict", {"records": rows.tolist()}
        )
    assert status == 200
    assert body == expected.encode("utf-8")


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

    @pytest.mark.parametrize(
        "raw,status,needle",
        [
            (b"GARBAGE\r\n\r\n", 400, "malformed request line"),
            (b"GET /healthz\r\n\r\n", 400, "malformed request line"),
            (b"GET /healthz FTP/1.0\r\n\r\n", 400, "malformed request line"),
            (
                b"POST /v1/models/mars:predict HTTP/1.1\r\nContent-Length: many\r\n\r\n",
                400,
                "malformed Content-Length",
            ),
            (
                b"POST /v1/models/mars:predict HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
                400,
                "malformed Content-Length",
            ),
            (
                b"POST /v1/models/mars:predict HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n",
                413,
                "request body exceeds",
            ),
            (
                b"POST /v1/models/mars:predict HTTP/1.1\r\nContent-Length: +1\r\n\r\n{",
                400,
                "malformed Content-Length",
            ),
            (
                b"POST /v1/models/mars:predict HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n",
                400,
                "malformed Content-Length",
            ),
            (
                b"POST /v1/models/mars:predict HTTP/1.1\r\nContent-Length:\r\n\r\n",
                400,
                "malformed Content-Length",
            ),
            (
                b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
                414,
                "request line exceeds 65536 bytes",
            ),
            (
                b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
                431,
                "header line exceeds 65536 bytes",
            ),
            (
                b"GET /healthz HTTP/1.1\r\n" + b"X-N: 1\r\n" * 101 + b"\r\n",
                431,
                "more than 100 header fields",
            ),
            (
                b"POST /v1/models/mars:predict HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
                501,
                "Transfer-Encoding is not supported",
            ),
        ],
        ids=[
            "request-line", "no-version", "not-http", "content-length",
            "negative-length", "oversized-body", "signed-length",
            "underscored-length", "empty-length", "long-request-line",
            "long-header-line", "too-many-headers", "chunked",
        ],
    )
    def test_malformed_head_is_answered_then_closed(self, http_server, raw, status, needle):
        head, body = _exchange_raw(http_server, raw)
        assert head[0].split()[1] == str(status)
        assert "Connection: close" in head[1:]
        assert needle in json.loads(body)["error"]

    def test_sent_oversized_body_still_gets_its_413(self, http_server):
        """The server reads and drops the unread body after answering, so
        closing does not reset the connection under the 413."""
        body = b"[" + b"0," * (1 << 20) + b"0]"
        raw = (
            b"POST /v1/models/mars:predict HTTP/1.1\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        ) + body
        head, payload = _exchange_raw(http_server, raw)
        assert head[0].split()[1] == "413"
        assert "request body exceeds" in json.loads(payload)["error"]
        assert http_server.request("GET", "/healthz")[0] == 200

    def test_stop_ends_a_lingering_connection(self, regression_pipeline):
        """A client that keeps its socket open after a bad head does not
        hold up shutdown for the linger time."""
        registry = ModelRegistry()
        registry.register("mars", regression_pipeline)
        server = ServerThread(registry, own_registry=True).start()
        try:
            with socket.create_connection((server.host, server.port), timeout=10) as sock:
                sock.sendall(b"GARBAGE\r\n\r\n")
                assert sock.recv(4096).startswith(b"HTTP/1.1 400")
                started = time.perf_counter()
                server.stop()
                assert time.perf_counter() - started < 1.0
        finally:
            server.stop()

    @pytest.mark.parametrize(
        "raw",
        [
            b"get /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /healthz?verbose=1 HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /healthz HTTP/1.0\nConnection: close\n\n",
            b"GET /healthz HTTP/1.1\r\nNo-Colon-Here\r\nConnection: close\r\n\r\n",
            b"POST /v1/models/mars:predict HTTP/1.1\r\nconnection: CLOSE\r\n"
            b"CONTENT-length: 20\r\n\r\n{\"features\": [1.5]}\n",
        ],
        ids=["lowercase-method", "query-string", "bare-lf", "no-colon-header", "header-case"],
    )
    def test_lenient_heads_are_served(self, http_server, raw):
        head, body = _exchange_raw(http_server, raw)
        assert head[0].split()[1] == "200"
        assert "Connection: close" in head[1:]
        assert "error" not in json.loads(body)

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


def _exchange_raw(server, raw: bytes) -> tuple[list[str], bytes]:
    """Send ``raw`` on a fresh socket and read until the server closes:
    the response's head lines and its body."""
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(raw)
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    return head.decode("latin-1").split("\r\n"), body


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
        gate = _BatchGate(monkeypatch)
        registry = ModelRegistry()
        registry.register("mars", _CountingEngine(regression_pipeline))
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
                while gate.held < 1:
                    assert time.monotonic() < deadline, "6-row batch never held"
                    time.sleep(0.001)
                status, body = server.request(
                    "POST", "/v1/models/mars:predict", _records(4, offset=10)
                )
            finally:
                gate.open()
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
        trace = mixed_trace(
            {
                "gesture": (classification_pipeline.num_features, 0.0, 1.0),
                "mars": (1, 0.0, float(2 * np.pi)),
            },
            n=96,
            seed=29,
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
            # One connection per request: every request is on the wire at once.
            answers, peak = asyncio.run(
                post_all(server.host, server.port, trace, connections=len(trace))
            )
            stats = server.server.stats()
        assert [status for status, _ in answers] == [200] * len(trace)
        assert peak >= 64, f"only {peak} requests were concurrently in flight"
        # bit-identical, every request
        assert [body["prediction"] for _, body in answers] == expected
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


class TestStartup:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_port_in_use_raises_from_start_and_leaves_nothing_open(
        self, regression_pipeline
    ):
        registry = ModelRegistry()
        registry.register("mars", regression_pipeline)
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            server = ServerThread(registry, port=taken.getsockname()[1])
            fds = set(os.listdir("/proc/self/fd"))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(OSError):
                    server.start()
                gc.collect()
            assert set(os.listdir("/proc/self/fd")) == fds  # no listener left open
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert "repro-serve-http" not in {t.name for t in threading.enumerate()}
