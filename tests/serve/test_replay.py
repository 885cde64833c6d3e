"""Replay harness: seeded traces, strict JSONL validation, determinism.

A replay run is only evidence if it is reproducible: the trace
generator must be a pure function of its seed, the JSONL loader must
refuse malformed input with the offending line number (never hang a
replay on garbage), and replaying the same trace twice through the
micro-batcher must yield the same transcript — equal, bit for bit, to
the sequential oracle.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.exceptions import BackpressureError, InvalidParameterError
from repro.serve import (
    InferenceEngine,
    MicroBatcher,
    ModelRegistry,
    TraceRequest,
    generate_trace,
    load_trace,
    oracle_transcript,
    replay,
    replay_async,
    save_trace,
)

SPECS = {"mars": (1, (0.0, 6.28)), "gesture": (4, (0.0, 1.0))}

GOOD_LINE = '{"id": 7, "t": 0.0, "model": "m", "features": [1.0]}'


class TestGenerateTrace:
    def test_seeded_generation_is_reproducible(self):
        first = generate_trace(SPECS, 50, seed=5)
        assert first == generate_trace(SPECS, 50, seed=5)
        assert first != generate_trace(SPECS, 50, seed=6)

    def test_trace_shape(self):
        trace = generate_trace(SPECS, 40, seed=1, rate_hz=100.0)
        assert [req.id for req in trace] == list(range(40))
        times = [req.t for req in trace]
        assert times == sorted(times) and times[0] > 0.0
        assert {req.model for req in trace} == set(SPECS)
        for req in trace:
            num_features, (low, high) = SPECS[req.model]
            assert len(req.features) == num_features
            assert all(low <= v < high for v in req.features)

    def test_validation(self):
        with pytest.raises(InvalidParameterError, match="num_requests"):
            generate_trace(SPECS, 0, seed=1)
        with pytest.raises(InvalidParameterError, match="model"):
            generate_trace({}, 5, seed=1)
        with pytest.raises(InvalidParameterError, match="rate_hz"):
            generate_trace(SPECS, 5, seed=1, rate_hz=0.0)


class TestTraceFiles:
    def test_save_load_roundtrip_is_exact(self, tmp_path):
        trace = generate_trace(SPECS, 25, seed=3)
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(f"# generated trace\n\n{GOOD_LINE}\n")
        trace = load_trace(path)
        assert len(trace) == 1 and trace[0].id == 7

    @pytest.mark.parametrize(
        "line,needle",
        [
            ("{nope", "not valid JSON"),
            ("[1, 2]", "JSON object"),
            ('{"id": 0, "t": 0.0, "model": "m"}', "missing key"),
            (
                '{"id": 0, "t": 0.0, "model": "m", "features": [1.0], "who": 1}',
                "unknown key",
            ),
            (
                '{"id": true, "t": 0.0, "model": "m", "features": [1.0]}',
                "non-negative integer",
            ),
            (
                '{"id": -1, "t": 0.0, "model": "m", "features": [1.0]}',
                "non-negative integer",
            ),
            ('{"id": 0, "t": -0.5, "model": "m", "features": [1.0]}', "non-negative"),
            ('{"id": 0, "t": NaN, "model": "m", "features": [1.0]}', "finite"),
            ('{"id": 0, "t": 0.0, "model": "", "features": [1.0]}', "non-empty string"),
            ('{"id": 0, "t": 0.0, "model": "m", "features": []}', "non-empty list"),
            (
                '{"id": 0, "t": 0.0, "model": "m", "features": [true]}',
                "finite numbers",
            ),
            (
                '{"id": 0, "t": 0.0, "model": "m", "features": [Infinity]}',
                "finite numbers",
            ),
            (
                '{"id": 0, "t": 0.0, "model": "m", "features": ["x"]}',
                "finite numbers",
            ),
            (
                '{"id": 0, "t": 0.0, "model": "m", "features": [1%s]}' % ("0" * 400),
                "finite numbers",
            ),
            ('{"id": 0, "t": 1%s, "model": "m", "features": [1.0]}' % ("0" * 400), "finite"),
        ],
    )
    def test_malformed_line_fails_with_its_line_number(self, tmp_path, line, needle):
        """A bad trace must fail the run immediately and point at the
        line — not hang the replay or crash deep inside numpy."""
        path = tmp_path / "bad.jsonl"
        path.write_text(f"{GOOD_LINE}\n{line}\n")
        with pytest.raises(InvalidParameterError, match="trace line 2") as err:
            load_trace(path)
        assert needle in str(err.value)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(f"{GOOD_LINE}\n{GOOD_LINE}\n")
        with pytest.raises(InvalidParameterError, match="trace line 2.*duplicate id 7"):
            load_trace(path)

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("# nothing here\n\n")
        with pytest.raises(InvalidParameterError, match="no requests"):
            load_trace(path)


class TestReplay:
    def test_replay_is_deterministic_and_matches_oracle(
        self, classification_pipeline, regression_pipeline
    ):
        """Two full replays of the same trace agree with each other and
        with the sequential ground truth."""
        trace = generate_trace(
            {
                "gesture": (classification_pipeline.num_features, (0.0, 1.0)),
                "mars": (1, (0.0, float(2 * np.pi))),
            },
            num_requests=60,
            seed=13,
            rate_hz=1500.0,
        )
        with InferenceEngine(classification_pipeline) as cls_engine, \
                InferenceEngine(regression_pipeline) as reg_engine:
            expected = oracle_transcript(
                trace, {"gesture": cls_engine, "mars": reg_engine}
            )

        def run_once():
            with ModelRegistry() as registry:
                registry.register("gesture", classification_pipeline)
                registry.register("mars", regression_pipeline)

                async def go():
                    batchers = {
                        name: MicroBatcher(registry, name, window_ms=1.0)
                        for name in registry.names()
                    }
                    for batcher in batchers.values():
                        await batcher.start()
                    try:
                        return await replay_async(
                            trace,
                            lambda model, features: batchers[model].submit(features),
                            speedup=200.0,
                        )
                    finally:
                        for batcher in batchers.values():
                            await batcher.stop()

                return asyncio.run(go())

        first, second = run_once(), run_once()
        assert first.errors == {} and second.errors == {}
        assert first.responses == expected
        assert second.responses == expected

    def test_sync_wrapper_reports_latencies(self):
        trace = generate_trace({"m": (1, (0.0, 1.0))}, 10, seed=2, rate_hz=5000.0)

        async def submit(model, features):
            return 42.0

        report = replay(trace, submit, speedup=100.0)
        assert report.responses == [42.0] * 10
        assert report.ok == report.count == 10
        assert len(report.latencies_ms) == 10
        assert report.duration_s > 0.0
        summary = report.summary()
        assert summary["requests"] == 10 and summary["errors"] == 0
        assert summary["p50_ms"] <= summary["p99_ms"]
        assert report.throughput_rps > 0.0

    def test_failures_are_recorded_not_raised(self):
        trace = [
            TraceRequest(id=0, t=0.0, model="m", features=(1.0,)),
            TraceRequest(id=1, t=0.0, model="m", features=(2.0,)),
            TraceRequest(id=2, t=0.0, model="m", features=(3.0,)),
        ]

        async def submit(model, features):
            if features[0] == 1.0:
                raise BackpressureError("queue full")
            if features[0] == 2.0:
                raise ValueError("boom")
            return np.float64(7.5)

        report = replay(trace, submit)
        assert report.rejected == 1
        assert set(report.errors) == {0, 1}
        assert "boom" in report.errors[1]
        assert report.responses == [None, None, 7.5]  # json-normalised
        assert report.ok == 1

    def test_speedup_must_be_positive(self):
        trace = [TraceRequest(id=0, t=0.0, model="m", features=(1.0,))]

        async def submit(model, features):
            return 0.0

        with pytest.raises(InvalidParameterError, match="speedup"):
            replay(trace, submit, speedup=0.0)

    def test_oracle_rejects_unknown_model(self, regression_pipeline):
        trace = [TraceRequest(id=0, t=0.0, model="ghost", features=(1.0,))]
        with InferenceEngine(regression_pipeline) as engine:
            with pytest.raises(InvalidParameterError, match="ghost"):
                oracle_transcript(trace, {"mars": engine})
