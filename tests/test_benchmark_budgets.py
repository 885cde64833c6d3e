"""The perf budgets the benchmark scripts gate, and the gates themselves.

Each latency, memory or speedup budget is checked by exactly one script
under ``benchmarks/`` (CI runs them with ``--fast``; the table is in
``docs/PERFORMANCE.md``).  These tests pin every limit at or below the
value it was first recorded with, so a budget cannot be loosened
silently, and drive each script's budget check with synthetic summaries
so a miss is reported — without running the (slow) measurements.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCH_DIR) not in sys.path:  # the scripts import their siblings
    sys.path.insert(0, str(BENCH_DIR))


def _script(name: str):
    return importlib.import_module(name)


#: ``(script, constant, recorded limit, kind)``: a ``"max"`` constant may
#: only go down, a ``"min"`` constant only up.
BUDGETS = [
    ("bench_serve_latency", "P50_MS_MAX", 5.0, "max"),
    ("bench_serve_latency", "P99_MS_MAX", 25.0, "max"),
    ("bench_serve_latency", "RATIO_MAX", 1.10, "max"),
    ("bench_stream_memory", "PEAK_RSS_MB_MAX", 160.0, "max"),
    ("bench_stream_memory", "MATERIALISE_GATE", 0.75, "max"),
    ("bench_serve_concurrency", "P50_MS_MAX", 150.0, "max"),
    ("bench_serve_concurrency", "P99_MS_MAX", 400.0, "max"),
    ("bench_kernels_similarity", "GATE_TOLERANCE", 1.25, "max"),
    ("bench_kernels_similarity", "GATE_MIN_SECONDS", 0.002, "max"),
    ("bench_kernels_similarity", "HEADLINE_FLOOR", 5.0, "min"),
]


@pytest.mark.parametrize(
    "script, constant, recorded, kind",
    BUDGETS,
    ids=[f"{s.removeprefix('bench_')}.{c}" for s, c, _, _ in BUDGETS],
)
def test_budget_is_no_looser_than_recorded(script, constant, recorded, kind):
    value = getattr(_script(script), constant)
    if kind == "max":
        assert value <= recorded
    else:
        assert value >= recorded


class TestServeLatencyBudgets:
    PASSING = {"p50_ms": 0.1, "p99_ms": 0.2, "fastpath_vs_batch": 0.95}

    def test_within_budget_passes(self):
        assert _script("bench_serve_latency").budget_failures(self.PASSING) == []

    def test_limits_are_inclusive(self):
        bench = _script("bench_serve_latency")
        at_limit = {"p50_ms": bench.P50_MS_MAX, "p99_ms": bench.P99_MS_MAX,
                    "fastpath_vs_batch": bench.RATIO_MAX}
        assert bench.budget_failures(at_limit) == []

    @pytest.mark.parametrize(
        "key, label",
        [("p50_ms", "p50"), ("p99_ms", "p99"), ("fastpath_vs_batch", "fast path / batch")],
    )
    def test_each_miss_is_reported(self, key, label):
        bench = _script("bench_serve_latency")
        limit = {"p50_ms": bench.P50_MS_MAX, "p99_ms": bench.P99_MS_MAX,
                 "fastpath_vs_batch": bench.RATIO_MAX}[key]
        failures = bench.budget_failures({**self.PASSING, key: limit * 1.01})
        assert len(failures) == 1
        assert label in failures[0]

    def test_routes_are_timed_call_by_call_interleaved(self):
        calls = []

        class Recorder:
            def predict_one(self, row):
                calls.append(("one", np.shape(row)))

            def predict(self, batch):
                calls.append(("batch", np.shape(batch)))

        records = np.arange(15.0).reshape(5, 3)
        fast, batch = _script("bench_serve_latency").time_routes(Recorder(), records, 2)
        assert fast.shape == batch.shape == (2, 5)
        assert (fast > 0).all() and (batch > 0).all()
        timed = calls[6:]  # after three warm-up pairs
        assert timed == [("one", (3,)), ("batch", (1, 3))] * 10


class TestServeConcurrencyBudgets:
    PASSING = {"batched": {"p50_ms": 20.0, "p99_ms": 90.0}}

    def test_within_budget_passes(self):
        assert _script("bench_serve_concurrency").budget_failures(self.PASSING) == []

    @pytest.mark.parametrize("key", ["p50_ms", "p99_ms"])
    def test_each_miss_is_reported(self, key):
        bench = _script("bench_serve_concurrency")
        limit = {"p50_ms": bench.P50_MS_MAX, "p99_ms": bench.P99_MS_MAX}[key]
        summary = {"batched": {**self.PASSING["batched"], key: limit + 1.0}}
        failures = bench.budget_failures(summary)
        assert len(failures) == 1
        assert key in failures[0]


class TestKernelGates:
    """``check_gates``: gemm must not lose to ``xor`` beyond the crossover,
    and the full-scale headline must clear the floor over the byte scan."""

    @staticmethod
    def summary(point_xor=0.010, point_gemm=0.004, byte_scan_speedup=10.0):
        return {
            "crossover_surface": [
                {"n": 100, "m": 100, "d": 10_000, "auto_picks": "gemm",
                 "seconds": {"xor": point_xor, "gemm": point_gemm}},
                # xor's side of the crossover is recorded, never gated.
                {"n": 1, "m": 100, "d": 10_000, "auto_picks": "xor",
                 "seconds": {"xor": 0.010, "gemm": 1.0}},
            ],
            "headline": {"xor_seconds": 0.40, "gemm_seconds": 0.15,
                         "speedup_gemm_over_byte_scan": byte_scan_speedup},
        }

    @pytest.mark.parametrize("fast", [False, True])
    def test_pass(self, fast):
        bench = _script("bench_kernels_similarity")
        assert bench.check_gates(self.summary(), fast=fast) == []

    @pytest.mark.parametrize("fast", [False, True])
    def test_crossover_miss_is_reported(self, fast):
        bench = _script("bench_kernels_similarity")
        slow_gemm = 0.010 * bench.GATE_TOLERANCE * 1.01
        failures = bench.check_gates(self.summary(point_gemm=slow_gemm), fast=fast)
        assert len(failures) == 1
        assert "n=100 m=100 d=10000" in failures[0]

    def test_microsecond_points_are_not_gated(self):
        bench = _script("bench_kernels_similarity")
        tiny = bench.GATE_MIN_SECONDS / 2
        assert bench.check_gates(self.summary(point_xor=tiny, point_gemm=1.0), fast=False) == []

    def test_full_scale_headline_miss_is_reported(self):
        bench = _script("bench_kernels_similarity")
        summary = self.summary(byte_scan_speedup=bench.HEADLINE_FLOOR - 0.1)
        failures = bench.check_gates(summary, fast=False)
        assert len(failures) == 1
        assert "floor" in failures[0]

    def test_headline_floor_is_skipped_under_fast(self):
        bench = _script("bench_kernels_similarity")
        summary = self.summary(byte_scan_speedup=bench.HEADLINE_FLOOR - 0.1)
        assert bench.check_gates(summary, fast=True) == []
