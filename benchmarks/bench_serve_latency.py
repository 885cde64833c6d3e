"""Serve-loop micro-benchmark: per-call latency of ``predict_one``.

``InferenceEngine.predict_one`` checks its one record, encodes it as a
one-row batch (:meth:`repro.runtime.batch.BatchEncoder.encode`) and
predicts inline, with the ``auto`` kernel dispatch landing one-row
scans on the XOR backend.  This benchmark measures it on a classification pipeline
(the JIGSAWS-like serving task) against the one-row ``predict`` batch
route and gates:

* the fast path answers **bit-identically** to the batch route;
* ``predict_one`` latency over every timed call: p50 at most
  :data:`P50_MS_MAX` and p99 at most :data:`P99_MS_MAX`;
* the fast path is not slower than the batch route: the median over
  passes of the per-pass fast/batch time ratio is at most
  :data:`RATIO_MAX`.  Both routes are timed call by call and
  interleaved, so they see the same machine state, and one noisy pass
  cannot move the median.

Writes ``benchmarks/results/BENCH_serve_latency.json``.  Run it::

    PYTHONPATH=src python benchmarks/bench_serve_latency.py [--fast]
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path shim: run from checkout or install)

import argparse
import json
import time

import numpy as np

from repro.datasets import make_jigsaws_like
from repro.experiments.config import ClassificationConfig
from repro.experiments.serving import train_classification_pipeline
from repro.serve import InferenceEngine

from _results import write_result

#: Per-call ``predict_one`` latency budgets (ms) over all timed calls.
P50_MS_MAX = 5.0
P99_MS_MAX = 25.0

#: The fast path must not be slower than the batch route (the slack
#: absorbs scheduler noise on CI runners).
RATIO_MAX = 1.10


def time_routes(engine, records, repeats: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-call seconds of ``predict_one`` and the batch route, ``(repeats, calls)``.

    Each pass times every record through both routes, call by call and
    interleaved.
    """
    batches = [np.asarray(row)[None, :] for row in records]
    for row, batch in zip(records[:3], batches):  # warm-up
        engine.predict_one(row)
        engine.predict(batch)
    fast = np.empty((repeats, len(records)))
    batch_route = np.empty_like(fast)
    for p in range(repeats):
        for i, (row, batch) in enumerate(zip(records, batches)):
            start = time.perf_counter()
            engine.predict_one(row)
            mid = time.perf_counter()
            engine.predict(batch)
            batch_route[p, i] = time.perf_counter() - mid
            fast[p, i] = mid - start
    return fast, batch_route


def run_suite(fast: bool = False) -> dict:
    dim = 2048 if fast else 10_000
    calls = 100 if fast else 200
    repeats = 3 if fast else 5
    pipeline = train_classification_pipeline(
        "suturing", "circular", config=ClassificationConfig(dim=dim, seed=7)
    )
    records = make_jigsaws_like(task="suturing", seed=99).test_features[:calls]

    with InferenceEngine(pipeline) as engine:
        batch_answers = [engine.predict(np.asarray(row)[None, :])[0] for row in records]
        assert [engine.predict_one(row) for row in records] == batch_answers, (
            "fast path answers differ from batch route"
        )
        fast_s, batch_s = time_routes(engine, records, repeats)

    ratio = float(np.median(fast_s.sum(axis=1) / batch_s.sum(axis=1)))
    return {
        "mode": "fast" if fast else "full",
        "workload": f"single-record classification predicts, d={dim}, "
                    f"{pipeline.num_features} features, {calls} calls x {repeats} passes",
        "calls": int(fast_s.size),
        "p50_ms": round(float(np.percentile(fast_s, 50)) * 1e3, 3),
        "p99_ms": round(float(np.percentile(fast_s, 99)) * 1e3, 3),
        "fast_path_us_per_call": round(float(fast_s.mean()) * 1e6, 1),
        "batch_route_us_per_call": round(float(batch_s.mean()) * 1e6, 1),
        "fastpath_vs_batch": round(ratio, 3),
        "gates": {"p50_ms_max": P50_MS_MAX, "p99_ms_max": P99_MS_MAX,
                  "fastpath_vs_batch_max": RATIO_MAX},
        "bit_identical": True,
    }


def budget_failures(summary: dict) -> list[str]:
    """One message per budget the ``run_suite`` summary misses."""
    checks = [
        ("predict_one p50 (ms)", summary["p50_ms"], P50_MS_MAX),
        ("predict_one p99 (ms)", summary["p99_ms"], P99_MS_MAX),
        ("fast path / batch route", summary["fastpath_vs_batch"], RATIO_MAX),
    ]
    return [f"{name} {value} > {limit}" for name, value, limit in checks if value > limit]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="reduced scale for CI perf-smoke runs")
    args = parser.parse_args()

    summary = run_suite(fast=args.fast)
    out_path = write_result("BENCH_serve_latency", summary)
    print(json.dumps(summary, indent=2))
    print(f"\nsummary written to {out_path}")

    failures = budget_failures(summary)
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    print(f"predict_one p50 {summary['p50_ms']} ms, p99 {summary['p99_ms']} ms; "
          f"fast/batch {summary['fastpath_vs_batch']} (bit-identical)")


if __name__ == "__main__":
    main()
