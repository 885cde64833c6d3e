"""Serving-tier concurrency benchmark: micro-batching under replayed load.

Replays a seeded mixed-model trace (classification + regression) through
the serving tier three ways and proves the whole stack correct and
worthwhile:

* **oracle** — every request answered sequentially by
  ``InferenceEngine.predict_one``: the ground-truth transcript;
* **unbatched** — the same trace replayed concurrently through the
  scheduler with coalescing disabled (``max_batch=1``): every request is
  its own kernel call;
* **batched** — the trace replayed with adaptive micro-batching on
  (knobs from the arg > env > built-in chain): concurrent requests coalesce into
  single ``predict_coalesced`` kernel calls.

Gates (both modes): the batched and unbatched transcripts must be
**bit-identical** to the oracle — coalescing must never change a single
answer — the replay must reach at least :data:`MIN_IN_FLIGHT`
concurrent in-flight requests, or the run measured nothing, and the
batched replay's per-request latency must stay within
:data:`P50_MS_MAX` / :data:`P99_MS_MAX`.  The ``--fast`` trace is 128
requests at d = 1024 with arrivals compressed 1000×.  In full
mode the batched replay must additionally finish at least
:data:`SPEEDUP_GATE` times faster than the unbatched one (fast mode
records the ratio without gating it — CI runners are too noisy at the
reduced scale).  A socket-level replay through a live ``serve-http``
server (:class:`~repro.serve.replay.HTTPReplayClient`) re-checks
bit-identity over the full network path.

A full run writes ``benchmarks/results/BENCH_serve_concurrency.json``;
``--fast`` checks the same gates and writes nothing.  Run it::

    PYTHONPATH=src python benchmarks/bench_serve_concurrency.py [--fast]
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path shim: run from checkout or install)

import argparse
import asyncio
import json
import math
from pathlib import Path

from repro.experiments.config import ClassificationConfig, RegressionConfig
from repro.experiments.serving import (
    train_classification_pipeline,
    train_regression_pipeline,
)
from repro.serve import (
    HTTPReplayClient,
    InferenceEngine,
    MicroBatcher,
    ModelRegistry,
    ServerThread,
    generate_trace,
    oracle_transcript,
    replay_async,
)
from repro.serve.batching import DEFAULT_BATCH_MAX, DEFAULT_BATCH_WINDOW_MS

from _results import write_result

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The replay must genuinely stack up this many concurrent in-flight
#: requests (measured by a gauge around every submit), or the batching
#: measurement is meaningless.  Gated in both modes.
MIN_IN_FLIGHT = 64

#: Full mode: batched replay must beat the unbatched one by this factor.
SPEEDUP_GATE = 1.5

#: Per-request latency budgets (ms) of the batched replay.
P50_MS_MAX = 150.0
P99_MS_MAX = 400.0

TWO_PI = 2.0 * math.pi


def _build_pipelines(dim: int):
    cls_pipe = train_classification_pipeline(
        "suturing", "circular", config=ClassificationConfig(dim=dim, seed=7)
    )
    reg_pipe = train_regression_pipeline(
        "circular", config=RegressionConfig(dim=dim, seed=3)
    )
    return cls_pipe, reg_pipe


def _replay_through_batchers(
    trace, cls_pipe, reg_pipe, *, max_batch=DEFAULT_BATCH_MAX,
    window_ms=DEFAULT_BATCH_WINDOW_MS, speedup
):
    """One concurrent replay through per-model schedulers.

    Returns ``(report, stats, peak_in_flight)`` where ``peak_in_flight``
    is measured by a gauge around every submit — the proof the replay
    actually exercised concurrency rather than trickling requests.
    """
    gauge = {"now": 0, "peak": 0}

    async def run():
        with ModelRegistry() as registry:
            registry.register("suturing", cls_pipe)
            registry.register("mars_express", reg_pipe)
            batchers = {
                name: MicroBatcher(
                    registry,
                    name,
                    max_batch=max_batch,
                    window_ms=window_ms,
                    max_queue=4096,
                )
                for name in registry.names()
            }
            for batcher in batchers.values():
                await batcher.start()

            async def submit(model, features):
                gauge["now"] += 1
                gauge["peak"] = max(gauge["peak"], gauge["now"])
                try:
                    return await batchers[model].submit(features)
                finally:
                    gauge["now"] -= 1

            try:
                report = await replay_async(trace, submit, speedup=speedup)
            finally:
                for batcher in batchers.values():
                    await batcher.stop()
            return report, {n: dict(b.stats) for n, b in batchers.items()}

    report, stats = asyncio.run(run())
    return report, stats, gauge["peak"]


def _replay_over_http(trace, cls_pipe, reg_pipe, *, speedup):
    """Socket-level replay against a live serve-http server."""
    registry = ModelRegistry()
    registry.register("suturing", cls_pipe)
    registry.register("mars_express", reg_pipe)
    with ServerThread(registry, max_queue=4096, own_registry=True) as server:

        async def run():
            async with HTTPReplayClient(
                server.host, server.port, connections=32
            ) as client:
                return await replay_async(trace, client.submit, speedup=speedup)

        return asyncio.run(run())


def run_suite(fast: bool = False) -> dict:
    dim = 1024 if fast else 4096
    requests = 128 if fast else 512
    # Arrival times compress by the speedup factor, so the whole trace
    # lands near-simultaneously — a sustained flood, the regime where
    # coalescing pays and in-flight depth peaks.
    speedup = 1000.0

    cls_pipe, reg_pipe = _build_pipelines(dim)
    trace = generate_trace(
        {
            "suturing": (cls_pipe.num_features, (0.0, TWO_PI)),
            "mars_express": (reg_pipe.num_features, (0.0, TWO_PI)),
        },
        requests,
        seed=11,
        rate_hz=2000.0,
    )

    with InferenceEngine(cls_pipe) as e1, InferenceEngine(reg_pipe) as e2:
        oracle = oracle_transcript(
            trace, {"suturing": e1, "mars_express": e2}
        )

    batched, batched_stats, batched_peak = _replay_through_batchers(
        trace, cls_pipe, reg_pipe, speedup=speedup
    )
    unbatched, _, unbatched_peak = _replay_through_batchers(
        trace, cls_pipe, reg_pipe, max_batch=1, speedup=speedup
    )
    http_report = _replay_over_http(trace, cls_pipe, reg_pipe, speedup=speedup)

    def mismatches(report):
        return sum(1 for a, b in zip(report.responses, oracle) if a != b)

    speedup_ratio = (
        unbatched.duration_s / batched.duration_s if batched.duration_s else 0.0
    )
    return {
        "mode": "fast" if fast else "full",
        "workload": f"{requests} mixed-model requests (suturing classification "
        f"+ mars_express regression), d={dim}, Poisson arrivals "
        f"replayed at {speedup:g}x",
        "oracle": {
            "requests": len(oracle),
            "batched_mismatches": mismatches(batched),
            "unbatched_mismatches": mismatches(unbatched),
            "http_mismatches": mismatches(http_report),
        },
        "batched": {
            **batched.summary(),
            "peak_in_flight": batched_peak,
            "max_batch_seen": max(
                s["max_batch_seen"] for s in batched_stats.values()
            ),
            "kernel_calls": sum(s["batches"] for s in batched_stats.values()),
        },
        "unbatched": {**unbatched.summary(), "peak_in_flight": unbatched_peak},
        "http": http_report.summary(),
        "batching_speedup": round(speedup_ratio, 2),
    }


def budget_failures(summary: dict) -> list[str]:
    """One message per latency budget the batched replay misses."""
    return [
        f"batched replay {key} {summary['batched'][key]:.1f} exceeds its budget of {limit} ms"
        for key, limit in (("p50_ms", P50_MS_MAX), ("p99_ms", P99_MS_MAX))
        if summary["batched"][key] > limit
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="reduced scale for CI perf-smoke runs")
    args = parser.parse_args()

    summary = run_suite(fast=args.fast)
    print(json.dumps(summary, indent=2))
    if not args.fast:  # a --fast run never overwrites the committed full result
        print(f"\nsummary written to {write_result('BENCH_serve_concurrency', summary)}")

    oracle = summary["oracle"]
    for key in ("batched_mismatches", "unbatched_mismatches", "http_mismatches"):
        if oracle[key]:
            raise SystemExit(
                f"FAIL: {oracle[key]}/{oracle['requests']} {key.split('_')[0]} "
                "responses differ from the sequential predict_one oracle — "
                "the serving tier broke the bit-identity contract"
            )
    for path in ("batched", "unbatched", "http"):
        if summary[path]["errors"]:
            raise SystemExit(f"FAIL: {summary[path]['errors']} {path} request(s) errored")
    peak = summary["batched"]["peak_in_flight"]
    if peak < MIN_IN_FLIGHT:
        raise SystemExit(
            f"FAIL: replay peaked at {peak} concurrent in-flight requests "
            f"(need >= {MIN_IN_FLIGHT}); the trace did not exercise concurrency"
        )
    failures = budget_failures(summary)
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    ratio = summary["batching_speedup"]
    if summary["mode"] == "full" and ratio < SPEEDUP_GATE:
        raise SystemExit(
            f"FAIL: micro-batching sped the replay up only {ratio}x "
            f"(gate: {SPEEDUP_GATE}x over the unbatched scheduler)"
        )
    print(
        f"\nall transcripts bit-identical to the oracle over {oracle['requests']} "
        f"requests (peak {peak} in flight); batching speedup {ratio}x"
        + ("" if summary["mode"] == "full" else " (ratio not gated in fast mode)")
    )


if __name__ == "__main__":
    main()
