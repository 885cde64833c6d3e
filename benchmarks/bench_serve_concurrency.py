"""Serving-tier concurrency benchmark: micro-batching under a request flood.

Sends a seeded mixed-model request set (classification + regression)
through the serving tier three ways and proves the whole stack correct
and worthwhile:

* **oracle** — every request answered sequentially by
  ``InferenceEngine.predict_one`` (:func:`repro.serve.oracle_transcript`):
  the ground-truth transcript;
* **unbatched** — every request submitted at once, as concurrent tasks,
  through the scheduler with coalescing disabled (``max_batch=1``): each
  request is its own kernel call;
* **batched** — the same flood with adaptive micro-batching on the
  built-in knobs: concurrent requests coalesce into single
  ``predict_coalesced`` kernel calls.

Gates (both modes): the batched and unbatched transcripts must be
**bit-identical** to the oracle — coalescing must never change a single
answer — the batched pass must reach at least :data:`MIN_IN_FLIGHT`
concurrent in-flight requests, or the run measured nothing, and its
per-request latency must stay within :data:`P50_MS_MAX` /
:data:`P99_MS_MAX`.  The ``--fast`` run is 128 requests at d = 1024.
In full mode the batched pass must additionally finish at least
:data:`SPEEDUP_GATE` times faster than the unbatched one (fast mode
records the ratio without gating it — CI runners are too noisy at the
reduced scale).  A socket-level pass through a live HTTP server, over
``perfbench/loadgen.py``'s keep-alive ``Connection``, re-checks
bit-identity over the full network path.  No request may fail.

A full run writes ``benchmarks/results/BENCH_serve_concurrency.json``;
``--fast`` checks the same gates and writes nothing.  Run it::

    python benchmarks/bench_serve_concurrency.py [--fast]
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path shim: run from checkout or install)

import argparse
import asyncio
import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from repro.experiments.config import ClassificationConfig, RegressionConfig
from repro.experiments.serving import (
    train_classification_pipeline,
    train_regression_pipeline,
)
from repro.serve import (
    InferenceEngine,
    MicroBatcher,
    ModelRegistry,
    ServerThread,
    TraceRequest,
    json_scalar,
    oracle_transcript,
)
from repro.serve.batching import DEFAULT_BATCH_MAX, DEFAULT_BATCH_WINDOW_MS

from _results import write_result

REPO_ROOT = Path(__file__).resolve().parent.parent

# The HTTP pass uses the benchmark harness's client, imported as is.
if str(REPO_ROOT / "perfbench") not in sys.path:
    sys.path.append(str(REPO_ROOT / "perfbench"))
loadgen = importlib.import_module("loadgen")

#: The batched pass must genuinely stack up this many concurrent
#: in-flight requests (measured by a gauge around every submit), or the
#: batching measurement is meaningless.  Gated in both modes.
MIN_IN_FLIGHT = 64

#: Full mode: the batched pass must beat the unbatched one by this factor.
SPEEDUP_GATE = 1.5

#: Per-request latency budgets (ms) of the batched pass.
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


def _requests(cls_pipe, reg_pipe, n: int, seed: int) -> list[TraceRequest]:
    """``n`` requests, each for a model drawn uniformly, rows uniform in [0, 2π)."""
    rng = np.random.default_rng(seed)
    widths = {"mars_express": reg_pipe.num_features, "suturing": cls_pipe.num_features}
    names = sorted(widths)
    trace = []
    for i in range(n):
        model = names[int(rng.integers(len(names)))]
        row = tuple(float(v) for v in rng.uniform(0.0, TWO_PI, widths[model]))
        trace.append(TraceRequest(id=i, t=0.0, model=model, features=row))
    return trace


async def _flood(trace, submit) -> tuple[list, dict]:
    """Submit every request at once through ``submit(req)``.

    Returns the json-normalised answers in request order (a failed
    request holds its exception) and the pass's summary.
    """
    loop = asyncio.get_running_loop()
    latencies_ms: list[float] = []

    async def one(req):
        begin = loop.time()
        value = await submit(req)
        latencies_ms.append((loop.time() - begin) * 1e3)
        return json_scalar(value)

    start = loop.time()
    answers = await asyncio.gather(*map(one, trace), return_exceptions=True)
    duration_s = loop.time() - start
    errors = sum(isinstance(a, BaseException) for a in answers)
    ok = len(answers) - errors
    latencies = latencies_ms or [0.0]
    return answers, {
        "requests": len(answers),
        "ok": ok,
        "errors": errors,
        "p50_ms": float(np.percentile(latencies, 50.0)),
        "p99_ms": float(np.percentile(latencies, 99.0)),
        "duration_s": duration_s,
        "throughput_rps": ok / duration_s if duration_s > 0 else 0.0,
    }


def _through_batchers(
    trace, cls_pipe, reg_pipe, *, max_batch=DEFAULT_BATCH_MAX,
    window_ms=DEFAULT_BATCH_WINDOW_MS
):
    """Every request submitted at once through per-model schedulers.

    Returns ``(answers, summary, stats, peak_in_flight)`` where
    ``peak_in_flight`` is measured by a gauge around every submit — the
    proof the pass actually exercised concurrency rather than trickling
    requests.
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

            async def submit(req):
                gauge["now"] += 1
                gauge["peak"] = max(gauge["peak"], gauge["now"])
                try:
                    return await batchers[req.model].submit(req.features)
                finally:
                    gauge["now"] -= 1

            try:
                answers, summary = await _flood(trace, submit)
            finally:
                for batcher in batchers.values():
                    await batcher.stop()
            return answers, summary, {n: dict(b.stats) for n, b in batchers.items()}

    answers, summary, stats = asyncio.run(run())
    return answers, summary, stats, gauge["peak"]


def _over_http(trace, cls_pipe, reg_pipe, connections: int = 32) -> tuple[list, dict]:
    """Every request POSTed at once to a live HTTP server.

    Requests share ``connections`` keep-alive connections; the time a
    request waits for a free one counts in its latency.
    """
    registry = ModelRegistry()
    registry.register("suturing", cls_pipe)
    registry.register("mars_express", reg_pipe)
    with ServerThread(registry, max_queue=4096, own_registry=True) as server:
        host = f"{server.host}:{server.port}"

        async def run():
            pool: asyncio.Queue = asyncio.Queue()
            for conn in await loadgen.open_connections(server.host, server.port, connections):
                pool.put_nowait(conn)

            async def submit(req):
                request = loadgen.build_request(host, req.model, {"features": list(req.features)})
                conn = await pool.get()
                try:
                    status, body = await conn.roundtrip(request)
                finally:
                    pool.put_nowait(conn)
                if status != 200:
                    raise RuntimeError(f"HTTP {status}: {body!r}")
                return json.loads(body)["prediction"]

            try:
                return await _flood(trace, submit)
            finally:
                await loadgen.close_connections([pool.get_nowait() for _ in range(connections)])

        return asyncio.run(run())


def run_suite(fast: bool = False) -> dict:
    dim = 1024 if fast else 4096
    requests = 128 if fast else 512

    cls_pipe, reg_pipe = _build_pipelines(dim)
    trace = _requests(cls_pipe, reg_pipe, requests, seed=11)

    with InferenceEngine(cls_pipe) as e1, InferenceEngine(reg_pipe) as e2:
        oracle = oracle_transcript(
            trace, {"suturing": e1, "mars_express": e2}
        )

    batched, batched_summary, batched_stats, batched_peak = _through_batchers(
        trace, cls_pipe, reg_pipe
    )
    unbatched, unbatched_summary, _, unbatched_peak = _through_batchers(
        trace, cls_pipe, reg_pipe, max_batch=1
    )
    http_answers, http_summary = _over_http(trace, cls_pipe, reg_pipe)

    def mismatches(answers):
        return sum(1 for a, b in zip(answers, oracle) if a != b)

    batched_s, unbatched_s = batched_summary["duration_s"], unbatched_summary["duration_s"]
    speedup_ratio = unbatched_s / batched_s if batched_s else 0.0
    return {
        "mode": "fast" if fast else "full",
        "workload": f"{requests} mixed-model requests (suturing classification "
        f"+ mars_express regression), d={dim}, all submitted at once; "
        "HTTP over 32 keep-alive connections",
        "oracle": {
            "requests": len(oracle),
            "batched_mismatches": mismatches(batched),
            "unbatched_mismatches": mismatches(unbatched),
            "http_mismatches": mismatches(http_answers),
        },
        "batched": {
            **batched_summary,
            "peak_in_flight": batched_peak,
            "max_batch_seen": max(
                s["max_batch_seen"] for s in batched_stats.values()
            ),
            "kernel_calls": sum(s["batches"] for s in batched_stats.values()),
        },
        "unbatched": {**unbatched_summary, "peak_in_flight": unbatched_peak},
        "http": http_summary,
        "batching_speedup": round(speedup_ratio, 2),
    }


def budget_failures(summary: dict) -> list[str]:
    """One message per latency budget the batched pass misses."""
    return [
        f"batched pass {key} {summary['batched'][key]:.1f} exceeds its budget of {limit} ms"
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
            f"FAIL: the batched pass peaked at {peak} concurrent in-flight requests "
            f"(need >= {MIN_IN_FLIGHT}); it did not exercise concurrency"
        )
    failures = budget_failures(summary)
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    ratio = summary["batching_speedup"]
    if summary["mode"] == "full" and ratio < SPEEDUP_GATE:
        raise SystemExit(
            f"FAIL: micro-batching sped the flood up only {ratio}x "
            f"(gate: {SPEEDUP_GATE}x over the unbatched scheduler)"
        )
    print(
        f"\nall transcripts bit-identical to the oracle over {oracle['requests']} "
        f"requests (peak {peak} in flight); batching speedup {ratio}x"
        + ("" if summary["mode"] == "full" else " (ratio not gated in fast mode)")
    )


if __name__ == "__main__":
    main()
