"""``repro check-deadline``: replay recorded workloads against budgets.

The enforcement half of the tuning loop.  A **workload spec** is a small
JSON file that records a target (which replay to run), a shape (how big)
and a budget (what it must cost at most):

.. code-block:: json

    {
      "schema": 1,
      "name": "serve-latency",
      "target": "serve_latency",
      "shape": {"task": "suturing", "dim": 2048, "calls": 100},
      "budget": {"p50_ms": 10.0, "p99_ms": 30.0, "fastpath_vs_batch_max": 1.10}
    }

:func:`run_workload` replays the spec against the **current
configuration** — the built-ins plus whatever ``REPRO_*`` knob
variables the environment sets — measures the budgeted metrics, and
reports each check.  A miss makes ``repro check-deadline`` exit
non-zero, which is the CI perf gate: every budget the repository
promises is a recorded, replayable file instead of a hand-rolled
assertion inside a benchmark script.

Targets:

* ``serve_latency`` — trains a serving pipeline at the spec's shape and
  measures per-call ``predict_one`` latency (p50 / p99 over all calls),
  plus the fast-path vs batch-route ratio (the median over ``repeats``
  interleaved passes).  Budgets: ``p50_ms``, ``p99_ms``,
  ``fastpath_vs_batch_max``.
* ``stream_rss`` — stream-trains a classifier in a **subprocess** and
  reads its peak RSS (``ru_maxrss``), so the measurement is a real
  process high-water mark, not an in-process estimate.  Budgets:
  ``peak_rss_mb``, ``peak_over_unpacked_max`` (peak as a fraction of
  the unpacked encoded split a monolithic fit would materialise).
* ``serve_concurrency`` — replays a seeded mixed-model trace through
  the micro-batching scheduler (:mod:`repro.serve.replay`) and measures
  per-request latency under concurrency.  Budgets: ``p50_ms``,
  ``p99_ms``.  The replayed transcript is additionally checked
  **bit-identically** against the sequential ``predict_one`` oracle —
  a mismatch is a structural failure and raises
  :class:`~repro.exceptions.CalibrationError` (exit non-zero in CI)
  rather than a budget miss.
* ``stream_ingest`` — stream-trains the same classifier twice, through
  the reference encode-then-``partial_fit`` path and the fused ingest
  kernel (``ingest="fused"``), interleaved best-of-``repeats``.  The
  two models must be bit-identical (a divergence raises
  :class:`~repro.exceptions.CalibrationError` — the fused tier's core
  contract, not a budget miss).  Budget: ``fused_over_ref_max``, an
  upper bound on the fused/reference wall-time ratio (``0.83`` gates a
  ≥ 1.2× fused speedup).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Union

import numpy as np

from ..exceptions import CalibrationError

__all__ = ["WorkloadSpec", "load_workload", "run_workload", "check_deadline"]

#: Workload-spec schema version this library reads.
SCHEMA_VERSION = 1

#: Budget keys each target understands (unknown keys are rejected —
#: a typo'd budget must fail loudly, not silently pass).
_TARGET_BUDGETS = {
    "serve_latency": ("p50_ms", "p99_ms", "fastpath_vs_batch_max"),
    "stream_rss": ("peak_rss_mb", "peak_over_unpacked_max"),
    "serve_concurrency": ("p50_ms", "p99_ms"),
    "stream_ingest": ("fused_over_ref_max",),
}


@dataclass(frozen=True)
class WorkloadSpec:
    """One recorded workload: target + shape + budget."""

    name: str
    target: str
    shape: dict[str, Any] = field(default_factory=dict)
    budget: dict[str, float] = field(default_factory=dict)
    path: Union[Path, None] = None

    def __post_init__(self) -> None:
        if self.target not in _TARGET_BUDGETS:
            raise CalibrationError(
                f"workload target must be one of {sorted(_TARGET_BUDGETS)}, "
                f"got {self.target!r}"
            )
        allowed = _TARGET_BUDGETS[self.target]
        if not self.budget:
            raise CalibrationError(f"workload {self.name!r} has an empty budget")
        for key, value in self.budget.items():
            if key not in allowed:
                raise CalibrationError(
                    f"unknown budget {key!r} for target {self.target!r} "
                    f"(expected one of {allowed})"
                )
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
                raise CalibrationError(
                    f"budget {key!r} must be a positive number, got {value!r}"
                )


def load_workload(path: Union[str, os.PathLike]) -> WorkloadSpec:
    """Load and validate one workload spec from JSON.

    Raises :class:`~repro.exceptions.CalibrationError` for unreadable
    files, wrong schema versions, unknown targets and malformed budgets.

    >>> import tempfile, pathlib, json
    >>> spec = {"schema": 1, "name": "s", "target": "serve_latency",
    ...         "shape": {"dim": 256}, "budget": {"p99_ms": 50.0}}
    >>> with tempfile.TemporaryDirectory() as d:
    ...     p = pathlib.Path(d) / "w.json"
    ...     _ = p.write_text(json.dumps(spec))
    ...     load_workload(p).target
    'serve_latency'
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CalibrationError(f"cannot read workload spec {path}: {exc}") from exc
    except ValueError as exc:
        raise CalibrationError(f"workload spec {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CalibrationError(f"workload spec {path} must be a JSON object")
    if payload.get("schema") != SCHEMA_VERSION:
        raise CalibrationError(
            f"workload spec {path} has schema {payload.get('schema')!r}; "
            f"this library reads schema {SCHEMA_VERSION}"
        )
    shape = payload.get("shape", {})
    budget = payload.get("budget", {})
    if not isinstance(shape, dict) or not isinstance(budget, dict):
        raise CalibrationError(
            f"workload spec {path}: 'shape' and 'budget' must be objects"
        )
    return WorkloadSpec(
        name=str(payload.get("name", path.stem)),
        target=str(payload.get("target", "")),
        shape=shape,
        budget=budget,
        path=path,
    )


def _percentile_ms(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q) * 1e3)


def _run_serve_latency(spec: WorkloadSpec) -> dict:
    """Per-call ``predict_one`` latency of a freshly trained pipeline.

    Each of the ``repeats`` passes times every record through both the
    ``predict_one`` fast path and the one-row ``predict`` batch route,
    call by call and interleaved, so both sides see the same machine
    state.  The gated ``fastpath_vs_batch`` ratio is the median of the
    per-pass ratios, which one noisy pass cannot move.
    """
    from ..datasets import make_jigsaws_like
    from ..experiments.config import ClassificationConfig
    from ..experiments.serving import train_classification_pipeline
    from ..serve import InferenceEngine

    shape = spec.shape
    task = shape.get("task", "suturing")
    basis = shape.get("basis", "circular")
    dim = int(shape.get("dim", 2048))
    calls = int(shape.get("calls", 100))
    repeats = max(1, int(shape.get("repeats", 3)))
    pipeline = train_classification_pipeline(
        task, basis, config=ClassificationConfig(dim=dim, seed=7)
    )
    records = make_jigsaws_like(task=task, seed=99).test_features[:calls]
    batches = [np.asarray(row)[None, :] for row in records]
    with InferenceEngine(pipeline) as engine:
        for row, batch in zip(records[:3], batches):  # warm-up
            engine.predict_one(row)
            engine.predict(batch)
        samples: list[float] = []
        batch_samples: list[float] = []
        for _ in range(repeats):
            for row, batch in zip(records, batches):
                start = time.perf_counter()
                engine.predict_one(row)
                mid = time.perf_counter()
                engine.predict(batch)
                batch_samples.append(time.perf_counter() - mid)
                samples.append(mid - start)
    per_pass = np.reshape(samples, (repeats, -1)).sum(axis=1)
    batch_per_pass = np.reshape(batch_samples, (repeats, -1)).sum(axis=1)
    return {
        "calls": len(samples),
        "p50_ms": round(_percentile_ms(samples, 50), 3),
        "p99_ms": round(_percentile_ms(samples, 99), 3),
        "mean_ms": round(float(np.mean(samples)) * 1e3, 3),
        "batch_route_ms": round(float(np.mean(batch_samples)) * 1e3, 3),
        "fastpath_vs_batch": round(float(np.median(per_pass / batch_per_pass)), 3),
    }


#: Subprocess body for the ``stream_rss`` target: stream-train at the
#: given shape and print peak RSS as JSON.  Runs with this interpreter
#: and the caller's environment (so ``REPRO_*`` knob variables apply).
_RSS_WORKER = """
import json, resource, sys
import numpy as np
from repro.basis import CircularBasis
from repro.hdc.hypervector import random_hypervectors
from repro.learning import CentroidClassifier
from repro.runtime import BatchEncoder
from repro.streaming import JigsawsStream, stream_fit_classifier

dim, rows, chunk_rows = (int(a) for a in sys.argv[1:4])
stream = JigsawsStream("suturing", seed=13, chunk_size=chunk_rows,
                       samples_per_gesture=max(1, rows // 15))
embedding = CircularBasis(12, dim, seed=1).circular_embedding(period=2.0 * np.pi)
keys = random_hypervectors(18, dim, seed=2)
encoder = BatchEncoder(keys, embedding, tie_break="zeros", chunk_size=chunk_rows)
classifier = CentroidClassifier(dim, tie_break="zeros", seed=3)
stats = stream_fit_classifier(classifier, encoder, stream)
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"rows": stats.rows, "chunks": stats.chunks,
                  "peak_rss_bytes": peak_kib * 1024}))
"""


def _run_stream_rss(spec: WorkloadSpec) -> dict:
    """Peak RSS of a streamed training run, measured in a subprocess."""
    shape = spec.shape
    dim = int(shape.get("dim", 2048))
    rows = int(shape.get("rows", 20_000))
    chunk_rows = int(shape.get("chunk_rows", 256))
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", _RSS_WORKER, str(dim), str(rows), str(chunk_rows)],
        capture_output=True,
        text=True,
        env=env,
        timeout=1200,
        check=True,
    )
    worker = json.loads(result.stdout.strip().splitlines()[-1])
    unpacked_bytes = worker["rows"] * dim  # 1 byte/bit encoded split
    return {
        "rows": worker["rows"],
        "chunks": worker["chunks"],
        "chunk_rows": chunk_rows,
        "peak_rss_mb": round(worker["peak_rss_bytes"] / 1e6, 1),
        "would_be_unpacked_mb": round(unpacked_bytes / 1e6, 1),
        "peak_over_unpacked": round(worker["peak_rss_bytes"] / unpacked_bytes, 3),
    }


def _run_serve_concurrency(spec: WorkloadSpec) -> dict:
    """Latency of a replayed concurrent trace through the micro-batcher.

    Trains a classification and a regression pipeline at the spec's
    shape, generates a seeded Poisson-arrival mixed trace, replays it
    concurrently through per-model
    :class:`~repro.serve.batching.MicroBatcher` schedulers, and — before
    any budget check — asserts the full transcript equals the sequential
    ``predict_one`` oracle bit for bit.  Coalescing that changes even a
    single answer is a broken build, not a slow one, so the mismatch
    raises :class:`~repro.exceptions.CalibrationError` directly.
    """
    import asyncio
    import math

    from ..experiments.config import ClassificationConfig, RegressionConfig
    from ..experiments.serving import (
        train_classification_pipeline,
        train_regression_pipeline,
    )
    from ..serve import (
        InferenceEngine,
        MicroBatcher,
        generate_trace,
        oracle_transcript,
        replay_async,
    )
    from ..serve.registry import ModelRegistry

    shape = spec.shape
    dim = int(shape.get("dim", 1024))
    requests = int(shape.get("requests", 128))
    rate_hz = float(shape.get("rate_hz", 2000.0))
    speedup = float(shape.get("speedup", 1.0))
    seed = int(shape.get("seed", 17))
    two_pi = 2.0 * math.pi

    cls_pipe = train_classification_pipeline(
        shape.get("task", "suturing"), config=ClassificationConfig(dim=dim, seed=7)
    )
    reg_pipe = train_regression_pipeline(config=RegressionConfig(dim=dim, seed=3))
    trace = generate_trace(
        {
            "gesture": (cls_pipe.num_features, (0.0, two_pi)),
            "mars_express": (reg_pipe.num_features, (0.0, two_pi)),
        },
        requests,
        seed=seed,
        rate_hz=rate_hz,
    )
    with InferenceEngine(cls_pipe) as e1, InferenceEngine(reg_pipe) as e2:
        oracle = oracle_transcript(trace, {"gesture": e1, "mars_express": e2})

    async def run():
        with ModelRegistry() as registry:
            registry.register("gesture", cls_pipe)
            registry.register("mars_express", reg_pipe)
            batchers = {
                name: MicroBatcher(registry, name) for name in registry.names()
            }
            for batcher in batchers.values():
                await batcher.start()
            try:
                report = await replay_async(
                    trace,
                    lambda model, features: batchers[model].submit(features),
                    speedup=speedup,
                )
            finally:
                for batcher in batchers.values():
                    await batcher.stop()
            return report, {n: dict(b.stats) for n, b in batchers.items()}

    report, stats = asyncio.run(run())
    if report.errors:
        raise CalibrationError(
            f"serve_concurrency replay failed {len(report.errors)} request(s): "
            f"{sorted(report.errors.items())[:3]}"
        )
    if report.responses != oracle:
        bad = sum(1 for a, b in zip(report.responses, oracle) if a != b)
        raise CalibrationError(
            f"serve_concurrency transcript is NOT bit-identical to the "
            f"sequential predict_one oracle ({bad}/{len(oracle)} responses "
            "differ) — the micro-batcher broke the bit-identity contract"
        )
    return {
        "requests": report.count,
        "p50_ms": round(report.p50_ms, 3),
        "p99_ms": round(report.p99_ms, 3),
        "throughput_rps": round(report.throughput_rps, 1),
        "max_batch_seen": max(s["max_batch_seen"] for s in stats.values()),
        "batches": sum(s["batches"] for s in stats.values()),
        "oracle_match": True,
    }


def _run_stream_ingest(spec: WorkloadSpec) -> dict:
    """Fused-vs-reference streamed training time at the spec's shape.

    Streams the same synthetic gesture workload into two fresh
    classifiers — ``ingest="ref"`` (encode then ``partial_fit``) and
    ``ingest="fused"`` (zero-temporary count accumulation) — with the
    passes interleaved best-of-``repeats`` so both see the same machine
    state.  Before any budget check the two models are compared class
    by class: the fused tier promises bit-identical training, so a
    divergence raises :class:`~repro.exceptions.CalibrationError`
    rather than counting as a slow run.
    """
    from ..basis import CircularBasis
    from ..hdc.hypervector import random_hypervectors
    from ..learning import CentroidClassifier
    from ..runtime import BatchEncoder
    from ..streaming import JigsawsStream, stream_fit_classifier

    shape = spec.shape
    dim = int(shape.get("dim", 2048))
    rows = int(shape.get("rows", 20_000))
    chunk_rows = int(shape.get("chunk_rows", 1024))
    repeats = int(shape.get("repeats", 3))

    embedding = CircularBasis(12, dim, seed=1).circular_embedding(period=2.0 * np.pi)
    keys = random_hypervectors(18, dim, seed=2)

    def run(ingest: str) -> tuple[float, "CentroidClassifier", int]:
        stream = JigsawsStream(
            "suturing", seed=13, chunk_size=chunk_rows,
            samples_per_gesture=max(1, rows // 15),
        )
        encoder = BatchEncoder(keys, embedding, tie_break="zeros",
                               chunk_size=chunk_rows)
        classifier = CentroidClassifier(dim, tie_break="zeros", seed=3)
        start = time.perf_counter()
        stats = stream_fit_classifier(classifier, encoder, stream, ingest=ingest)
        return time.perf_counter() - start, classifier, stats.rows

    ref_s = fused_s = float("inf")
    streamed_rows = 0
    ref_model = fused_model = None
    for _ in range(max(1, repeats)):
        seconds, ref_model, streamed_rows = run("ref")
        ref_s = min(ref_s, seconds)
        seconds, fused_model, _ = run("fused")
        fused_s = min(fused_s, seconds)
    assert ref_model is not None and fused_model is not None
    if ref_model.classes != fused_model.classes or any(
        not np.array_equal(ref_model.class_vector(c), fused_model.class_vector(c))
        for c in ref_model.classes
    ):
        raise CalibrationError(
            "stream_ingest: the fused ingest kernel trained a model that is "
            "NOT bit-identical to the reference path — the fused tier broke "
            "its exactness contract"
        )
    return {
        "rows": streamed_rows,
        "chunk_rows": chunk_rows,
        "dim": dim,
        "ref_seconds": round(ref_s, 4),
        "fused_seconds": round(fused_s, 4),
        "ref_rows_per_s": round(streamed_rows / ref_s, 1),
        "fused_rows_per_s": round(streamed_rows / fused_s, 1),
        "fused_over_ref": round(fused_s / ref_s, 3),
        "bit_identical": True,
    }


#: Which measured metric each budget key gates on (and that lower is
#: better for all of them — every budget is an upper bound).
_BUDGET_METRICS = {
    "p50_ms": "p50_ms",
    "p99_ms": "p99_ms",
    "fastpath_vs_batch_max": "fastpath_vs_batch",
    "peak_rss_mb": "peak_rss_mb",
    "peak_over_unpacked_max": "peak_over_unpacked",
    "fused_over_ref_max": "fused_over_ref",
}


def run_workload(spec: WorkloadSpec) -> dict:
    """Replay one workload and check every budget entry.

    Returns a JSON-ready result: the measured metrics, one check per
    budget entry (``measured <= budget``), and the overall ``ok``.
    The replay runs under the **current** configuration — set a knob's
    ``REPRO_*`` variable first to gate a non-default setup (subprocess
    targets inherit the environment).
    """
    runners = {
        "serve_latency": _run_serve_latency,
        "stream_rss": _run_stream_rss,
        "serve_concurrency": _run_serve_concurrency,
        "stream_ingest": _run_stream_ingest,
    }
    measured = runners[spec.target](spec)
    checks = []
    for key, budget in spec.budget.items():
        value = measured[_BUDGET_METRICS[key]]
        checks.append(
            {
                "budget": key,
                "limit": budget,
                "measured": value,
                "ok": bool(value <= budget),
            }
        )
    return {
        "name": spec.name,
        "target": spec.target,
        "shape": dict(spec.shape),
        "measured": measured,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }


def check_deadline(paths: list) -> tuple[int, list[dict]]:
    """Replay every spec; return ``(exit_code, results)``.

    Exit code 0 when every budget of every workload holds, 1 otherwise —
    what the ``repro check-deadline`` CLI (and therefore CI) returns.
    """
    results = [run_workload(load_workload(path)) for path in paths]
    return (0 if all(r["ok"] for r in results) else 1), results
