"""Fused ingest kernel gate: faster than the reference path, same bits.

The fused ingest tier (``repro.hdc.ingest``) streams raw chunks straight
into model count tables — no encoded-batch materialisation, no fused
gather cube — and promises bit-identical training to the reference
encode-then-``partial_fit`` path.  This benchmark proves both halves
with real runs:

1. **Exactness** — in-process, ``ingest="fused"`` must train
   classifiers *and* regressors (which take the reference path under
   every backend name) bit-identical to ``ingest="ref"``, including
   ``"random"`` tie policies.
2. **Throughput** — ``stream_fit_classifier`` over the same synthetic
   gesture stream, reference vs fused, interleaved best-of-3.  The gate
   asserts fused wall time is at most 0.83 of the reference
   (``--fast``: d=2048, 20,000 rows; a speedup of at least 1/0.83 ≈
   1.205×) / a speedup of 1.3× (full run, d=8192).
3. **Memory** — a subprocess per backend streams the same workload and
   reports its own peak RSS (``ru_maxrss``); fused must not peak above
   the reference streaming baseline (small allocator slack allowed).
   Zero temporaries must not cost memory elsewhere.

Writes ``benchmarks/results/BENCH_ingest.json``.  Run it::

    PYTHONPATH=src python benchmarks/bench_ingest_fused.py [--fast]

(The subprocess mode ``--worker-ingest BACKEND`` is internal.)
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path shim: run from checkout or install)

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).parent / "results"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: Streaming chunk size under test (rows).
CHUNK_ROWS = 1024

#: Minimum fused rows/s over reference rows/s (fast: fused/ref <= 0.83).
SPEEDUP_GATE_FAST = 1 / 0.83
SPEEDUP_GATE_FULL = 1.3

#: Interleaved timing passes per path; each path keeps its best.
REPEATS = 3

#: Fused peak RSS may exceed the reference streaming baseline by at most
#: this factor (allocator jitter); the fused path holds strictly fewer
#: temporaries, so parity is the expectation.
RSS_GATE = 1.05


def _build(dim: int, rows: int, chunk_rows: int):
    """The streamed training cell: stream source + encoder + classifier."""
    from repro.basis import CircularBasis
    from repro.hdc.hypervector import random_hypervectors
    from repro.learning import CentroidClassifier
    from repro.runtime import BatchEncoder
    from repro.streaming import JigsawsStream

    stream = JigsawsStream(
        "suturing", seed=13, chunk_size=chunk_rows,
        samples_per_gesture=max(1, rows // 15),
    )
    embedding = CircularBasis(12, dim, seed=1).circular_embedding(
        period=2.0 * np.pi
    )
    keys = random_hypervectors(18, dim, seed=2)
    encoder = BatchEncoder(keys, embedding, tie_break="zeros",
                           chunk_size=chunk_rows)
    classifier = CentroidClassifier(dim, tie_break="zeros", seed=3)
    return stream, encoder, classifier


def _train(dim: int, rows: int, chunk_rows: int, ingest: str):
    """One streamed pass; returns (seconds, classifier, stats)."""
    from repro.streaming import stream_fit_classifier

    stream, encoder, classifier = _build(dim, rows, chunk_rows)
    start = time.perf_counter()
    stats = stream_fit_classifier(classifier, encoder, stream, ingest=ingest)
    return time.perf_counter() - start, classifier, stats


def worker(dim: int, rows: int, chunk_rows: int, ingest: str) -> None:
    """Subprocess body: stream-train with one backend, print peak RSS."""
    seconds, classifier, stats = _train(dim, rows, chunk_rows, ingest)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "ingest": ingest,
        "rows": stats.rows,
        "chunks": stats.chunks,
        "seconds": seconds,
        "peak_rss_bytes": peak_kib * 1024,  # ru_maxrss is KiB on Linux
        "classes": len(classifier.classes),
    }))


def _spawn(dim: int, rows: int, chunk_rows: int, ingest: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, __file__, "--worker-ingest", ingest,
         "--worker-rows", str(rows), "--dim", str(dim),
         "--chunk-size", str(chunk_rows)],
        capture_output=True, text=True, env=env, timeout=1200, check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def _assert_same_model(reference, candidate, backend: str) -> None:
    assert reference.classes == candidate.classes, (
        f"{backend}: class insertion order diverged "
        f"({reference.classes} vs {candidate.classes})"
    )
    for label in reference.classes:
        assert np.array_equal(
            reference.class_vector(label), candidate.class_vector(label)
        ), f"{backend}: class vector diverged for {label!r}"


def check_exactness(dim: int = 512, rows: int = 600) -> None:
    """``fused`` == ``ref``, bit for bit, classifier and regressor.

    Small in-process runs with the ``"random"`` tie policy — the
    hardest case, because tie coins must land on the same draws however
    the rows are blocked.  (The full property grid lives in
    ``tests/hdc/test_ingest.py``; this is the perf job's tripwire.)
    """
    from repro.basis import CircularBasis
    from repro.hdc.hypervector import random_hypervectors
    from repro.learning import CentroidClassifier, HDRegressor
    from repro.runtime import BatchEncoder
    from repro.streaming import (
        JigsawsStream, stream_fit_classifier, stream_fit_regressor,
    )
    from repro.streaming.chunks import array_chunks

    embedding = CircularBasis(12, dim, seed=1).circular_embedding(
        period=2.0 * np.pi
    )
    keys = random_hypervectors(18, dim, seed=2)

    def classify(ingest):
        stream = JigsawsStream("suturing", seed=13, chunk_size=97,
                               samples_per_gesture=max(1, rows // 15))
        encoder = BatchEncoder(keys, embedding, tie_break="random")
        model = CentroidClassifier(dim, tie_break="zeros", seed=3)
        stream_fit_classifier(model, encoder, stream, seed=5, ingest=ingest)
        return model

    _assert_same_model(classify("ref"), classify("fused"), "fused")

    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 1.0, (rows, 1))
    y = rng.uniform(0.0, 1.0, rows)
    value_emb = CircularBasis(16, dim, seed=4).circular_embedding(period=1.0)

    def regress(ingest):
        model = HDRegressor(value_emb, tie_break="random", seed=6)
        stream_fit_regressor(
            model, value_emb, array_chunks(x, y, chunk_size=89),
            column=0, ingest=ingest,
        )
        return model

    ref_reg, got = regress("ref"), regress("fused")
    assert got.num_samples == ref_reg.num_samples
    assert np.array_equal(got.model, ref_reg.model), (
        "fused: regressor model vector diverged"
    )


def run_suite(fast: bool = False) -> dict:
    dim = 2048 if fast else 8192
    rows = 20_000 if fast else 40_000
    gate = SPEEDUP_GATE_FAST if fast else SPEEDUP_GATE_FULL

    check_exactness()
    print("exactness: ref == fused (bit-identical, random ties, "
          "classifier + regressor)")

    timings = {"ref": float("inf"), "fused": float("inf")}
    streamed_rows = 0
    for _ in range(REPEATS):  # interleave: both paths see the same machine
        for name in timings:
            seconds, _, stats = _train(dim, rows, CHUNK_ROWS, name)
            timings[name] = min(timings[name], seconds)
            streamed_rows = stats.rows
    throughput = {
        name: {
            "seconds": round(seconds, 4),
            "rows_per_s": round(streamed_rows / seconds, 1),
            "speedup_vs_ref": round(timings["ref"] / seconds, 2),
        }
        for name, seconds in timings.items()
    }
    speedup = timings["ref"] / timings["fused"]
    print(
        f"streamed {streamed_rows} rows at d={dim}: ref "
        f"{throughput['ref']['rows_per_s']:.0f} rows/s, fused "
        f"{throughput['fused']['rows_per_s']:.0f} rows/s "
        f"({speedup:.2f}x)"
    )

    rss = {name: _spawn(dim, rows, CHUNK_ROWS, name) for name in ("ref", "fused")}
    rss_ratio = rss["fused"]["peak_rss_bytes"] / rss["ref"]["peak_rss_bytes"]
    print(
        f"peak RSS: ref {rss['ref']['peak_rss_bytes'] / 1e6:.0f} MB, fused "
        f"{rss['fused']['peak_rss_bytes'] / 1e6:.0f} MB "
        f"({rss_ratio:.2f}x baseline)"
    )

    report = {
        "mode": "fast" if fast else "full",
        "dim": dim,
        "rows": streamed_rows,
        "chunk_rows": CHUNK_ROWS,
        "throughput": throughput,
        "fused_speedup": round(speedup, 2),
        "rss": rss,
        "fused_rss_over_ref": round(rss_ratio, 3),
        "gates": {"speedup_min": round(gate, 3), "rss_max_over_ref": RSS_GATE},
    }
    assert speedup >= gate, (
        f"fused ingest is only {speedup:.2f}x the reference rows/s at "
        f"d={dim} (gate: {gate:.3f}x)"
    )
    assert rss_ratio <= RSS_GATE, (
        f"fused ingest peaked at {rss_ratio:.2f}x the reference streaming "
        f"RSS baseline (gate: {RSS_GATE}x) — zero temporaries must not "
        "cost memory elsewhere"
    )
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="smaller dims/rows for CI smoke")
    parser.add_argument("--worker-ingest", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--worker-rows", type=int, default=40_000,
                        help=argparse.SUPPRESS)
    parser.add_argument("--dim", type=int, default=8192, help=argparse.SUPPRESS)
    parser.add_argument("--chunk-size", type=int, default=CHUNK_ROWS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker_ingest is not None:
        worker(args.dim, args.worker_rows, args.chunk_size, args.worker_ingest)
        return 0
    report = run_suite(fast=args.fast)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / "BENCH_ingest.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
