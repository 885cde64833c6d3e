"""Distributed ingest scaling and exactness — the cluster's perf gate.

Measures ``ClusterCoordinator`` throughput over a synthetic labelled
stream against the single-process ``stream_fit_classifier`` baseline,
sweeping the worker-process count, and asserts the tier's defining
property on every run: the merged model is **bitwise identical** to
the serial one (class order, accumulator counts, prototypes).  The full
mode runs the ``train_file`` shape of ``perfbench/`` and records the
host and every repeat.

Two regimes are recorded:

* **clean** — no failures: pure scale-out overhead vs encode parallelism;
* **faulty** — a seeded ``kill -9`` schedule (one worker killed
  mid-chunk, one at a chunk boundary): the cost of crash detection,
  restart and replay, still bit-exact.

Run::

    PYTHONPATH=src python benchmarks/bench_cluster_ingest.py [--fast]

A full run writes ``benchmarks/results/BENCH_cluster.json``; a ``--fast``
run (the CI ``cluster-sim`` job) prints its summary and checks the gates
without touching the committed full-scale record.
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path shim: run from checkout or install)

import argparse
import json
import statistics
import time
from functools import partial
from pathlib import Path

import numpy as np

from repro.basis import CircularBasis
from repro.cluster import (
    PHASE_CHUNK_SENT,
    PHASE_CHUNK_START,
    ClusterCoordinator,
    CrashPlan,
)
from repro.hdc.hypervector import random_hypervectors
from repro.learning import CentroidClassifier
from repro.runtime import BatchEncoder
from repro.streaming import JigsawsStream, RecordEncode, stream_fit_classifier

from _results import host, write_result

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Full mode runs perfbench's ``train_file`` shape: Suturing rows at
#: d = 10,000 in 1,024-row chunks, 15 gestures x 6,700 = 100,500 rows,
#: each side timed this many times, in alternating order.
FULL_PER_GESTURE = 6_700
FULL_REPEATS = 5

#: Fault-recovery overhead ceiling: a two-kill run may cost at most this
#: many times the clean run at the same worker count (replay is bounded
#: by one checkpoint interval per victim; the rest is respawn latency).
FAULT_OVERHEAD_CEILING = 10.0


def _models_equal(a: CentroidClassifier, b: CentroidClassifier) -> bool:
    return a.classes == b.classes and all(
        np.array_equal(a.class_vector(c), b.class_vector(c)) for c in a.classes
    )


def _build(dim: int, chunk_size: int, per_gesture: int):
    stream = JigsawsStream(
        "suturing", seed=3, chunk_size=chunk_size, samples_per_gesture=per_gesture
    )
    embedding = CircularBasis(16, dim, seed=1).circular_embedding(period=2 * np.pi)
    encoder = BatchEncoder(
        random_hypervectors(18, dim, seed=2), embedding, tie_break="zeros"
    )
    return stream, encoder


def run_suite(fast: bool = False) -> dict:
    if fast:
        dim, chunk_size, per_gesture = 1024, 25, 10
        worker_counts, repeats = (1, 2, 3), 1
    else:  # perfbench's train_file shape
        dim, chunk_size, per_gesture = 10_000, 1024, FULL_PER_GESTURE
        worker_counts, repeats = (1, 2), FULL_REPEATS

    stream, encoder = _build(dim, chunk_size, per_gesture)

    def in_process() -> CentroidClassifier:
        model = CentroidClassifier(dim, tie_break="zeros", seed=0)
        stream_fit_classifier(model, encoder, stream)
        return model

    def cluster_run(workers: int, hook=None) -> CentroidClassifier:
        model = CentroidClassifier(dim, tie_break="zeros", seed=0)
        ClusterCoordinator(
            model, stream, RecordEncode(encoder), workers=workers, hook=hook
        ).run()
        return model

    serial = in_process()
    rows, total_chunks = stream.num_rows, -(-stream.num_rows // chunk_size)
    sides = {0: in_process, **{w: partial(cluster_run, w) for w in worker_counts}}
    runs: dict[int, list[float]] = {side: [] for side in sides}
    for i in range(repeats):  # alternate the order, so drift hits every side
        for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            begin = time.perf_counter()
            model = sides[side]()
            runs[side].append(time.perf_counter() - begin)
            assert _models_equal(model, serial), f"diverged from serial at workers={side}"
    serial_seconds = statistics.median(runs[0])
    scaling = []
    for workers in worker_counts:
        seconds = statistics.median(runs[workers])
        scaling.append(
            {
                "workers": workers,
                "runs": [round(t, 4) for t in runs[workers]],
                "seconds": round(seconds, 4),
                "rows_per_second": round(rows / seconds, 1),
                "speedup_vs_serial": round(serial_seconds / seconds, 2),
                "bitwise_identical": True,  # every run asserted above
            }
        )

    # faulty regime: one mid-chunk kill + one boundary kill, max workers
    faulty_workers = worker_counts[-1]
    victims = (0, 1 % faulty_workers)
    plan = CrashPlan.at(
        (victims[0], 0, victims[0], PHASE_CHUNK_START),
        (victims[1], 0, min(faulty_workers + victims[1], total_chunks - 1),
         PHASE_CHUNK_SENT),
    )
    begin = time.perf_counter()
    faulty_model = cluster_run(faulty_workers, hook=plan)
    fault_seconds = time.perf_counter() - begin
    fault_exact = _models_equal(faulty_model, serial)
    assert fault_exact, "fault-injected cluster model diverged from serial"
    faulty = {
        "workers": faulty_workers,
        "kills": len(plan.kills),
        "seconds": round(fault_seconds, 4),
        "overhead_vs_clean": round(fault_seconds / scaling[-1]["seconds"], 2),
        "bitwise_identical": fault_exact,
    }

    return {
        "mode": "fast" if fast else "full",
        "host": host(),
        "workload": {
            "task": "suturing",
            "dim": dim,
            "rows": rows,
            "chunks": total_chunks,
            "chunk_size": chunk_size,
        },
        "repeats": repeats,
        "serial_runs": [round(t, 4) for t in runs[0]],
        "serial_seconds": round(serial_seconds, 4),
        "scaling": scaling,
        "faulty": faulty,
        "bitwise_identical": True,  # every point asserted above
    }


def check_gates(summary: dict) -> list[str]:
    failures = []
    if not all(point["bitwise_identical"] for point in summary["scaling"]):
        failures.append("a scaling point lost bitwise identity")
    if not summary["faulty"]["bitwise_identical"]:
        failures.append("the fault-injected run lost bitwise identity")
    overhead = summary["faulty"]["overhead_vs_clean"]
    if overhead > FAULT_OVERHEAD_CEILING:
        failures.append(
            f"fault recovery overhead {overhead}x exceeds the "
            f"{FAULT_OVERHEAD_CEILING}x ceiling"
        )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="reduced scale for CI cluster-sim runs")
    args = parser.parse_args()

    summary = run_suite(fast=args.fast)
    print(json.dumps(summary, indent=2))
    if not args.fast:  # a --fast run never overwrites the committed full result
        print(f"\nsummary written to {write_result('BENCH_cluster', summary)}")

    failures = check_gates(summary)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        raise SystemExit(1)
    print("all cluster gates passed (bitwise identity, clean + faulty regimes)")


if __name__ == "__main__":
    main()
