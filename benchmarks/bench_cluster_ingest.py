"""Distributed ingest scaling and exactness — the cluster's perf gate.

Measures ``ClusterCoordinator`` throughput over a synthetic labelled
stream against the single-process ``stream_fit_classifier`` baseline,
sweeping the worker-process count, and asserts the tier's defining
property on every point: the merged model is **bitwise identical** to
the serial one (class order, accumulator counts, prototypes).

Two regimes are recorded:

* **clean** — no failures: pure scale-out overhead vs encode parallelism;
* **faulty** — a seeded ``kill -9`` schedule (one worker killed
  mid-chunk, one at a chunk boundary): the cost of crash detection,
  restart and replay, still bit-exact.

Run::

    PYTHONPATH=src python benchmarks/bench_cluster_ingest.py [--fast]

Writes ``benchmarks/results/BENCH_cluster.json`` (the CI ``cluster-sim``
job runs ``--fast``).
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path shim: run from checkout or install)

import argparse
import json
import time
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

from _results import write_result

REPO_ROOT = Path(__file__).resolve().parents[1]

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
    dim = 1024 if fast else 8192
    chunk_size = 25 if fast else 100
    per_gesture = 10 if fast else 40
    worker_counts = (1, 2, 3) if fast else (1, 2, 4, 8)

    stream, encoder = _build(dim, chunk_size, per_gesture)

    start = time.perf_counter()
    serial = CentroidClassifier(dim, tie_break="zeros", seed=0)
    stats = stream_fit_classifier(serial, encoder, stream)
    serial_seconds = time.perf_counter() - start
    total_chunks = stats.chunks

    def cluster_run(workers: int, hook=None) -> tuple[float, bool]:
        model = CentroidClassifier(dim, tie_break="zeros", seed=0)
        begin = time.perf_counter()
        ClusterCoordinator(
            model, stream, RecordEncode(encoder), workers=workers, hook=hook
        ).run()
        return time.perf_counter() - begin, _models_equal(model, serial)

    scaling = []
    for workers in worker_counts:
        seconds, exact = cluster_run(workers)
        assert exact, f"cluster model diverged from serial at workers={workers}"
        scaling.append(
            {
                "workers": workers,
                "seconds": round(seconds, 4),
                "rows_per_second": round(stats.rows / seconds, 1),
                "speedup_vs_serial": round(serial_seconds / seconds, 2),
                "bitwise_identical": exact,
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
    fault_seconds, fault_exact = cluster_run(faulty_workers, hook=plan)
    assert fault_exact, "fault-injected cluster model diverged from serial"
    clean_seconds = scaling[-1]["seconds"]
    faulty = {
        "workers": faulty_workers,
        "kills": len(plan.kills),
        "seconds": round(fault_seconds, 4),
        "overhead_vs_clean": round(fault_seconds / clean_seconds, 2),
        "bitwise_identical": fault_exact,
    }

    return {
        "mode": "fast" if fast else "full",
        "numpy": np.__version__,
        "workload": {
            "task": "suturing",
            "dim": dim,
            "rows": stats.rows,
            "chunks": total_chunks,
            "chunk_size": chunk_size,
        },
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
    out_path = write_result("BENCH_cluster", summary)
    print(json.dumps(summary, indent=2))
    print(f"\nsummary written to {out_path}")

    failures = check_gates(summary)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        raise SystemExit(1)
    print("all cluster gates passed (bitwise identity, clean + faulty regimes)")


if __name__ == "__main__":
    main()
