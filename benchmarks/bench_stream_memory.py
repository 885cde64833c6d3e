"""Streaming-fit memory gate: peak RSS stays O(chunk), results stay exact.

The streaming pipeline's whole point is that training memory is bounded
by the chunk size, not the dataset size.  This benchmark proves it with
real processes:

1. **Bounded growth** — a subprocess trains a classifier via
   ``stream_fit_classifier`` at two stream lengths (4× apart) and
   reports its own peak RSS (``ru_maxrss``).  The gate asserts the peak
   grows far slower than the data (streaming holds chunks, not splits).
2. **Budget and beats materialisation** — the larger run (60,000 rows
   at d = 2048 with ``--fast``) must peak at no more than
   :data:`PEAK_RSS_MB_MAX` and stay well below the bytes the *unpacked
   encoded split* would occupy (``n × d``), i.e. the allocation the
   pre-streaming pipeline paid.
3. **Exactness** — in-process, a streamed fit at small scale must equal
   the monolithic fit bit for bit (the full property grid lives in
   ``tests/streaming/``; this is the perf job's sanity tripwire).

Both modes check the same budgets and print the report as JSON to
stdout; the script writes no file.  Run it::

    PYTHONPATH=src python benchmarks/bench_stream_memory.py [--fast]

(The subprocess mode ``--worker-rows N`` is internal.)
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

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: Streaming chunk size under test (rows) — the configured memory unit.
CHUNK_ROWS = 256

#: Peak RSS at 4× the rows may grow at most this factor (pure O(chunk)
#: would be 1.0; slack covers allocator jitter and the generator state).
GROWTH_GATE = 1.35

#: Peak RSS must stay below this fraction of the unpacked encoded-split
#: bytes the monolithic path would have materialised.
MATERIALISE_GATE = 0.75

#: Peak RSS budget (MB) of the larger run.
PEAK_RSS_MB_MAX = 160.0


def _build(dim: int, rows: int, chunk_rows: int):
    """The streamed training cell: stream source + encoder + classifier."""
    from repro.basis import CircularBasis
    from repro.hdc.hypervector import random_hypervectors
    from repro.learning import CentroidClassifier
    from repro.runtime import BatchEncoder
    from repro.streaming import JigsawsStream

    per_gesture = max(1, rows // 15)
    stream = JigsawsStream(
        "suturing", seed=13, chunk_size=chunk_rows,
        samples_per_gesture=per_gesture,
    )
    embedding = CircularBasis(12, dim, seed=1).circular_embedding(
        period=2.0 * np.pi
    )
    keys = random_hypervectors(18, dim, seed=2)
    encoder = BatchEncoder(keys, embedding, tie_break="zeros")
    classifier = CentroidClassifier(dim, tie_break="zeros", seed=3)
    return stream, encoder, classifier


def worker(dim: int, rows: int, chunk_rows: int) -> None:
    """Subprocess body: stream-train, print peak RSS as JSON."""
    from repro.streaming import stream_fit_classifier

    stream, encoder, classifier = _build(dim, rows, chunk_rows)
    start = time.perf_counter()
    stats = stream_fit_classifier(classifier, encoder, stream)
    elapsed = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "rows": stats.rows,
        "chunks": stats.chunks,
        "seconds": elapsed,
        "peak_rss_bytes": peak_kib * 1024,  # ru_maxrss is KiB on Linux
        "classes": len(classifier.classes),
    }))


def _spawn(dim: int, rows: int, chunk_rows: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, __file__, "--worker-rows", str(rows),
         "--dim", str(dim), "--chunk-size", str(chunk_rows)],
        capture_output=True, text=True, env=env, timeout=1200, check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def check_exactness(dim: int = 512, rows: int = 300) -> None:
    """Streamed fit == monolithic fit, bit for bit (small in-process run)."""
    from repro.learning import CentroidClassifier
    from repro.streaming import stream_fit_classifier

    stream, encoder, streamed = _build(dim, rows, CHUNK_ROWS)
    stream_fit_classifier(streamed, encoder, stream)
    x, y = stream.materialize()
    mono = CentroidClassifier(dim, tie_break="zeros", seed=3)
    mono.fit(encoder.encode(x, packed=True), y.tolist())
    assert streamed.classes == mono.classes
    for label in mono.classes:
        assert np.array_equal(
            streamed.class_vector(label), mono.class_vector(label)
        ), f"streamed class vector diverged for {label!r}"


def run_suite(fast: bool = False) -> dict:
    dim = 2048 if fast else 8192
    big_rows = 60_000 if fast else 240_000
    base_rows = big_rows // 4

    check_exactness()
    print("exactness: streamed fit == monolithic fit (bit-identical)")

    small = _spawn(dim, base_rows, CHUNK_ROWS)
    big = _spawn(dim, big_rows, CHUNK_ROWS)
    growth = big["peak_rss_bytes"] / small["peak_rss_bytes"]
    would_be_unpacked = big["rows"] * dim  # 1 byte/bit encoded split
    would_be_packed = big["rows"] * (dim // 8)
    ratio_vs_unpacked = big["peak_rss_bytes"] / would_be_unpacked
    peak_mb = big["peak_rss_bytes"] / 1e6

    report = {
        "dim": dim,
        "chunk_rows": CHUNK_ROWS,
        "runs": {"small": small, "big": big},
        "peak_growth_at_4x_rows": growth,
        "would_be_unpacked_bytes": would_be_unpacked,
        "would_be_packed_bytes": would_be_packed,
        "peak_over_unpacked_split": ratio_vs_unpacked,
        "peak_rss_mb": round(peak_mb, 1),
        "gates": {
            "growth_max": GROWTH_GATE,
            "materialise_max": MATERIALISE_GATE,
            "peak_rss_mb_max": PEAK_RSS_MB_MAX,
        },
    }
    print(
        f"streamed {small['rows']} rows: peak RSS "
        f"{small['peak_rss_bytes'] / 1e6:.0f} MB; "
        f"{big['rows']} rows: {big['peak_rss_bytes'] / 1e6:.0f} MB "
        f"(growth {growth:.2f}x at 4x data)"
    )
    print(
        f"monolithic unpacked encoded split would be "
        f"{would_be_unpacked / 1e6:.0f} MB; streaming peaked at "
        f"{100 * ratio_vs_unpacked:.0f}% of that"
    )
    assert growth < GROWTH_GATE, (
        f"peak RSS grew {growth:.2f}x for 4x the rows — not O(chunk) "
        f"(gate: {GROWTH_GATE}x)"
    )
    assert peak_mb <= PEAK_RSS_MB_MAX, (
        f"streaming peak RSS is {peak_mb:.0f} MB over {big['rows']} rows "
        f"(budget: {PEAK_RSS_MB_MAX:.0f} MB)"
    )
    assert ratio_vs_unpacked < MATERIALISE_GATE, (
        f"streaming peak RSS is {100 * ratio_vs_unpacked:.0f}% of the "
        f"unpacked encoded split — no memory win over materialising "
        f"(gate: {100 * MATERIALISE_GATE:.0f}%)"
    )
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="smaller dims/rows for CI smoke")
    parser.add_argument("--worker-rows", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--dim", type=int, default=8192, help=argparse.SUPPRESS)
    parser.add_argument("--chunk-size", type=int, default=CHUNK_ROWS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker_rows is not None:
        worker(args.dim, args.worker_rows, args.chunk_size)
        return 0
    report = run_suite(fast=args.fast)  # checks every budget, in both modes
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
