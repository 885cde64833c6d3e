"""Benchmark: the experiment runtime's cell fan-out and artifact cache.

Times the two artifacts with the most independent cells at ``workers=1``
and at ``workers=N`` (default 2) through the library drivers:

1. the full Figure 8 r-sweep (:func:`repro.experiments.run_rsweep`,
   ``datasets × (1 + |r|)`` cells);
2. Table 2 (:func:`repro.experiments.run_table2`, ``datasets × bases``
   cells).

Each pair runs ``REPEATS`` times, alternating which worker count goes
first, and the medians are compared.  The script asserts that every run
returns the serial result exactly, then times the artifact cache (cold
table1 vs a second, cache-hit invocation) and writes a machine-readable
summary to ``benchmarks/results/BENCH_runtime.json`` (committed, so the
perf trajectory is tracked across changes).

Run::

    PYTHONPATH=src python benchmarks/bench_runtime_parallel.py [--fast] [--workers N]

``--fast`` shrinks the sweep for a smoke run, times each side once and
skips the JSON write (the committed file records paper resolution
only).  The recorded speedup is hardware-dependent: the drivers fan
their cells out with :func:`repro.runtime.fan_out`, one forked process
per worker, so it scales with physical cores (the host is recorded
next to every number; on a single-core host the factor is ~1×).
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path shim: run from checkout or install)

import argparse
import os
import statistics
import sys
import tempfile
import time

from repro.experiments import (  # noqa: E402
    ClassificationConfig,
    RegressionConfig,
    run_rsweep,
    run_table1,
    run_table2,
)
from repro.experiments.rsweep import _CLASSIFICATION, _REGRESSION  # noqa: E402

from _results import host, write_result


PAPER_R_VALUES = (0.0, 0.01, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0)
FAST_R_VALUES = (0.0, 0.1, 1.0)

#: Timed (serial, parallel) pairs per artifact at full scale.
REPEATS = 5


def time_call(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def compare(name: str, run, workers: int, repeats: int) -> dict:
    """Time ``run(1)`` against ``run(workers)``, alternating the order.

    Every result must equal the first serial one.  Returns the per-run
    seconds of both sides, their medians and the median speedup.
    """
    reference = None
    times: dict[int, list[float]] = {1: [], workers: []}
    for i in range(repeats):
        for w in ((1, workers) if i % 2 == 0 else (workers, 1)):
            result, seconds = time_call(lambda: run(w))
            if reference is None:
                reference = result
            assert result == reference, f"{name} at workers={w} diverged"
            times[w].append(seconds)
    serial = statistics.median(times[1])
    parallel = statistics.median(times[workers])
    print(f"  {name:<7} workers=1  : {serial:8.2f} s  (median of {repeats})")
    print(f"  {name:<7} workers={workers:<2} : {parallel:8.2f} s  "
          f"-> {serial / parallel:.2f}x")
    return {
        f"{name}_serial_s": [round(t, 3) for t in times[1]],
        f"{name}_parallel_s": [round(t, 3) for t in times[workers]],
        f"{name}_serial_median_s": round(serial, 3),
        f"{name}_parallel_median_s": round(parallel, 3),
        f"{name}_speedup": round(serial / parallel, 3),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="small sweep, one timing each, no JSON write")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    dim = 1024 if args.fast else 10_000
    repeats = 1 if args.fast else REPEATS
    r_values = FAST_R_VALUES if args.fast else PAPER_R_VALUES
    c_config = ClassificationConfig(dim=dim)
    r_config = RegressionConfig(dim=dim)
    datasets = tuple(_CLASSIFICATION) + tuple(_REGRESSION)

    print(f"runtime benchmark: d={dim}, {len(r_values)} r-values, "
          f"{len(datasets)} datasets, workers={args.workers}, "
          f"cpu_count={os.cpu_count()}")

    summary = compare(
        "rsweep",
        lambda w: run_rsweep(
            r_values, datasets=datasets, classification_config=c_config,
            regression_config=r_config, workers=w,
        ),
        args.workers,
        repeats,
    )
    summary |= compare(
        "table2", lambda w: run_table2(r_config, workers=w), args.workers, repeats
    )

    # Artifact cache: cold table1 vs cache-hit re-invocation.
    from repro.runtime import ArtifactStore

    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(root=tmp)
        cold, cold_s = time_call(lambda: run_table1(c_config, store=store))
        warm, warm_s = time_call(lambda: run_table1(c_config, store=store))
        assert cold == warm, "cache returned a different table"
    cache_speedup = cold_s / max(warm_s, 1e-9)
    print(f"  table1 cold          : {cold_s:8.2f} s")
    print(f"  table1 cache hit     : {warm_s:8.4f} s  ({cache_speedup:.0f}x)")

    if not args.fast:
        payload = {
            "dim": dim,
            "r_values": list(r_values),
            "datasets": list(datasets),
            "workers": args.workers,
            "cpu_count": os.cpu_count(),
            "host": host(),
            "repeats": repeats,
            **summary,
            "table1_cold_s": round(cold_s, 3),
            "table1_cache_hit_s": round(warm_s, 5),
            "table1_cache_speedup": round(cache_speedup, 1),
            "bit_identical": True,
        }
        print(f"wrote {write_result('BENCH_runtime', payload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
