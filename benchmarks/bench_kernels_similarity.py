"""Similarity-kernel benchmark: speedups, crossover surface, exactness.

Measures the exact kernel backends of :mod:`repro.hdc.kernels`
(``xor``, ``xor-mt``, ``gemm``, ``auto``) against each other and writes
a machine-readable report to ``benchmarks/results/BENCH_kernels.json``
(committed, so the perf trajectory is tracked across PRs).  Four
sections:

* **headline** — the paper-scale all-pairs workload (n = m ≈ 1k,
  d = 10,000): the GEMM backend must beat the XOR-popcount reference by
  ≥ 5× (the acceptance gate of the kernels PR; skipped at ``--fast``
  scale where the problem is too small for the floor to be meaningful);
* **crossover surface** — per-backend timings over an ``(n, m, d)``
  grid, the evidence behind the ``auto`` dispatch rule (the GEMM side
  collapses to the harmonic size ``n·m / (n+m)``; ``d`` cancels.  The
  ``xor`` / ``xor-mt`` split follows the cube's byte-cell count;
  ``REPRO_KERNEL_CROSSOVER`` / ``REPRO_KERNEL_MT_CELLS`` move both
  thresholds);
* **topk** — fused :func:`~repro.hdc.kernels.topk_hamming` against the
  materialise-then-argsort route it replaces;
* **retrieval** — end-to-end :class:`~repro.hdc.memory.ItemMemory`
  batch queries, where the ``auto`` dispatch turns the whole scan into
  one BLAS product.

Every timed pair is also checked for **bitwise agreement** — a backend
that drifts by one ULP fails the run, in CI too (the perf-smoke job runs
``--fast``).  The gates:

* all backends bit-identical on every measured point (always),
* ``gemm`` is never slower than ``xor`` beyond the recorded crossover
  (tolerance for runner noise; always),
* the ≥ 5× headline floor (full scale only).

Run it::

    PYTHONPATH=src python benchmarks/bench_kernels_similarity.py [--fast]
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path shim: run from checkout or install)

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.hdc import ItemMemory, PackedHV
from repro.hdc.kernels import (
    AUTO_CROSSOVER,
    pairwise_hamming,
    topk_hamming,
    use_gemm,
    use_xor_mt,
)

from _results import write_result

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Timing tolerance for the "gemm beats xor beyond the crossover" gate —
#: absorbs scheduler noise on shared CI runners without hiding a real
#: regression (the measured margins are 3–8×).
GATE_TOLERANCE = 1.25

#: The crossover gate only fires on points whose xor time is at least
#: this (seconds): microsecond-scale grid points are recorded but not
#: gated — at that scale one scheduler hiccup outweighs the kernel.
GATE_MIN_SECONDS = 0.002

#: The acceptance floor for the paper-scale headline workload.
HEADLINE_FLOOR = 5.0


def _time(fn, repeats: int = 5) -> float:
    """Best-of-``repeats`` wall time of ``fn`` in seconds (one warm-up)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _random_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return rng.integers(0, 2, (n, d), dtype=np.uint8)


def _measure_point(rng, n, m, d, repeats) -> dict:
    """Time all three backends on one (n, m, d) point; assert agreement.

    Operands are pre-packed (outside the timed region) — the production
    representation every consumer holds: ItemMemory rows, prototype
    tables and encoded corpora are all :class:`PackedHV` already.
    """
    a = PackedHV.pack(_random_rows(rng, n, d))
    b = PackedHV.pack(_random_rows(rng, m, d))
    results = {}
    outputs = {}
    for backend in ("xor", "xor-mt", "gemm", "auto"):
        outputs[backend] = pairwise_hamming(a, b, backend=backend)
        results[backend] = _time(lambda be=backend: pairwise_hamming(a, b, backend=be), repeats)
    for backend in ("xor-mt", "gemm", "auto"):
        assert np.array_equal(outputs[backend], outputs["xor"]), (
            f"backend {backend} disagrees bitwise at n={n} m={m} d={d}"
        )
    if use_gemm(n, m, d):
        auto_picks = "gemm"
    elif use_xor_mt(n, m, d):
        auto_picks = "xor-mt"
    else:
        auto_picks = "xor"
    return {
        "n": n,
        "m": m,
        "d": d,
        "harmonic_size": round(n * m / (n + m), 2),
        "auto_picks": auto_picks,
        "seconds": {k: round(v, 6) for k, v in results.items()},
        "xor_over_gemm": round(results["xor"] / results["gemm"], 2),
        "xor_over_xor_mt": round(results["xor"] / results["xor-mt"], 2),
    }


def run_suite(fast: bool = False) -> dict:
    rng = np.random.default_rng(0)
    repeats = 3 if fast else 5

    # -- headline: the paper-scale all-pairs workload -------------------------
    n_head, d_head = (192, 2048) if fast else (1000, 10_000)
    head = _measure_point(rng, n_head, n_head, d_head, repeats)
    headline = {
        "workload": f"all-pairs hamming, n=m={n_head}, d={d_head}",
        "xor_seconds": head["seconds"]["xor"],
        "gemm_seconds": head["seconds"]["gemm"],
        "auto_seconds": head["seconds"]["auto"],
        "speedup_gemm_over_xor": head["xor_over_gemm"],
    }

    # -- crossover surface ----------------------------------------------------
    if fast:
        grid = [(1, 64), (8, 32), (32, 32), (64, 64), (128, 128)]
        dims = (512, 2048)
    else:
        grid = [(1, 100), (1, 1000), (8, 64), (32, 32), (64, 64),
                (100, 100), (64, 256), (256, 256), (1000, 10)]
        dims = (1000, 10_000)
    surface = [
        _measure_point(rng, n, m, d, repeats) for d in dims for (n, m) in grid
    ]

    # -- fused top-k vs materialise-then-sort ---------------------------------
    tk_n, tk_m, tk_d, tk_k = (64, 512, 1024, 10) if fast else (256, 4096, 10_000, 10)
    queries = PackedHV.pack(_random_rows(rng, tk_n, tk_d))
    table = PackedHV.pack(_random_rows(rng, tk_m, tk_d))

    def full_sort():
        dist = pairwise_hamming(queries, table, backend="xor")
        order = np.argsort(dist, axis=1, kind="stable")[:, :tk_k]
        return order, np.take_along_axis(dist, order, axis=1)

    ref_idx, ref_dist = full_sort()
    fused = topk_hamming(queries, table, tk_k)
    assert np.array_equal(fused.indices, ref_idx), "topk disagrees with full sort"
    assert np.array_equal(fused.distances, ref_dist)
    topk = {
        "workload": f"top-{tk_k} of n={tk_n} queries over m={tk_m}, d={tk_d}",
        "full_sort_seconds": round(_time(full_sort, repeats), 6),
        "fused_topk_seconds": round(
            _time(lambda: topk_hamming(queries, table, tk_k), repeats), 6
        ),
    }
    topk["speedup"] = round(topk["full_sort_seconds"] / topk["fused_topk_seconds"], 2)

    # -- end-to-end retrieval through ItemMemory ------------------------------
    mem_m, mem_d, mem_q = (256, 1024, 128) if fast else (1000, 10_000, 1000)
    mem = ItemMemory(dim=mem_d)
    table_rows = _random_rows(rng, mem_m, mem_d)
    for i in range(mem_m):
        mem.add(i, table_rows[i])
    mem_queries = PackedHV.pack(_random_rows(rng, mem_q, mem_d))
    assert mem.query_batch(mem_queries, backend="auto") == mem.query_batch(
        mem_queries, backend="xor"
    ), "ItemMemory answers differ across backends"
    retrieval = {
        "workload": f"ItemMemory.query_batch, {mem_q} queries over {mem_m} items, d={mem_d}",
        "xor_seconds": round(
            _time(lambda: mem.query_batch(mem_queries, backend="xor"), repeats), 6
        ),
        "auto_seconds": round(
            _time(lambda: mem.query_batch(mem_queries, backend="auto"), repeats), 6
        ),
    }
    retrieval["speedup_auto_over_xor"] = round(
        retrieval["xor_seconds"] / retrieval["auto_seconds"], 2
    )

    return {
        "mode": "fast" if fast else "full",
        "numpy": np.__version__,
        "auto_crossover_harmonic_size": AUTO_CROSSOVER,
        "bitwise_identical": True,  # every section asserted it above
        "headline": headline,
        "crossover_surface": surface,
        "topk": topk,
        "retrieval": retrieval,
    }


def check_gates(summary: dict, fast: bool) -> list[str]:
    """Return a list of gate violations (empty = pass)."""
    failures = []
    gated = [
        (f"n={p['n']} m={p['m']} d={p['d']}", p["seconds"]["xor"], p["seconds"]["gemm"])
        for p in summary["crossover_surface"]
        if p["auto_picks"] == "gemm"
    ]
    head = summary["headline"]
    gated.append(("headline", head["xor_seconds"], head["gemm_seconds"]))
    for label, xor_s, gemm_s in gated:
        if xor_s < GATE_MIN_SECONDS:
            continue  # microsecond point: recorded, not gated
        if gemm_s > xor_s * GATE_TOLERANCE:
            failures.append(
                f"gemm slower than xor beyond the crossover at {label}: "
                f"{gemm_s:.4f}s vs {xor_s:.4f}s"
            )
    if not fast:
        speedup = summary["headline"]["speedup_gemm_over_xor"]
        if speedup < HEADLINE_FLOOR:
            failures.append(
                f"headline speedup {speedup}x is below the {HEADLINE_FLOOR}x floor"
            )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="reduced scale for CI perf-smoke runs")
    args = parser.parse_args()

    summary = run_suite(fast=args.fast)
    out_path = write_result("BENCH_kernels", summary)
    print(json.dumps(summary, indent=2))
    print(f"\nsummary written to {out_path}")
    print(f"headline: {summary['headline']['speedup_gemm_over_xor']}x gemm over xor "
          f"({summary['headline']['workload']})")

    failures = check_gates(summary, fast=args.fast)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        raise SystemExit(1)
    print("all kernel gates passed (bitwise agreement + crossover + speedup floor)")


if __name__ == "__main__":
    main()
