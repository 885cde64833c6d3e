"""Similarity-kernel benchmark: speedups, crossover surface, exactness.

Measures the two exact backends of :mod:`repro.hdc.kernels` — the
private ``_xor_counts`` and ``_gemm_counts``, called directly — and the
dispatching ``pairwise_hamming`` (reported as ``auto``) against each
other and against the packed layer's byte-wise reference scan
(:func:`~repro.hdc.packed.packed_pairwise_hamming`).  A full run
writes a machine-readable report to
``benchmarks/results/BENCH_kernels.json`` (committed, so the perf
trajectory is tracked across PRs); ``--fast`` writes nothing.  Four
sections:

* **headline** — the paper-scale all-pairs workload (n = m ≈ 1k,
  d = 10,000): the GEMM backend must beat the byte-wise reference scan
  by ≥ 5× (the acceptance gate of the kernels PR; skipped at ``--fast``
  scale where the problem is too small for the floor to be meaningful).
  The ``uint64`` word scan (``xor``) is timed alongside and recorded,
  not gated;
* **crossover surface** — per-backend timings over an ``(n, m, d)``
  grid, the evidence behind the dispatch rule (GEMM once the harmonic
  size ``n·m / (n+m)`` reaches ``AUTO_CROSSOVER``);
* **topk** — fused :func:`~repro.hdc.kernels.topk_hamming` against the
  materialise-then-argsort route it replaces;
* **retrieval** — end-to-end :class:`~repro.hdc.memory.ItemMemory`
  batch queries, where the dispatch turns the whole scan into one BLAS
  product (timed against the same queries with the dispatch held on the
  XOR scan).

Every timed pair is also checked for **bitwise agreement** — a backend
that drifts by one ULP fails the run, in CI too (the perf-smoke job runs
``--fast``).  The gates:

* all backends bit-identical to the byte-wise reference on every
  measured point (always),
* ``gemm`` is never slower than ``xor`` beyond the recorded crossover
  (tolerance for runner noise; always),
* the ≥ 5× headline floor over the byte-wise reference (full scale only).

Run it::

    PYTHONPATH=src python benchmarks/bench_kernels_similarity.py [--fast]
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path shim: run from checkout or install)

import argparse
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.hdc import ItemMemory, PackedHV, kernels
from repro.hdc.kernels import (
    AUTO_CROSSOVER,
    pairwise_hamming,
    topk_hamming,
    use_gemm,
)
from repro.hdc.packed import packed_pairwise_hamming

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

#: The acceptance floor for the paper-scale headline workload: GEMM
#: over the byte-wise reference scan.
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


def _warm_up(seconds: float = 1.0) -> None:
    """Keep BLAS busy for ``seconds`` before the first timed point.

    On some virtualised hosts the multi-threaded BLAS calls of a fresh
    process run an order of magnitude slow for their first half second
    or so (measured on a 2-vCPU VM: 48 ms instead of 2 ms for a
    192 × 192 × 2048 product, in about one process in four).  Timing
    through that window would gate on the host, not on the kernels.
    """
    x = np.ones((256, 2048), dtype=np.float32)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        x @ x.T


def _random_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return rng.integers(0, 2, (n, d), dtype=np.uint8)


def _packed_pair(rng, n, m, d) -> tuple[PackedHV, PackedHV]:
    """Random pre-packed operands — the production representation every
    consumer holds: ItemMemory rows, prototype tables and encoded
    corpora are all :class:`PackedHV` already."""
    return PackedHV.pack(_random_rows(rng, n, d)), PackedHV.pack(_random_rows(rng, m, d))


def _xor(a: PackedHV, b: PackedHV) -> np.ndarray:
    """Distances from the XOR scan backend alone."""
    return kernels._xor_counts(a.data, b.data, a.dim, normalize=True)


def _gemm(a: PackedHV, b: PackedHV) -> np.ndarray:
    """Distances from the GEMM backend alone."""
    return kernels._gemm_counts(a.data, b.data, a.dim, normalize=True)


@contextmanager
def _dispatch_held_on_xor():
    """Send every dispatched call to the XOR scan until the block exits.

    The dispatch reads :data:`~repro.hdc.kernels.AUTO_CROSSOVER` per
    call, so an infinite threshold routes a whole consumer (here
    :class:`~repro.hdc.memory.ItemMemory`) through ``xor``.
    """
    saved = kernels.AUTO_CROSSOVER
    kernels.AUTO_CROSSOVER = float("inf")
    try:
        yield
    finally:
        kernels.AUTO_CROSSOVER = saved


def _measure_point(a: PackedHV, b: PackedHV, repeats) -> dict:
    """Time both backends and the dispatch on one (n, m, d) point; assert
    agreement with the byte-wise reference scan."""
    n, m, d = a.shape[0], b.shape[0], a.dim
    ref = packed_pairwise_hamming(a, b)
    results = {}
    for name, fn in (("xor", _xor), ("gemm", _gemm), ("auto", pairwise_hamming)):
        assert np.array_equal(fn(a, b), ref), (
            f"backend {name} disagrees bitwise at n={n} m={m} d={d}"
        )
        results[name] = _time(lambda fn=fn: fn(a, b), repeats)
    return {
        "n": n,
        "m": m,
        "d": d,
        "harmonic_size": round(n * m / (n + m), 2),
        "auto_picks": "gemm" if use_gemm(n, m) else "xor",
        "seconds": {k: round(v, 6) for k, v in results.items()},
        "xor_over_gemm": round(results["xor"] / results["gemm"], 2),
    }


def run_suite(fast: bool = False) -> dict:
    rng = np.random.default_rng(0)
    repeats = 3 if fast else 5
    _warm_up()

    # -- headline: the paper-scale all-pairs workload -------------------------
    n_head, d_head = (192, 2048) if fast else (1000, 10_000)
    head_a, head_b = _packed_pair(rng, n_head, n_head, d_head)
    head = _measure_point(head_a, head_b, repeats)
    byte_scan = _time(lambda: packed_pairwise_hamming(head_a, head_b), repeats)
    headline = {
        "workload": f"all-pairs hamming, n=m={n_head}, d={d_head}",
        "byte_scan_seconds": round(byte_scan, 6),
        "xor_seconds": head["seconds"]["xor"],
        "gemm_seconds": head["seconds"]["gemm"],
        "auto_seconds": head["seconds"]["auto"],
        "speedup_gemm_over_byte_scan": round(byte_scan / head["seconds"]["gemm"], 2),
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
        _measure_point(*_packed_pair(rng, n, m, d), repeats)
        for d in dims
        for (n, m) in grid
    ]

    # -- fused top-k vs materialise-then-sort ---------------------------------
    tk_n, tk_m, tk_d, tk_k = (64, 512, 1024, 10) if fast else (256, 4096, 10_000, 10)
    queries = PackedHV.pack(_random_rows(rng, tk_n, tk_d))
    table = PackedHV.pack(_random_rows(rng, tk_m, tk_d))

    def full_sort():
        dist = _xor(queries, table)
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
    answers = mem.query_batch(mem_queries)
    with _dispatch_held_on_xor():
        assert mem.query_batch(mem_queries) == answers, (
            "ItemMemory answers differ across backends"
        )
        xor_seconds = _time(lambda: mem.query_batch(mem_queries), repeats)
    retrieval = {
        "workload": f"ItemMemory.query_batch, {mem_q} queries over {mem_m} items, d={mem_d}",
        "xor_seconds": round(xor_seconds, 6),
        "auto_seconds": round(_time(lambda: mem.query_batch(mem_queries), repeats), 6),
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
        speedup = head["speedup_gemm_over_byte_scan"]
        if speedup < HEADLINE_FLOOR:
            failures.append(
                f"headline speedup {speedup}x over the byte-wise scan is below "
                f"the {HEADLINE_FLOOR}x floor"
            )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="reduced scale for CI perf-smoke runs")
    args = parser.parse_args()

    summary = run_suite(fast=args.fast)
    print(json.dumps(summary, indent=2))
    if not args.fast:  # a --fast run never overwrites the committed full result
        print(f"\nsummary written to {write_result('BENCH_kernels', summary)}")
    head = summary["headline"]
    print(f"headline: {head['speedup_gemm_over_byte_scan']}x gemm over the byte-wise "
          f"scan, {head['speedup_gemm_over_xor']}x over the xor word scan "
          f"({head['workload']})")

    failures = check_gates(summary, fast=args.fast)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        raise SystemExit(1)
    print("all kernel gates passed (bitwise agreement + crossover + speedup floor)")


if __name__ == "__main__":
    main()
