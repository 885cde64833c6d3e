"""``repro calibrate``: measure this host's performance surface.

The measurement half of the tuning loop.  One call to :func:`calibrate`
sweeps:

* the **kernel surface** — xor / xor-mt / gemm wall time over a grid of
  ``(n, m)`` batch shapes at the working dimensionality, verifying the
  backends agree bitwise at every point while timing them;
* the **top-k retrieval** path at representative shapes (recorded for
  the report; top-k rides the same backend dispatch);
* the **streaming chunk curve** — end-to-end streamed training time as
  a function of the chunk size;
* the **worker-** and **thread-scaling** curves for the encode pool and
  the ``xor-mt`` backend;
* the **serve batching curve** — per-row cost of a coalesced
  ``predict_coalesced`` micro-batch against the single-request path,
  from which the serving tier's ``serve.batch_max`` /
  ``serve.batch_window_ms`` knobs are derived.

From the surface it derives the dispatch thresholds by explicit
minimisation: every candidate ``(gemm_crossover, xor_mt_min_cells)``
pair is scored by the total measured time of the backends it would
pick, and the best pair wins — so the calibrated ``auto`` dispatch is
optimal over the measured grid by construction, and the report records
how far ``auto`` sits from the per-point best backend.

The derived knobs are wrapped in a
:class:`~repro.tuning.calibration.Calibration` artifact (see that
module for the schema and activation), and the full surface — every
timed point, the chosen thresholds, the xor-mt speedup on the
GEMM-losing regime — is returned as a JSON-ready report
(``BENCH_calibration.json`` at the repo root, written by the CLI).
"""

from __future__ import annotations

import os
import time
from typing import Callable

import numpy as np

from ..hdc import kernels as _kernels
from ..hdc.packed import DEFAULT_CELL_BUDGET, PackedHV, packed_width
from ..serve import batching as _serve_defaults
from .calibration import Calibration

__all__ = ["calibrate", "default_knobs"]

#: ``(n, m)`` kernel sweep grid: the GEMM-losing strip (one side tiny),
#: the crossover neighbourhood (balanced mid sizes) and the GEMM-winning
#: corner, so the derived thresholds see all three regimes.
_SWEEP_POINTS = (
    (1, 64),
    (1, 1000),
    (4, 1000),
    (4, 2000),
    (8, 1000),
    (16, 64),
    (32, 32),
    (48, 48),
    (64, 64),
    (128, 128),
    (256, 256),
)

_FAST_SWEEP_POINTS = (
    (1, 64),
    (1, 1000),
    (4, 1000),
    (8, 1000),
    (32, 32),
    (64, 64),
    (128, 128),
)

#: Shapes timed through :func:`repro.hdc.kernels.topk_hamming`.
_TOPK_POINTS = ((8, 2000, 10), (64, 1000, 5))

#: Chunk-size candidates for the streamed-training curve.
_CHUNK_CANDIDATES = (256, 512, 1024, 2048)

#: Coalesced-batch-size candidates for the serve batching curve.
_SERVE_BATCH_CANDIDATES = (8, 16, 32, 64)
_FAST_SERVE_BATCH_CANDIDATES = (8, 16, 32)

#: The fixed backends the sweep times (``auto`` is timed afterwards,
#: with the derived thresholds active).
_FIXED_BACKENDS = ("xor", "xor-mt", "gemm")


def default_knobs() -> dict:
    """The built-in knob values, in calibration-artifact layout.

    What an uncalibrated process effectively runs with — and the
    fallback any knob the sweep could not improve keeps.

    >>> default_knobs()["kernels"]["gemm_crossover"]
    16.0
    """
    return {
        "kernels": {
            "gemm_crossover": _kernels.AUTO_CROSSOVER,
            "xor_mt_min_cells": _kernels.XOR_MT_MIN_CELLS,
            "xor_mt_threads": os.cpu_count() or 1,
            "cell_budget": DEFAULT_CELL_BUDGET,
        },
        "streaming": {"chunk_rows": 1024},
        "runtime": {"workers": 1},
        "serve": {
            "batch_window_ms": _serve_defaults.DEFAULT_BATCH_WINDOW_MS,
            "batch_max": _serve_defaults.DEFAULT_BATCH_MAX,
            "max_queue": _serve_defaults.DEFAULT_MAX_QUEUE,
        },
    }


def _time(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` per-call wall time of ``fn``.

    Microsecond-scale calls are timed in batches sized to a few
    milliseconds per round — single-call timing on a shared host is
    dominated by scheduler jitter, which would swamp the crossovers
    being measured.  The warm-up call doubles as the batch sizer.
    """
    start = time.perf_counter()
    fn()
    estimate = max(time.perf_counter() - start, 1e-9)
    loops = max(1, min(512, int(0.003 / estimate)))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, (time.perf_counter() - start) / loops)
    return best


def _packed_batch(rng: np.random.Generator, rows: int, dim: int) -> PackedHV:
    bits = rng.integers(0, 2, (rows, dim), dtype=np.uint8)
    return PackedHV.pack(bits)


def _sweep_kernels(dim: int, points, repeats: int, seed: int) -> list[dict]:
    """Time every fixed backend at every grid point (verifying agreement)."""
    rng = np.random.default_rng(seed)
    surface = []
    for n, m in points:
        a = _packed_batch(rng, n, dim)
        b = _packed_batch(rng, m, dim)
        reference = _kernels.pairwise_hamming_counts(a, b, backend="xor")
        seconds = {}
        for backend in _FIXED_BACKENDS:
            got = _kernels.pairwise_hamming_counts(a, b, backend=backend)
            if not np.array_equal(reference, got):  # pragma: no cover
                raise AssertionError(
                    f"backend {backend!r} disagrees with the reference at "
                    f"(n={n}, m={m}, d={dim})"
                )
            seconds[backend] = _time(
                lambda pa=a, pb=b, bk=backend: _kernels.pairwise_hamming_counts(
                    pa, pb, backend=bk
                ),
                repeats,
            )
        best = min(seconds, key=seconds.get)
        surface.append(
            {
                "n": n,
                "m": m,
                "harmonic": round(n * m / (n + m), 3),
                "cells": n * m * packed_width(dim),
                "seconds": seconds,
                "best": best,
            }
        )
    return surface


def _predicted_backend(point: dict, crossover: float, min_cells: float) -> str:
    n, m = point["n"], point["m"]
    if n * m >= crossover * (n + m):
        return "gemm"
    if point["cells"] >= min_cells:
        return "xor-mt"
    return "xor"


def _derive_thresholds(surface: list[dict]) -> tuple[float, int]:
    """The ``(gemm_crossover, xor_mt_min_cells)`` pair minimising total time.

    Candidate thresholds are the measured harmonic sizes / cell counts
    (plus never/always sentinels); with both grids small, exhaustive
    scoring — sum of the seconds of the backend each pair would pick at
    each point — is exact over the measured surface.
    """
    harmonics = sorted({p["harmonic"] for p in surface})
    cells = sorted({p["cells"] for p in surface})
    crossover_candidates = harmonics + [harmonics[-1] * 2 + 1]
    cell_candidates = cells + [cells[-1] * 2 + 1]
    best_pair = None
    best_total = float("inf")
    for crossover in crossover_candidates:
        for min_cells in cell_candidates:
            total = sum(
                p["seconds"][_predicted_backend(p, crossover, min_cells)]
                for p in surface
            )
            if total < best_total - 1e-12:
                best_total = total
                best_pair = (float(crossover), int(min_cells))
    assert best_pair is not None
    return best_pair


def _time_auto(surface: list[dict], dim: int, repeats: int, seed: int,
               crossover: float, min_cells: int) -> None:
    """Re-time every point under ``auto`` with the derived thresholds.

    Annotates each surface point with ``auto_seconds``, the backend the
    calibrated dispatch picks, and the ratio to the best fixed backend —
    the acceptance check that calibrated ``auto`` is never far off the
    per-point optimum.
    """
    rng = np.random.default_rng(seed)  # same stream: same batches
    overrides = {
        "REPRO_KERNEL_CROSSOVER": repr(crossover),
        "REPRO_KERNEL_MT_CELLS": str(min_cells),
    }
    saved = {k: os.environ.get(k) for k in overrides}
    os.environ.update(overrides)
    try:
        for point in surface:
            a = _packed_batch(rng, point["n"], dim)
            b = _packed_batch(rng, point["m"], dim)
            # Interleave auto with the best fixed backend so both see the
            # same machine state — cross-pass drift on a shared host
            # would otherwise dwarf the dispatch overhead being measured.
            # Alternating rounds with a running min on both sides keep a
            # transient stall on either path from skewing the ratio.
            run_auto = lambda pa=a, pb=b: _kernels.pairwise_hamming_counts(  # noqa: E731
                pa, pb, backend="auto"
            )
            run_best = lambda pa=a, pb=b, bk=point["best"]: (  # noqa: E731
                _kernels.pairwise_hamming_counts(pa, pb, backend=bk)
            )
            auto_s = best_s = float("inf")
            for _ in range(3):
                auto_s = min(auto_s, _time(run_auto, repeats))
                best_s = min(best_s, _time(run_best, repeats))
            point["auto_seconds"] = auto_s
            point["auto_backend"] = _predicted_backend(point, crossover, min_cells)
            point["auto_over_best"] = round(auto_s / best_s, 3) if best_s else 1.0
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _sweep_threads(dim: int, repeats: int, seed: int, cpus: int) -> dict:
    """Time ``xor-mt`` at a GEMM-losing point across thread counts."""
    rng = np.random.default_rng(seed)
    n, m = 4, 2000
    a = _packed_batch(rng, n, dim)
    b = _packed_batch(rng, m, dim)
    candidates = sorted({1, 2, 4, max(1, cpus)})
    curve = {
        str(threads): _time(
            lambda t=threads: _kernels._xor_mt_counts(a.data, b.data, dim, threads=t),
            repeats,
        )
        for threads in candidates
    }
    xor_seconds = _time(
        lambda: _kernels.pairwise_hamming_counts(a, b, backend="xor"), repeats
    )
    chosen = int(min(curve, key=curve.get))
    mt4 = curve.get("4", curve[str(chosen)])
    return {
        "point": {"n": n, "m": m, "dim": dim},
        "xor_seconds": xor_seconds,
        "xor_mt_seconds": curve,
        "chosen_threads": chosen,
        # The headline criterion: xor-mt (>= 4 threads when available)
        # against the single-thread reference scan on the GEMM-losing
        # regime.
        "speedup_vs_xor_at_4_threads": round(xor_seconds / mt4, 2),
    }


def _sweep_topk(dim: int, repeats: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    results = []
    for n, m, k in _TOPK_POINTS:
        queries = _packed_batch(rng, n, dim)
        table = _packed_batch(rng, m, dim)
        results.append(
            {
                "n": n,
                "m": m,
                "k": k,
                "seconds": _time(
                    lambda q=queries, t=table, kk=k: _kernels.topk_hamming(
                        q, t, k=kk
                    ),
                    repeats,
                ),
            }
        )
    return results


def _sweep_chunks(fast: bool, repeats: int) -> dict:
    """End-to-end streamed-training time per chunk-size candidate."""
    from ..basis import CircularBasis
    from ..hdc.hypervector import random_hypervectors
    from ..learning.classifier import CentroidClassifier
    from ..runtime.batch import BatchEncoder
    from ..streaming import JigsawsStream, stream_fit_classifier

    dim = 512 if fast else 2048
    per_gesture = 40 if fast else 160
    embedding = CircularBasis(12, dim, seed=1).circular_embedding(period=2.0 * np.pi)
    keys = random_hypervectors(18, dim, seed=2)
    curve = {}
    for rows in _CHUNK_CANDIDATES:
        def run(rows=rows):
            stream = JigsawsStream(
                "suturing", seed=13, chunk_size=rows, samples_per_gesture=per_gesture
            )
            encoder = BatchEncoder(keys, embedding, tie_break="zeros")
            classifier = CentroidClassifier(dim, tie_break="zeros", seed=3)
            stream_fit_classifier(classifier, encoder, stream)

        curve[str(rows)] = _time(run, repeats)
    chosen = int(min(curve, key=curve.get))
    return {"dim": dim, "rows_per_gesture": per_gesture, "seconds": curve,
            "chosen_chunk_rows": chosen}


def _sweep_serve(fast: bool, repeats: int) -> dict:
    """Per-row cost of coalesced micro-batches vs the single-request path.

    Times :meth:`~repro.serve.engine.InferenceEngine.predict_coalesced`
    over the candidate batch sizes and ``predict_one`` as the baseline,
    then derives the serving knobs:

    * ``batch_max`` — the candidate with the lowest per-row cost (the
      point past which coalescing harder stops paying on this host);
    * ``batch_window_ms`` — a few single-request service times, clamped
      to ``[0.5, 10]`` ms: holding a batch open longer than requests
      take to answer only adds latency, never throughput.
    """
    from ..experiments.config import ClassificationConfig
    from ..experiments.serving import train_classification_pipeline
    from ..serve.engine import InferenceEngine

    dim = 512 if fast else 2048
    candidates = _FAST_SERVE_BATCH_CANDIDATES if fast else _SERVE_BATCH_CANDIDATES
    pipeline = train_classification_pipeline(
        "suturing", config=ClassificationConfig(dim=dim, seed=9)
    )
    rows = np.random.default_rng(7).uniform(
        0.0, 2.0 * np.pi, (max(candidates), pipeline.num_features)
    )
    curve = {}
    with InferenceEngine(pipeline) as engine:
        single_seconds = _time(lambda: engine.predict_one(rows[0]), repeats)
        for size in candidates:
            batch = rows[:size]
            seconds = _time(lambda b=batch: engine.predict_coalesced(b), repeats)
            curve[str(size)] = {
                "seconds": seconds,
                "per_row_seconds": seconds / size,
                "speedup_vs_singles": round(single_seconds * size / seconds, 2),
            }
    chosen_max = int(min(curve, key=lambda k: curve[k]["per_row_seconds"]))
    window_ms = min(10.0, max(0.5, round(4.0 * single_seconds * 1e3, 3)))
    return {
        "dim": dim,
        "single_seconds": single_seconds,
        "batches": curve,
        "chosen_batch_max": chosen_max,
        "chosen_window_ms": window_ms,
        "coalescing_speedup_at_chosen": curve[str(chosen_max)]["speedup_vs_singles"],
    }


def _sweep_workers(fast: bool, repeats: int, cpus: int) -> dict:
    """Whole-batch encode time per worker-count candidate."""
    from ..basis import CircularBasis
    from ..hdc.hypervector import random_hypervectors
    from ..runtime.batch import BatchEncoder
    from ..runtime.pool import WorkerPool
    from ..streaming import stream_encode

    dim = 512 if fast else 2048
    rows = 512 if fast else 2048
    embedding = CircularBasis(12, dim, seed=1).circular_embedding(period=2.0 * np.pi)
    keys = random_hypervectors(18, dim, seed=2)
    encoder = BatchEncoder(keys, embedding, tie_break="zeros", chunk_size=128)
    features = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, (rows, 18))
    candidates = sorted({1, 2, max(1, cpus)})
    curve = {}
    for workers in candidates:
        with WorkerPool(workers=workers) as pool:
            curve[str(workers)] = _time(
                lambda p=pool: stream_encode(encoder, features, seed=0, pool=p),
                repeats,
            )
    chosen = int(min(curve, key=curve.get))
    return {"dim": dim, "rows": rows, "seconds": curve, "chosen_workers": chosen}


def calibrate(
    fast: bool = False,
    dim: int = 10_000,
    seed: int = 2023,
) -> tuple[Calibration, dict]:
    """Measure this host and derive its calibration artifact.

    Runs every sweep (kernels, top-k, streaming chunks, workers,
    threads), derives the dispatch thresholds by total-time
    minimisation over the measured surface, re-times ``auto`` under
    those thresholds, and returns ``(calibration, report)`` — the
    validated artifact plus the full JSON-ready measurement report.
    ``fast`` trims the grid and repeat counts for CI smoke runs.
    """
    repeats = 2 if fast else 3
    cpus = os.cpu_count() or 1
    points = _FAST_SWEEP_POINTS if fast else _SWEEP_POINTS

    surface = _sweep_kernels(dim, points, repeats, seed)
    crossover, min_cells = _derive_thresholds(surface)
    _time_auto(surface, dim, repeats, seed, crossover, min_cells)
    threads = _sweep_threads(dim, repeats, seed + 1, cpus)
    topk = _sweep_topk(dim, repeats, seed + 2)
    chunks = _sweep_chunks(fast, repeats)
    workers = _sweep_workers(fast, repeats, cpus)
    serve = _sweep_serve(fast, repeats)

    knobs = {
        "kernels": {
            "gemm_crossover": crossover,
            "xor_mt_min_cells": min_cells,
            "xor_mt_threads": threads["chosen_threads"],
            "cell_budget": DEFAULT_CELL_BUDGET,
        },
        "streaming": {"chunk_rows": chunks["chosen_chunk_rows"]},
        "runtime": {"workers": workers["chosen_workers"]},
        "serve": {
            "batch_window_ms": serve["chosen_window_ms"],
            "batch_max": serve["chosen_batch_max"],
            "max_queue": _serve_defaults.DEFAULT_MAX_QUEUE,
        },
    }
    calibration = Calibration.from_knobs(
        knobs, meta={"mode": "fast" if fast else "full", "dim": dim, "seed": seed}
    )
    report = {
        "mode": "fast" if fast else "full",
        "dim": dim,
        "seed": seed,
        "host": calibration.payload["host"],
        "kernel_surface": surface,
        "derived": {"gemm_crossover": crossover, "xor_mt_min_cells": min_cells},
        "xor_mt_scaling": threads,
        "topk": topk,
        "streaming_chunk": chunks,
        "worker_scaling": workers,
        "serve_batching": serve,
        "knobs": knobs,
        "auto_worst_over_best": max(p["auto_over_best"] for p in surface),
    }
    return calibration, report
