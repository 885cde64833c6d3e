"""Benchmark: the parallel experiment runtime on the Figure 8 r-sweep.

Times the paper's heaviest artifact — the full r-sweep
(``datasets × (1 + |r|)`` independent experiment cells) — three ways:

1. **legacy serial** — the pre-runtime code path: per-call unpacked
   encoding (:func:`repro.hdc.encoders.encode_keyvalue_records`) and a
   plain serial cell loop, reconstructed here as the baseline;
2. **runtime serial** — :func:`repro.experiments.run_rsweep` with
   ``workers=1`` (fused-table :class:`~repro.runtime.BatchEncoder`,
   packed corpus end-to-end);
3. **runtime parallel** — the same with ``workers=N`` (default 4).

It asserts the three produce identical curves, then times the artifact
cache (cold table1 vs a second, cache-hit invocation) and writes a
machine-readable summary to ``benchmarks/results/BENCH_runtime.json``
(committed, so the perf trajectory is tracked across PRs).

Run::

    PYTHONPATH=src python benchmarks/bench_runtime_parallel.py [--fast] [--workers N]

``--fast`` shrinks the sweep for a smoke run and skips the JSON write
(the committed file records paper resolution only).  The recorded
parallel speedup is hardware-dependent: cells are numpy-heavy threads
that scale with physical cores (``cpu_count`` is recorded next to every
number; on a single-core container the parallel factor is ~1×).
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path shim: run from checkout or install)

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro._rng import ensure_rng  # noqa: E402
from repro.datasets import make_jigsaws_like  # noqa: E402
from repro.experiments import (  # noqa: E402
    ClassificationConfig,
    RegressionConfig,
    run_rsweep,
    run_table1,
)
from repro.experiments.classification import _value_embedding  # noqa: E402
from repro.experiments.regression import make_regression_split, run_regression  # noqa: E402
from repro.experiments.rsweep import _CLASSIFICATION, _REGRESSION  # noqa: E402
from repro.hdc.hypervector import random_hypervectors  # noqa: E402
from repro.hdc.ops import positional_tie_bits  # noqa: E402
from repro.learning.classifier import CentroidClassifier  # noqa: E402
from repro.learning.metrics import normalized_accuracy_error, normalized_mse  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"

PAPER_R_VALUES = (0.0, 0.01, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0)
FAST_R_VALUES = (0.0, 0.1, 1.0)


def legacy_encode_keyvalue_records(keys, value_indices, basis_vectors,
                                   seed, start: int = 0, chunk_size: int = 256):
    """The PR-1 encode hot loop, vendored as the perf baseline.

    Per-call gather + XOR + int64 count sum + int64 majority threshold —
    the arithmetic the experiment drivers ran before the runtime landed.
    (The in-library encoder has since been optimised; this copy pins the
    baseline so the recorded speedup tracks real progression.)  Ties
    take the library's position-keyed coins — row ``t`` draws those of
    ``(seed, start + t)`` — so results are bit-for-bit comparable.
    """
    import numpy as np

    n, k = value_indices.shape
    d = keys.shape[-1]
    out = np.empty((n, d), dtype=np.uint8)
    for lo in range(0, n, chunk_size):
        hi = min(n, lo + chunk_size)
        vals = basis_vectors[value_indices[lo:hi]]  # (c, k, d)
        bound = np.bitwise_xor(vals, keys[None, :, :])
        counts = bound.sum(axis=1, dtype=np.int64)  # (c, d)
        doubled = 2 * counts
        encoded = (doubled > k).astype(np.uint8)
        ties = doubled == k
        if np.any(ties):
            coin = positional_tie_bits(seed, np.arange(start + lo, start + hi), d)
            encoded[ties] = coin[ties]
        out[lo:hi] = encoded
    return out


def legacy_classification_cell(task: str, basis_kind: str,
                               config: ClassificationConfig, split) -> float:
    """One Table 1 cell exactly as the pre-runtime experiment driver ran it:
    unpacked per-call encoding, unpacked training corpus."""
    master = ensure_rng(config.seed)
    _, basis_rng, key_rng, tie_rng = master.spawn(4)
    low, high = split.metadata.get("feature_range", (0.0, 6.283185307179586))
    embedding = _value_embedding(basis_kind, config, basis_rng, low=low, high=high)
    keys = random_hypervectors(split.num_channels, config.dim, seed=key_rng)

    # The library's tie-key derivation: one int key, test rows after train.
    tie_key = int(tie_rng.integers(0, 2**63))

    def encode(features, start):
        indices = embedding.indices(features.ravel()).reshape(features.shape)
        return legacy_encode_keyvalue_records(
            keys, indices, embedding.basis.vectors, seed=tie_key, start=start
        )

    train_hvs = encode(split.train_features, 0)
    test_hvs = encode(split.test_features, split.train_features.shape[0])
    classifier = CentroidClassifier(config.dim, seed=tie_rng)
    classifier.fit(train_hvs, split.train_labels.tolist())
    return classifier.score(test_hvs, split.test_labels.tolist())


def legacy_rsweep(r_values, datasets, c_config, r_config) -> dict[str, tuple[float, ...]]:
    """The pre-runtime serial sweep loop (regression cells shared with the
    library — their legacy path differed only in packing, not arithmetic)."""
    curves: dict[str, tuple[float, ...]] = {}
    for dataset in datasets:
        if dataset in _CLASSIFICATION:
            data_rng = ensure_rng(c_config.seed).spawn(4)[0]
            split = make_jigsaws_like(task=dataset, seed=data_rng)
            reference = legacy_classification_cell(dataset, "random", c_config, split)
            series = []
            for r in r_values:
                cfg = replace(c_config, circular_r=float(r))
                acc = legacy_classification_cell(dataset, "circular", cfg, split)
                series.append(normalized_accuracy_error(acc, reference))
        else:
            split = make_regression_split(dataset, r_config)
            reference = run_regression(dataset, "random", config=r_config, split=split).mse
            series = []
            for r in r_values:
                cfg = replace(r_config, circular_r=float(r))
                mse = run_regression(dataset, "circular", config=cfg, split=split).mse
                series.append(normalized_mse(mse, reference))
        curves[dataset] = tuple(series)
    return curves


def time_call(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="small sweep, no JSON write")
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args()

    dim = 1024 if args.fast else 10_000
    r_values = FAST_R_VALUES if args.fast else PAPER_R_VALUES
    c_config = ClassificationConfig(dim=dim)
    r_config = RegressionConfig(dim=dim)
    datasets = tuple(_CLASSIFICATION) + tuple(_REGRESSION)
    sweep_kwargs = dict(
        datasets=datasets,
        classification_config=c_config,
        regression_config=r_config,
    )

    print(f"r-sweep benchmark: d={dim}, {len(r_values)} r-values, "
          f"{len(datasets)} datasets, workers={args.workers}, "
          f"cpu_count={os.cpu_count()}")

    legacy_curves, legacy_s = time_call(lambda: legacy_rsweep(
        r_values, datasets, c_config, r_config))
    print(f"  legacy serial path   : {legacy_s:8.2f} s")

    serial, serial_s = time_call(lambda: run_rsweep(r_values, **sweep_kwargs))
    print(f"  runtime, workers=1   : {serial_s:8.2f} s")

    parallel, parallel_s = time_call(lambda: run_rsweep(
        r_values, workers=args.workers, **sweep_kwargs))
    print(f"  runtime, workers={args.workers:<2}  : {parallel_s:8.2f} s")

    assert serial == parallel, "parallel sweep diverged from serial"
    assert dict(serial.normalized_error) == legacy_curves, \
        "runtime sweep diverged from the legacy path"
    speedup_vs_legacy = legacy_s / parallel_s
    speedup_vs_serial = serial_s / parallel_s
    print(f"  speedup vs legacy    : {speedup_vs_legacy:8.2f} x")
    print(f"  speedup vs runtime-1 : {speedup_vs_serial:8.2f} x")

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
        RESULTS_DIR.mkdir(exist_ok=True)
        payload = {
            "dim": dim,
            "r_values": list(r_values),
            "datasets": list(datasets),
            "workers": args.workers,
            "cpu_count": os.cpu_count(),
            "rsweep_legacy_serial_s": round(legacy_s, 3),
            "rsweep_runtime_serial_s": round(serial_s, 3),
            "rsweep_runtime_parallel_s": round(parallel_s, 3),
            "rsweep_speedup_vs_legacy": round(speedup_vs_legacy, 3),
            "rsweep_speedup_vs_runtime_serial": round(speedup_vs_serial, 3),
            "table1_cold_s": round(cold_s, 3),
            "table1_cache_hit_s": round(warm_s, 5),
            "table1_cache_speedup": round(cache_speedup, 1),
            "bit_identical": True,
        }
        out = RESULTS_DIR / "BENCH_runtime.json"
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
