"""Micro-benchmarks: throughput of the HDC primitives.

These are conventional pytest-benchmark timing runs (multiple rounds) for
the operations every experiment is built from, at the paper's d = 10,000:
bind, bundle, permute, batched distance, basis generation and record
encoding — each in both representations, so the packed-vs-unpacked
speedup is measured, not assumed.

The module is also runnable directly::

    python benchmarks/bench_ops_throughput.py

which times packed against unpacked kernels without any pytest plugin and
prints a JSON summary to stdout; it writes no file.  The headline
number is the pairwise-Hamming speedup of the packed backend over the
naive unpacked scan at d = 10,000, which must stay ≥ 3×.
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path shim: run from checkout or install)

import json
import time

import numpy as np

from repro.basis import CircularBasis, LegacyLevelBasis, LevelBasis, RandomBasis, ScatterBasis
from repro.hdc import (
    BundleAccumulator,
    PackedHV,
    bind,
    bundle,
    encode_keyvalue_records,
    pairwise_hamming,
    permute,
    random_hypervectors,
)

DIM = 10_000
N, M = 512, 128


def naive_pairwise_hamming(vectors: np.ndarray, others: np.ndarray) -> np.ndarray:
    """The byte-per-bit reference scan (what the seed repo shipped as the
    fallback path): broadcasted boolean comparison, one byte per bit."""
    return (vectors[:, None, :] != others[None, :, :]).mean(axis=-1, dtype=np.float64)


# -- pytest-benchmark entry points -------------------------------------------

try:  # pytest is absent when run as a plain script
    import pytest
except ImportError:  # pragma: no cover
    pytest = None


if pytest is not None:

    @pytest.fixture(scope="module")
    def batch():
        return random_hypervectors(N, DIM, seed=0)

    @pytest.fixture(scope="module")
    def packed_batch(batch):
        return PackedHV.pack(batch)

    @pytest.fixture(scope="module")
    def pair(batch):
        return batch[0], batch[1]

    def test_bind_throughput(benchmark, batch):
        key = batch[-1]
        benchmark(lambda: bind(batch, key))

    def test_bind_packed_throughput(benchmark, packed_batch):
        key = packed_batch[-1]
        benchmark(lambda: bind(packed_batch, key))

    def test_bundle_throughput(benchmark, batch):
        benchmark(lambda: bundle(batch, tie_break="zeros"))

    def test_bundle_packed_throughput(benchmark, packed_batch):
        benchmark(lambda: bundle(packed_batch, tie_break="zeros"))

    def test_permute_throughput(benchmark, pair):
        hv, _ = pair
        benchmark(lambda: permute(hv, 7))

    def test_permute_packed_throughput(benchmark, packed_batch):
        hv = packed_batch[0]
        benchmark(lambda: permute(hv, 7))

    def test_pairwise_distance_throughput(benchmark, batch):
        others = batch[:M]
        benchmark(lambda: pairwise_hamming(batch, others))

    def test_pairwise_distance_packed_throughput(benchmark, packed_batch):
        others = packed_batch[:M]
        benchmark(lambda: pairwise_hamming(packed_batch, others))

    def test_record_encoding_throughput(benchmark):
        keys = random_hypervectors(18, DIM, seed=1)
        basis = random_hypervectors(12, DIM, seed=2)
        indices = np.random.default_rng(3).integers(0, 12, size=(256, 18))
        benchmark(
            lambda: encode_keyvalue_records(keys, indices, basis, tie_break="zeros")
        )

    def test_record_encoding_packed_throughput(benchmark):
        keys = random_hypervectors(18, DIM, seed=1)
        basis = random_hypervectors(12, DIM, seed=2)
        indices = np.random.default_rng(3).integers(0, 12, size=(256, 18))
        benchmark(
            lambda: encode_keyvalue_records(
                keys, indices, basis, tie_break="zeros", packed=True
            )
        )

    @pytest.mark.parametrize(
        "factory,label",
        [
            (lambda: RandomBasis(64, DIM, seed=4), "random"),
            (lambda: LevelBasis(64, DIM, seed=4), "level"),
            (lambda: LegacyLevelBasis(64, DIM, seed=4), "legacy-level"),
            (lambda: CircularBasis(64, DIM, seed=4), "circular"),
            (lambda: ScatterBasis(64, DIM, seed=4), "scatter"),
        ],
        ids=["random", "level", "legacy-level", "circular", "scatter"],
    )
    def test_basis_generation_throughput(benchmark, factory, label):
        """Section 6.1's remark: basis generation is a negligible one-time
        cost — these timings quantify it per construction."""
        basis = benchmark(factory)
        assert len(basis) == 64

    def test_packed_pairwise_speedup_floor():
        """Acceptance gate: packed pairwise Hamming ≥ 3× the unpacked scan."""
        summary = run_suite(repeats=3)
        assert summary["speedups"]["pairwise_hamming_packed_vs_unpacked"] >= 3.0


# -- standalone timing harness (no pytest required) --------------------------

def _time(fn, repeats: int = 5) -> float:
    """Best-of-``repeats`` wall time of ``fn`` in seconds (one warm-up)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_suite(repeats: int = 5) -> dict:
    """Time packed vs unpacked kernels and return the summary dict."""
    batch = random_hypervectors(N, DIM, seed=0)
    packed_batch = PackedHV.pack(batch)
    others, packed_others = batch[:M], packed_batch[:M]
    key, packed_key = batch[-1], packed_batch[-1]

    def bundle_streaming_packed():
        BundleAccumulator(DIM).add(packed_batch).finalize_packed(tie_break="zeros")

    timings = {
        "bind_unpacked": _time(lambda: bind(batch, key), repeats),
        "bind_packed": _time(lambda: bind(packed_batch, packed_key), repeats),
        "bundle_unpacked": _time(lambda: bundle(batch, tie_break="zeros"), repeats),
        "bundle_packed_streaming": _time(bundle_streaming_packed, repeats),
        "permute_unpacked": _time(lambda: permute(batch[0], 7), repeats),
        "permute_packed": _time(lambda: permute(packed_batch[0], 7), repeats),
        "pairwise_hamming_unpacked_naive": _time(
            lambda: naive_pairwise_hamming(batch, others), repeats
        ),
        "pairwise_hamming_autopacking": _time(
            lambda: pairwise_hamming(batch, others), repeats
        ),
        "pairwise_hamming_packed": _time(
            lambda: pairwise_hamming(packed_batch, packed_others), repeats
        ),
    }
    summary = {
        "dim": DIM,
        "batch": N,
        "others": M,
        "numpy": np.__version__,
        "hardware_popcount": bool(hasattr(np, "bitwise_count")),
        "bytes_per_hv_unpacked": DIM,
        "bytes_per_hv_packed": (DIM + 7) // 8,
        "seconds": {k: round(v, 6) for k, v in timings.items()},
        "speedups": {
            "bind_packed_vs_unpacked": round(
                timings["bind_unpacked"] / timings["bind_packed"], 2
            ),
            "pairwise_hamming_packed_vs_unpacked": round(
                timings["pairwise_hamming_unpacked_naive"]
                / timings["pairwise_hamming_packed"],
                2,
            ),
            "pairwise_hamming_packed_vs_autopacking": round(
                timings["pairwise_hamming_autopacking"]
                / timings["pairwise_hamming_packed"],
                2,
            ),
        },
    }
    return summary


def main() -> None:
    summary = run_suite()
    print(json.dumps(summary, indent=2))
    speedup = summary["speedups"]["pairwise_hamming_packed_vs_unpacked"]
    print(f"\npairwise Hamming speedup (packed vs unpacked, d={DIM}): {speedup}x")
    if speedup < 3.0:
        raise SystemExit(f"FAIL: packed speedup {speedup}x is below the 3x floor")


if __name__ == "__main__":
    main()
