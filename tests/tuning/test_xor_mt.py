"""The threaded-blocked ``xor-mt`` backend: exactness under every knob.

The contract under test: ``xor-mt`` is the same function as the
reference XOR scan — bit-for-bit — for any dimension (including tail
masks), any thread count, any block size the budget induces, and with
or without the hardware popcount; and the ``auto`` dispatch can *never*
change results, only which backend computes them (adversarial
threshold settings included).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hdc import PackedHV, pairwise_hamming
from repro.hdc.kernels import (
    kernel_threads,
    pairwise_hamming_counts,
    use_xor_mt,
)
from repro.hdc.packed import packed_pairwise_hamming

#: Dimensions crossing the packed tail-mask edge and the uint64-widening
#: padding edge (width % 8): every residue mod 8 plus word-aligned sizes.
ODD_DIMS = (1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100, 101, 511, 512, 1000, 1001)


@pytest.fixture(autouse=True)
def _clean_tuning_env(monkeypatch):
    for var in (
        "REPRO_KERNEL",
        "REPRO_KERNEL_CROSSOVER",
        "REPRO_KERNEL_MT_CELLS",
        "REPRO_KERNEL_THREADS",
    ):
        monkeypatch.delenv(var, raising=False)


def batches(n, m, d, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 2, (n, d), dtype=np.uint8),
        rng.integers(0, 2, (m, d), dtype=np.uint8),
    )


class TestExactness:
    @pytest.mark.parametrize("d", ODD_DIMS)
    def test_bitwise_identical_across_dims(self, d):
        a, b = batches(13, 9, d, seed=d)
        ref = packed_pairwise_hamming(a, b)
        assert np.array_equal(pairwise_hamming(a, b, backend="xor-mt"), ref)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 64), (64, 1), (7, 33), (40, 60)])
    def test_bitwise_identical_across_shapes(self, shape):
        n, m = shape
        a, b = batches(n, m, 301, seed=n * 100 + m)
        ref = packed_pairwise_hamming(a, b)
        assert np.array_equal(pairwise_hamming(a, b, backend="xor-mt"), ref)

    @pytest.mark.parametrize("threads", [1, 2, 3, 5, 16])
    def test_bitwise_identical_across_thread_counts(self, monkeypatch, threads):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", str(threads))
        a, b = batches(17, 41, 777, seed=threads)
        ref = packed_pairwise_hamming(a, b)
        assert np.array_equal(pairwise_hamming(a, b, backend="xor-mt"), ref)

    def test_larger_operand_on_either_side(self):
        # The blocked axis follows the larger operand; exercise both
        # orientations (and the transpose-on-swap write path).
        a, b = batches(50, 3, 129, seed=1)
        ref_ab = packed_pairwise_hamming(a, b)
        ref_ba = packed_pairwise_hamming(b, a)
        assert np.array_equal(pairwise_hamming(a, b, backend="xor-mt"), ref_ab)
        assert np.array_equal(pairwise_hamming(b, a, backend="xor-mt"), ref_ba)

    def test_tiny_budget_forces_many_blocks(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BUDGET", "4096")
        a, b = batches(9, 57, 1001, seed=2)
        ref = packed_pairwise_hamming(a, b)
        assert np.array_equal(pairwise_hamming(a, b, backend="xor-mt"), ref)

    def test_without_hardware_popcount(self, monkeypatch):
        from repro.hdc import packed as packed_mod

        monkeypatch.setattr(packed_mod, "_HAVE_BITWISE_COUNT", False)
        a, b = batches(11, 23, 333, seed=3)
        ref = packed_pairwise_hamming(a, b)
        assert np.array_equal(pairwise_hamming(a, b, backend="xor-mt"), ref)

    def test_counts_and_distances_consistent(self):
        a, b = batches(6, 8, 257, seed=4)
        counts = pairwise_hamming_counts(
            PackedHV.pack(a), PackedHV.pack(b), backend="xor-mt"
        )
        dist = pairwise_hamming(a, b, backend="xor-mt")
        assert np.allclose(counts / 257, dist)

    def test_env_selects_xor_mt(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "xor-mt")
        a, b = batches(5, 5, 100, seed=5)
        assert np.array_equal(pairwise_hamming(a, b), packed_pairwise_hamming(a, b))

    def test_alias_accepted(self):
        a, b = batches(4, 4, 64, seed=6)
        assert np.array_equal(
            pairwise_hamming(a, b, backend="xor_mt"),
            pairwise_hamming(a, b, backend="xor-mt"),
        )


class TestAdversarialThresholds:
    """A wrong threshold setting can cost time, never correctness."""

    #: Threshold pairs that force every dispatch decision: everything to
    #: gemm, everything to xor-mt, everything to xor, and gemm-or-xor.
    ADVERSARIAL = [
        {"REPRO_KERNEL_CROSSOVER": "0.1", "REPRO_KERNEL_MT_CELLS": "1"},
        {"REPRO_KERNEL_CROSSOVER": "1e12", "REPRO_KERNEL_MT_CELLS": "1"},
        {"REPRO_KERNEL_CROSSOVER": "1e12", "REPRO_KERNEL_MT_CELLS": str(10**15)},
        {"REPRO_KERNEL_CROSSOVER": "1.0", "REPRO_KERNEL_MT_CELLS": str(10**15)},
    ]

    @pytest.mark.parametrize("knobs", ADVERSARIAL)
    def test_auto_is_bit_identical_under_any_thresholds(self, monkeypatch, knobs):
        for var, value in dict(knobs, REPRO_KERNEL_THREADS="3").items():
            monkeypatch.setenv(var, value)
        for n, m, d in [(1, 4, 100), (13, 9, 333), (40, 60, 1001)]:
            a, b = batches(n, m, d, seed=d)
            ref = packed_pairwise_hamming(a, b)
            assert np.array_equal(pairwise_hamming(a, b, backend="auto"), ref), knobs

    def test_env_moves_the_dispatch_decision(self, monkeypatch):
        assert not use_xor_mt(1, 2, 64)  # built-in floor is far higher
        monkeypatch.setenv("REPRO_KERNEL_MT_CELLS", "1")
        assert use_xor_mt(1, 2, 64)

    def test_env_moves_thread_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "7")
        assert kernel_threads() == 7
