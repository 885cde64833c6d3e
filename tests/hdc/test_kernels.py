"""Property tests for the similarity-kernel subsystem.

The contract under test: ``gemm``, ``xor`` and ``auto`` are **the same
function** as the packed layer's byte-wise reference
(:func:`~repro.hdc.packed.packed_pairwise_hamming`) — bit-for-bit —
differing only in speed, for any dimension (tail-mask and ``uint64``
word-padding edges), either operand orientation, with or without the
hardware popcount, and under any crossover setting; ``topk_hamming``
equals a stable full-matrix argsort with lower-index tie-breaking; the
allocation budget and the backend knob change nothing but block sizes.
"""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.exceptions import (
    CalibrationError,
    DimensionMismatchError,
    InvalidParameterError,
)
from repro.hdc import ItemMemory, PackedHV, pairwise_hamming
from repro.hdc.kernels import (
    AUTO_CROSSOVER,
    BACKENDS,
    DEFAULT_CELL_BUDGET,
    cell_budget,
    pairwise_hamming_counts,
    resolve_backend,
    topk_hamming,
    use_gemm,
)
from repro.hdc.packed import packed_pairwise_hamming

#: Dimensions chosen to cross the packed tail-mask edge (multiples of 8,
#: every residue mod 8, and the degenerate d=1) and the ``uint64``
#: word-padding edge of the ``xor`` scan (63/64/65, 511/512).
ODD_DIMS = (1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100, 101, 511, 512, 1000, 1001)


def batches(n, m, d, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 2, (n, d), dtype=np.uint8),
        rng.integers(0, 2, (m, d), dtype=np.uint8),
    )


class TestBackendAgreement:
    @pytest.mark.parametrize("d", ODD_DIMS)
    def test_backends_bitwise_identical_across_dims(self, d):
        a, b = batches(13, 9, d, seed=d)
        ref = packed_pairwise_hamming(a, b)
        for backend in BACKENDS:
            assert np.array_equal(pairwise_hamming(a, b, backend=backend), ref), backend

    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (1, 50), (50, 1), (1, 64), (64, 1), (7, 33), (40, 60), (33, 33)],
    )
    def test_backends_bitwise_identical_across_shapes(self, shape):
        # The xor scan blocks over the larger operand, so both
        # orientations (and its transpose-on-swap write) are exercised.
        n, m = shape
        a, b = batches(n, m, 257, seed=n * 100 + m)
        for lhs, rhs in ((a, b), (b, a)):
            ref = packed_pairwise_hamming(lhs, rhs)
            for backend in BACKENDS:
                got = pairwise_hamming(lhs, rhs, backend=backend)
                assert np.array_equal(got, ref), backend

    def test_backends_bitwise_identical_without_hardware_popcount(self, monkeypatch):
        from repro.hdc import packed as packed_mod

        a, b = batches(11, 23, 333, seed=3)
        ref = packed_pairwise_hamming(a, b)
        monkeypatch.setattr(packed_mod, "_HAVE_BITWISE_COUNT", False)
        for backend in BACKENDS:
            assert np.array_equal(pairwise_hamming(a, b, backend=backend), ref), backend

    def test_concurrent_callers_do_not_share_scratch(self):
        # Experiment cells run on a thread pool; each scan's scratch is
        # its own, so concurrent calls answer exactly as serial ones.
        pairs = [batches(9, 57, 1001, seed=s) for s in range(8)]
        refs = [packed_pairwise_hamming(a, b) for a, b in pairs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda p: pairwise_hamming(*p, backend="xor"), pairs))
        for out, ref in zip(got, refs):
            assert np.array_equal(out, ref)

    def test_packed_and_unpacked_inputs_agree(self):
        a, b = batches(11, 7, 123, seed=3)
        ref = pairwise_hamming(a, b, backend="xor")
        pa, pb = PackedHV.pack(a), PackedHV.pack(b)
        for backend in BACKENDS:
            assert np.array_equal(pairwise_hamming(pa, pb, backend=backend), ref)
            assert np.array_equal(pairwise_hamming(pa, b, backend=backend), ref)

    def test_self_comparison_default_others(self):
        a, _ = batches(21, 1, 77, seed=5)
        ref = packed_pairwise_hamming(a)
        for backend in BACKENDS:
            got = pairwise_hamming(a, backend=backend)
            assert np.array_equal(got, ref)
            assert np.allclose(np.diag(got), 0.0)

    def test_counts_are_integer_form_of_distances(self):
        a, b = batches(6, 8, 93, seed=7)
        ref = packed_pairwise_hamming(a, b)
        for backend in BACKENDS:
            counts = pairwise_hamming_counts(a, b, backend=backend)
            assert counts.dtype == np.int64
            assert np.array_equal(counts / 93, ref), backend

    def test_dimension_mismatch_raises(self):
        a, _ = batches(4, 1, 64, seed=1)
        b, _ = batches(4, 1, 72, seed=1)
        for backend in BACKENDS:
            with pytest.raises(DimensionMismatchError):
                pairwise_hamming(a, b, backend=backend)


class TestBudget:
    def test_budget_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BUDGET", raising=False)
        assert cell_budget() == DEFAULT_CELL_BUDGET
        monkeypatch.setenv("REPRO_KERNEL_BUDGET", "12345")
        assert cell_budget() == 12345

    @pytest.mark.parametrize("raw", ["0", "-5", "lots", "1.5"])
    def test_invalid_budget_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_KERNEL_BUDGET", raw)
        with pytest.raises(CalibrationError, match="REPRO_KERNEL_BUDGET"):
            cell_budget()

    @pytest.mark.parametrize("budget", ["1", "64", "1000", "4096"])
    def test_tiny_budget_forces_blocking_without_changing_bits(self, monkeypatch, budget):
        a, b = batches(17, 23, 129, seed=11)
        ref = packed_pairwise_hamming(a, b)
        tk_ref = topk_hamming(a, b, 5, backend="xor")
        monkeypatch.setenv("REPRO_KERNEL_BUDGET", budget)
        for backend in BACKENDS:
            assert np.array_equal(pairwise_hamming(a, b, backend=backend), ref)
            tk = topk_hamming(a, b, 5, backend=backend)
            assert np.array_equal(tk.indices, tk_ref.indices)
            assert np.array_equal(tk.distances, tk_ref.distances)

    def test_budget_shared_with_packed_reference_kernel(self, monkeypatch):
        a, b = batches(9, 9, 65, seed=13)
        ref = packed_pairwise_hamming(a, b)
        monkeypatch.setenv("REPRO_KERNEL_BUDGET", "1")
        assert np.array_equal(packed_pairwise_hamming(a, b), ref)


class TestDispatch:
    def test_resolve_backend_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_backend() == "auto"
        monkeypatch.setenv("REPRO_KERNEL", "gemm")
        assert resolve_backend() == "gemm"
        assert resolve_backend("xor") == "xor"  # explicit argument wins

    @pytest.mark.parametrize("name", ["xor-mt", "xor_mt", "xor-popcount"])
    def test_retired_backend_names_rejected_from_env(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_KERNEL", name)
        with pytest.raises(InvalidParameterError, match=re.escape(str(BACKENDS))):
            resolve_backend()
        with pytest.raises(InvalidParameterError, match=name):
            pairwise_hamming(*batches(2, 2, 16))

    def test_unknown_backend_rejected(self, monkeypatch):
        with pytest.raises(InvalidParameterError):
            resolve_backend("blas")
        monkeypatch.setenv("REPRO_KERNEL", "simd")
        with pytest.raises(InvalidParameterError):
            pairwise_hamming(*batches(2, 2, 16))

    @pytest.mark.parametrize("crossover", ["0.1", "1e12"])
    def test_auto_is_bit_identical_under_any_crossover(self, monkeypatch, crossover):
        # 0.1 sends every call to gemm, 1e12 every call to xor: a wrong
        # threshold can cost time, never correctness.
        monkeypatch.setenv("REPRO_KERNEL_CROSSOVER", crossover)
        for n, m, d in [(1, 4, 100), (13, 9, 333), (40, 60, 1001)]:
            a, b = batches(n, m, d, seed=d)
            ref = packed_pairwise_hamming(a, b)
            assert np.array_equal(pairwise_hamming(a, b, backend="auto"), ref)

    def test_env_backend_is_honoured_by_consumers(self, monkeypatch):
        a, b = batches(5, 5, 40, seed=17)
        ref = pairwise_hamming(a, b, backend="xor")
        monkeypatch.setenv("REPRO_KERNEL", "gemm")
        assert np.array_equal(pairwise_hamming(a, b), ref)

    @pytest.mark.parametrize("shape", [(1, 10), (32, 10), (1024, 15), (64, 64)])
    def test_auto_runs_the_backend_use_gemm_names(self, monkeypatch, shape):
        from repro.hdc import kernels

        ran = []

        def spy(name):
            real = getattr(kernels, name)

            def recorded(*args, **kwargs):
                ran.append(name)
                return real(*args, **kwargs)

            return recorded

        for name in ("_gemm_counts", "_xor_counts"):
            monkeypatch.setattr(kernels, name, spy(name))
        n, m = shape
        a, b = batches(n, m, 100, seed=n + m)
        got = pairwise_hamming(a, b, backend="auto")
        assert np.array_equal(got, packed_pairwise_hamming(a, b))
        assert ran == ["_gemm_counts" if use_gemm(n, m, 100) else "_xor_counts"]

    def test_auto_crossover_shape(self):
        # The unpack toll sinks GEMM whenever one side is tiny …
        assert not use_gemm(1, 10_000, 10_000)
        assert not use_gemm(10_000, 1, 10_000)
        # … and BLAS wins once both sides are substantial, at any d.
        assert use_gemm(100, 100, 10_000)
        assert use_gemm(1000, 1000, 64)
        # The threshold is the harmonic size n·m/(n+m).
        assert use_gemm(32, 32, 1) == (32 * 32 >= AUTO_CROSSOVER * 64)

    def test_single_row_batches(self):
        a, b = batches(1, 1, 16, seed=19)
        for backend in BACKENDS:
            out = pairwise_hamming(a, b, backend=backend)
            assert out.shape == (1, 1)
            assert out == pairwise_hamming(a, b, backend="xor")


class TestTopK:
    def reference(self, a, b, k):
        full = pairwise_hamming(a, b, backend="xor")
        order = np.argsort(full, axis=1, kind="stable")[:, :k]
        return order, np.take_along_axis(full, order, axis=1)

    @pytest.mark.parametrize("d", (7, 64, 129))
    @pytest.mark.parametrize("k", (1, 3, 11))
    def test_topk_matches_full_sort(self, d, k):
        a, b = batches(9, 11, d, seed=d + k)
        ref_idx, ref_dist = self.reference(a, b, k)
        for backend in BACKENDS:
            tk = topk_hamming(a, b, k, backend=backend)
            assert np.array_equal(tk.indices, ref_idx), backend
            assert np.array_equal(tk.distances, ref_dist), backend

    def test_ties_break_toward_lower_index(self):
        # Duplicate table rows: every distance ties, index order decides.
        row = np.random.default_rng(0).integers(0, 2, 33, dtype=np.uint8)
        table = np.tile(row, (8, 1))
        for backend in BACKENDS:
            tk = topk_hamming(row, table, 5, backend=backend)
            assert tk.indices.tolist() == [0, 1, 2, 3, 4]
            assert np.all(tk.distances == 0.0)

    def test_single_query_returns_vectors(self):
        a, b = batches(1, 20, 50, seed=23)
        tk = topk_hamming(a[0], b, 4)
        assert tk.indices.shape == (4,) and tk.distances.shape == (4,)
        batch = topk_hamming(a, b, 4)
        assert np.array_equal(batch.indices[0], tk.indices)

    def test_k_out_of_range_rejected(self):
        a, b = batches(2, 5, 16, seed=29)
        for bad in (0, -1, 6, 2.5, True):
            with pytest.raises(InvalidParameterError):
                topk_hamming(a, b, bad)

    def test_k_equals_table_size_is_full_ranking(self):
        a, b = batches(4, 7, 41, seed=31)
        ref_idx, ref_dist = self.reference(a, b, 7)
        tk = topk_hamming(a, b, 7, backend="gemm")
        assert np.array_equal(tk.indices, ref_idx)
        assert np.array_equal(tk.distances, ref_dist)


class TestItemMemoryTopK:
    def memory(self, n=20, d=65, seed=37):
        rng = np.random.default_rng(seed)
        mem = ItemMemory(dim=d)
        for i in range(n):
            mem.add(f"item{i}", rng.integers(0, 2, d, dtype=np.uint8))
        return mem

    def test_query_topk_matches_distances_ranking(self):
        mem = self.memory()
        q = np.random.default_rng(41).integers(0, 2, (3, 65), dtype=np.uint8)
        dist = mem.distances(q)
        keys = mem.keys()
        for backend in BACKENDS:
            hits = mem.query_topk(q, 4, backend=backend)
            for row, row_hits in zip(dist, hits):
                order = np.argsort(row, kind="stable")[:4]
                assert [h[0] for h in row_hits] == [keys[i] for i in order]
                assert [h[1] for h in row_hits] == [row[i] for i in order]

    def test_query_topk_k1_equals_query_batch(self):
        mem = self.memory(seed=43)
        q = np.random.default_rng(47).integers(0, 2, (6, 65), dtype=np.uint8)
        top1 = [hits[0][0] for hits in mem.query_topk(q, 1)]
        assert top1 == mem.query_batch(q)

    def test_query_topk_single_query_shape(self):
        mem = self.memory(seed=53)
        q = np.random.default_rng(59).integers(0, 2, 65, dtype=np.uint8)
        hits = mem.query_topk(q, 3)
        assert isinstance(hits, list) and len(hits) == 3
        assert isinstance(hits[0], tuple)

    @pytest.mark.parametrize("chunk", (1, 2, 3, 5))
    def test_query_topk_over_query_slices(self, chunk):
        # A query's ranking never depends on the batch it arrives in.
        mem = self.memory(n=23, seed=61)
        q = np.random.default_rng(67).integers(0, 2, (5, 65), dtype=np.uint8)
        for backend in BACKENDS:
            whole = mem.query_topk(q, 6, backend=backend)
            parts = [
                hits
                for lo in range(0, len(q), chunk)
                for hits in mem.query_topk(q[lo:lo + chunk], 6, backend=backend)
            ]
            assert parts == whole, backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_query_topk_ties_follow_insertion_order(self, backend):
        d = 48
        row = np.random.default_rng(71).integers(0, 2, d, dtype=np.uint8)
        mem = ItemMemory(dim=d)
        for i in range(9):
            mem.add(i, row)
        hits = mem.query_topk(row, 5, backend=backend)
        assert [key for key, _ in hits] == [0, 1, 2, 3, 4]

    def test_query_topk_k_too_large_rejected(self):
        mem = self.memory(n=4, seed=73)
        q = np.zeros(65, dtype=np.uint8)
        with pytest.raises(InvalidParameterError):
            mem.query_topk(q, 5)
