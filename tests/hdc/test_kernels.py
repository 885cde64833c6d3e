"""Property tests for the similarity-kernel subsystem.

The contract under test: the two private backends (``_xor_counts``,
``_gemm_counts``) and the dispatching ``pairwise_hamming`` are **the
same function** as the packed layer's byte-wise reference
(:func:`~repro.hdc.packed.packed_pairwise_hamming`) — bit-for-bit —
differing only in speed, for any dimension (tail-mask and ``uint64``
word-padding edges), either operand orientation, with or without the
hardware popcount, and with the dispatch forced to either side of
``AUTO_CROSSOVER``, directly and through the consumers;
``topk_hamming`` equals a stable full-matrix argsort with lower-index
tie-breaking; the allocation budget changes nothing but block sizes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.basis import CircularBasis
from repro.exceptions import (
    CalibrationError,
    DimensionMismatchError,
    InvalidParameterError,
)
from repro.hdc import ItemMemory, PackedHV, kernels, pairwise_hamming
from repro.hdc.kernels import (
    AUTO_CROSSOVER,
    DEFAULT_CELL_BUDGET,
    cell_budget,
    topk_hamming,
    use_gemm,
)
from repro.hdc.packed import packed_pairwise_hamming
from repro.learning import HDRegressor, regression

#: Dimensions chosen to cross the packed tail-mask edge (multiples of 8,
#: every residue mod 8, and the degenerate d=1) and the ``uint64``
#: word-padding edge of the ``xor`` scan (63/64/65, 511/512).
ODD_DIMS = (1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100, 101, 511, 512, 1000, 1001)


#: The two exact backends, by the name the dispatch spy records.
BACKENDS = {"xor": "_xor_counts", "gemm": "_gemm_counts"}


def batches(n, m, d, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 2, (n, d), dtype=np.uint8),
        rng.integers(0, 2, (m, d), dtype=np.uint8),
    )


def run_backend(name, a, b=None, normalize=True):
    """One backend called directly: distances, or raw counts."""
    pa, pb = kernels._as_pair(a, b)
    return getattr(kernels, BACKENDS[name])(pa.data, pb.data, pa.dim, normalize=normalize)


def every_path(a, b=None):
    """The distance matrix from each backend and from the dispatcher."""
    out = {name: run_backend(name, a, b) for name in BACKENDS}
    out["auto"] = pairwise_hamming(a, b)
    return out


def reference_topk(a, b, k):
    """Stable full-matrix argsort of the byte-wise reference distances."""
    full = packed_pairwise_hamming(a, b)
    order = np.argsort(full, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(full, order, axis=1)


@pytest.fixture
def spy(monkeypatch):
    """Record which backend each dispatched call runs."""
    ran = []

    def wrap(name):
        real = getattr(kernels, name)

        def recorded(*args, **kwargs):
            ran.append(name)
            return real(*args, **kwargs)

        return recorded

    for name in BACKENDS.values():
        monkeypatch.setattr(kernels, name, wrap(name))
    return ran


class TestBackendAgreement:
    @pytest.mark.parametrize("d", ODD_DIMS)
    def test_backends_bitwise_identical_across_dims(self, d):
        a, b = batches(13, 9, d, seed=d)
        ref = packed_pairwise_hamming(a, b)
        for path, got in every_path(a, b).items():
            assert np.array_equal(got, ref), path

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
            for path, got in every_path(lhs, rhs).items():
                assert np.array_equal(got, ref), path

    def test_backends_bitwise_identical_without_hardware_popcount(self, monkeypatch):
        from repro.hdc import packed as packed_mod

        a, b = batches(11, 23, 333, seed=3)
        ref = packed_pairwise_hamming(a, b)
        monkeypatch.setattr(packed_mod, "_HAVE_BITWISE_COUNT", False)
        for path, got in every_path(a, b).items():
            assert np.array_equal(got, ref), path

    def test_concurrent_callers_do_not_share_scratch(self):
        # Experiment cells run on a thread pool; each scan's scratch is
        # its own, so concurrent calls answer exactly as serial ones.
        pairs = [batches(9, 57, 1001, seed=s) for s in range(8)]
        refs = [packed_pairwise_hamming(a, b) for a, b in pairs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda p: run_backend("xor", *p), pairs))
        for out, ref in zip(got, refs):
            assert np.array_equal(out, ref)

    def test_packed_and_unpacked_inputs_agree(self):
        a, b = batches(11, 7, 123, seed=3)
        ref = packed_pairwise_hamming(a, b)
        pa, pb = PackedHV.pack(a), PackedHV.pack(b)
        for lhs, rhs in ((pa, pb), (pa, b)):
            for path, got in every_path(lhs, rhs).items():
                assert np.array_equal(got, ref), path

    def test_self_comparison_default_others(self):
        a, _ = batches(21, 1, 77, seed=5)
        ref = packed_pairwise_hamming(a)
        for path, got in every_path(a).items():
            assert np.array_equal(got, ref), path
            assert np.allclose(np.diag(got), 0.0)

    def test_counts_are_integer_form_of_distances(self):
        a, b = batches(6, 8, 93, seed=7)
        ref = packed_pairwise_hamming(a, b)
        for name in BACKENDS:
            counts = run_backend(name, a, b, normalize=False)
            assert counts.dtype == np.int64
            assert np.array_equal(counts / 93, ref), name

    def test_dimension_mismatch_raises(self):
        a, _ = batches(4, 1, 64, seed=1)
        b, _ = batches(4, 1, 72, seed=1)
        with pytest.raises(DimensionMismatchError):
            pairwise_hamming(a, b)


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
    def test_tiny_budget_forces_blocking_without_changing_bits(
        self, monkeypatch, kernel_side, budget
    ):
        a, b = batches(17, 23, 129, seed=11)
        ref = packed_pairwise_hamming(a, b)
        ref_idx, ref_dist = reference_topk(a, b, 5)
        monkeypatch.setenv("REPRO_KERNEL_BUDGET", budget)
        assert np.array_equal(run_backend(kernel_side, a, b), ref)
        assert np.array_equal(pairwise_hamming(a, b), ref)
        tk = topk_hamming(a, b, 5)
        assert np.array_equal(tk.indices, ref_idx)
        assert np.array_equal(tk.distances, ref_dist)

    def test_budget_shared_with_packed_reference_kernel(self, monkeypatch):
        a, b = batches(9, 9, 65, seed=13)
        ref = packed_pairwise_hamming(a, b)
        monkeypatch.setenv("REPRO_KERNEL_BUDGET", "1")
        assert np.array_equal(packed_pairwise_hamming(a, b), ref)


class TestDispatch:
    @pytest.mark.parametrize("shape", [(1, 4), (13, 9), (40, 60)])
    def test_forced_side_runs_and_is_bit_identical(self, kernel_side, spy, shape):
        # Either side of any threshold can cost time, never correctness.
        n, m = shape
        a, b = batches(n, m, 333, seed=n + m)
        assert np.array_equal(pairwise_hamming(a, b), packed_pairwise_hamming(a, b))
        assert spy == [BACKENDS[kernel_side]]

    @pytest.mark.parametrize("shape", [(1, 10), (32, 10), (1024, 15), (64, 64)])
    def test_dispatch_runs_the_backend_use_gemm_names(self, spy, shape):
        n, m = shape
        a, b = batches(n, m, 100, seed=n + m)
        got = pairwise_hamming(a, b)
        assert np.array_equal(got, packed_pairwise_hamming(a, b))
        assert spy == [BACKENDS["gemm" if use_gemm(n, m) else "xor"]]

    def test_auto_crossover_shape(self):
        # The unpack toll sinks GEMM whenever one side is tiny …
        assert not use_gemm(1, 10_000)
        assert not use_gemm(10_000, 1)
        # … and BLAS wins once both sides are substantial.
        assert use_gemm(100, 100)
        assert use_gemm(1000, 1000)
        # The threshold is the harmonic size n·m/(n+m).
        assert use_gemm(32, 32) == (32 * 32 >= AUTO_CROSSOVER * 64)
        assert not use_gemm(0, 100)

    def test_single_row_batches(self):
        a, b = batches(1, 1, 16, seed=19)
        ref = packed_pairwise_hamming(a, b)
        for path, out in every_path(a, b).items():
            assert out.shape == (1, 1)
            assert out == ref, path


class TestTopK:
    @pytest.mark.parametrize("d", (7, 64, 129))
    @pytest.mark.parametrize("k", (1, 3, 11))
    def test_topk_matches_full_sort(self, kernel_side, d, k):
        a, b = batches(9, 11, d, seed=d + k)
        ref_idx, ref_dist = reference_topk(a, b, k)
        tk = topk_hamming(a, b, k)
        assert np.array_equal(tk.indices, ref_idx)
        assert np.array_equal(tk.distances, ref_dist)

    def test_ties_break_toward_lower_index(self, kernel_side):
        # Duplicate table rows: every distance ties, index order decides.
        row = np.random.default_rng(0).integers(0, 2, 33, dtype=np.uint8)
        table = np.tile(row, (8, 1))
        tk = topk_hamming(row, table, 5)
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

    def test_k_equals_table_size_is_full_ranking(self, kernel_side):
        a, b = batches(4, 7, 41, seed=31)
        ref_idx, ref_dist = reference_topk(a, b, 7)
        tk = topk_hamming(a, b, 7)
        assert np.array_equal(tk.indices, ref_idx)
        assert np.array_equal(tk.distances, ref_dist)


class TestItemMemoryTopK:
    def memory(self, n=20, d=65, seed=37):
        rng = np.random.default_rng(seed)
        mem = ItemMemory(dim=d)
        for i in range(n):
            mem.add(f"item{i}", rng.integers(0, 2, d, dtype=np.uint8))
        return mem

    def test_query_topk_matches_distances_ranking(self, kernel_side):
        mem = self.memory()
        q = np.random.default_rng(41).integers(0, 2, (3, 65), dtype=np.uint8)
        dist = mem.distances(q)
        keys = mem.keys()
        hits = mem.query_topk(q, 4)
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
    def test_query_topk_over_query_slices(self, kernel_side, chunk):
        # A query's ranking never depends on the batch it arrives in.
        mem = self.memory(n=23, seed=61)
        q = np.random.default_rng(67).integers(0, 2, (5, 65), dtype=np.uint8)
        whole = mem.query_topk(q, 6)
        parts = [
            hits
            for lo in range(0, len(q), chunk)
            for hits in mem.query_topk(q[lo:lo + chunk], 6)
        ]
        assert parts == whole

    def test_query_topk_ties_follow_insertion_order(self, kernel_side):
        d = 48
        row = np.random.default_rng(71).integers(0, 2, d, dtype=np.uint8)
        mem = ItemMemory(dim=d)
        for i in range(9):
            mem.add(i, row)
        hits = mem.query_topk(row, 5)
        assert [key for key, _ in hits] == [0, 1, 2, 3, 4]

    def test_query_topk_k_too_large_rejected(self):
        mem = self.memory(n=4, seed=73)
        q = np.zeros(65, dtype=np.uint8)
        with pytest.raises(InvalidParameterError):
            mem.query_topk(q, 5)


def test_consumers_answer_the_reference_on_either_side(kernel_side, spy, monkeypatch):
    """The default dispatch, forced to each side, through its consumers.

    Every expected answer is derived from the byte-wise reference
    ``packed_pairwise_hamming``; the spy proves the forced side ran.
    """
    emb = CircularBasis(24, 257, seed=0).circular_embedding(period=24.0)
    hours = np.arange(24.0)
    model = HDRegressor(emb, seed=1).fit(emb.encode_packed(hours), hours)
    model.prepare()
    queries = {
        rows: emb.encode_packed(np.random.default_rng(rows).uniform(0, 24, rows))
        for rows in (1, 64)
    }
    with monkeypatch.context() as ref:
        ref.setattr(regression, "pairwise_hamming", packed_pairwise_hamming)
        expected = {rows: model.predict(q) for rows, q in queries.items()}
    for rows, q in queries.items():
        assert np.array_equal(model.predict(q), expected[rows]), rows
    assert np.array_equal(
        emb.basis.distance_matrix(), packed_pairwise_hamming(emb.basis.packed)
    )

    mem = ItemMemory(dim=257)
    table = np.random.default_rng(5).integers(0, 2, (40, 257), dtype=np.uint8)
    for i, row in enumerate(table):
        mem.add(i, row)
    q = np.random.default_rng(6).integers(0, 2, (32, 257), dtype=np.uint8)
    ref_idx, ref_dist = reference_topk(q, table, 3)
    hits = mem.query_topk(q, 3)
    assert [[key for key, _ in row] for row in hits] == ref_idx.tolist()
    assert [[dist for _, dist in row] for row in hits] == ref_dist.tolist()
    assert spy and set(spy) == {BACKENDS[kernel_side]}
