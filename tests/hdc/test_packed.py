"""Equivalence and behaviour tests for the bit-packed backend.

The contract of :mod:`repro.hdc.packed` is exact equivalence: for every
operation, pack → op → unpack must equal the unpacked op bit for bit —
including tie-break RNG draws, shifts not divisible by 8, and dimensions
not divisible by 8 (where the packed tail byte carries padding).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    DimensionMismatchError,
    EmptyModelError,
    InvalidHypervectorError,
    InvalidParameterError,
)
from repro.hdc import (
    BSCSpace,
    BundleAccumulator,
    ItemMemory,
    PackedBSCSpace,
    PackedHV,
    as_hypervector,
    bind,
    bundle,
    coerce_packed,
    hamming_distance,
    is_hypervector,
    pairwise_hamming,
    permute,
    random_hypervectors,
)
from repro.hdc import packed as packed_mod
from repro.learning import CentroidClassifier, HDRegressor
from repro.basis import LevelBasis

#: Dimensions exercising both the aligned and the padded tail-byte paths.
DIMS = [64, 1000, 1003]


def sample(n, dim, seed=0):
    return random_hypervectors(n, dim, seed=seed)


class TestPackedHV:
    @pytest.mark.parametrize("dim", DIMS)
    def test_pack_unpack_roundtrip(self, dim):
        bits = sample(5, dim)
        packed = PackedHV.pack(bits)
        assert packed.dim == dim
        assert packed.shape == (5, dim)
        assert packed.nbytes == 5 * ((dim + 7) // 8)
        np.testing.assert_array_equal(packed.unpack(), bits)

    def test_from_bytes_masks_padding(self):
        raw = np.full(2, 0xFF, dtype=np.uint8)
        packed = PackedHV.from_bytes(raw, 13)
        assert int(packed.count_ones()) == 13  # 3 padding bits masked off

    def test_getitem_and_len(self):
        bits = sample(4, 100)
        packed = PackedHV.pack(bits)
        assert len(packed) == 4
        np.testing.assert_array_equal(packed[1].unpack(), bits[1])
        np.testing.assert_array_equal(packed[[0, 3]].unpack(), bits[[0, 3]])
        mask = np.array([True, False, True, False])
        np.testing.assert_array_equal(packed[mask].unpack(), bits[mask])

    def test_as_hypervector_coerces_packed(self):
        bits = sample(3, 77)
        packed = PackedHV.pack(bits)
        assert is_hypervector(packed)
        np.testing.assert_array_equal(as_hypervector(packed), bits)

    def test_rejects_wrong_width(self):
        with pytest.raises(InvalidHypervectorError):
            PackedHV(np.zeros(3, dtype=np.uint8), 100)

    def test_rejects_non_uint8(self):
        with pytest.raises(InvalidHypervectorError):
            PackedHV(np.zeros(13, dtype=np.int64), 100)

    def test_equality(self):
        bits = sample(2, 50)
        assert PackedHV.pack(bits) == PackedHV.pack(bits)
        other = bits.copy()
        other[0, 0] ^= 1
        assert PackedHV.pack(bits) != PackedHV.pack(other)


class TestPopcount:
    def test_fallback_matches_hardware(self, monkeypatch):
        data = np.random.default_rng(1).integers(0, 256, size=(16, 9), dtype=np.uint8)
        fast = packed_mod.popcount(data, axis=-1)
        monkeypatch.setattr(packed_mod, "_HAVE_BITWISE_COUNT", False)
        slow = packed_mod.popcount(data, axis=-1)
        np.testing.assert_array_equal(fast, slow)

    @pytest.mark.parametrize("dim", DIMS)
    def test_fallback_hamming(self, monkeypatch, dim):
        a, b = sample(2, dim, seed=3)
        expected = float((a != b).mean())
        monkeypatch.setattr(packed_mod, "_HAVE_BITWISE_COUNT", False)
        got = hamming_distance(PackedHV.pack(a), PackedHV.pack(b))
        assert float(got) == pytest.approx(expected)


class TestBindEquivalence:
    @pytest.mark.parametrize("dim", DIMS)
    def test_bind_matches_unpacked(self, dim):
        a = sample(4, dim, seed=1)
        b = sample(4, dim, seed=2)
        expected = bind(a, b)
        out = bind(PackedHV.pack(a), PackedHV.pack(b))
        assert isinstance(out, PackedHV)
        np.testing.assert_array_equal(out.unpack(), expected)

    def test_mixed_operands(self):
        a = sample(1, 200, seed=1)[0]
        b = sample(1, 200, seed=2)[0]
        out = bind(PackedHV.pack(a), b)
        assert isinstance(out, PackedHV)
        np.testing.assert_array_equal(out.unpack(), bind(a, b))

    def test_self_inverse(self):
        a, b = sample(2, 333, seed=4)
        pa, pb = PackedHV.pack(a), PackedHV.pack(b)
        np.testing.assert_array_equal(bind(pa, bind(pa, pb)).unpack(), b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            bind(PackedHV.pack(sample(1, 64)[0]), PackedHV.pack(sample(1, 65)[0]))


class TestBundleEquivalence:
    @pytest.mark.parametrize("dim", [1000, 1003])
    @pytest.mark.parametrize("tie_break", ["random", "zeros", "ones", "alternate"])
    @pytest.mark.parametrize("count", [3, 4])  # odd: no ties; even: ties hit
    def test_bundle_matches_unpacked(self, dim, tie_break, count):
        stack = sample(count, dim, seed=7)
        expected = bundle(stack, tie_break=tie_break, seed=123)
        out = bundle(PackedHV.pack(stack), tie_break=tie_break, seed=123)
        assert isinstance(out, PackedHV)
        np.testing.assert_array_equal(out.unpack(), expected)

    def test_bundle_sequence_of_packed(self):
        stack = sample(5, 500, seed=8)
        expected = bundle(stack, tie_break="zeros")
        out = bundle([PackedHV.pack(row) for row in stack], tie_break="zeros")
        np.testing.assert_array_equal(out.unpack(), expected)


class TestPermuteEquivalence:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("shift", [1, 3, 7, 8, 13, 100, -5, 0])
    def test_permute_matches_roll(self, dim, shift):
        hv = sample(1, dim, seed=9)[0]
        expected = np.roll(hv, shift)
        out = permute(PackedHV.pack(hv), shift)
        assert isinstance(out, PackedHV)
        np.testing.assert_array_equal(out.unpack(), expected)

    @pytest.mark.parametrize("dim", DIMS)
    def test_permute_batch(self, dim):
        batch = sample(4, dim, seed=10)
        out = permute(PackedHV.pack(batch), 11)
        np.testing.assert_array_equal(out.unpack(), np.roll(batch, 11, axis=-1))

    def test_inverse_roundtrip(self):
        hv = sample(1, 1000, seed=11)[0]
        packed = PackedHV.pack(hv)
        np.testing.assert_array_equal(permute(permute(packed, 13), -13).unpack(), hv)

    def test_rejects_non_integer_shift(self):
        with pytest.raises(InvalidParameterError):
            permute(PackedHV.pack(sample(1, 64)[0]), 1.5)


class TestDistanceEquivalence:
    @pytest.mark.parametrize("dim", DIMS)
    def test_hamming_matches_unpacked(self, dim):
        a, b = sample(2, dim, seed=12)
        expected = float(hamming_distance(a, b))
        assert float(hamming_distance(PackedHV.pack(a), PackedHV.pack(b))) == pytest.approx(expected)

    @pytest.mark.parametrize("dim", [7, 8, 63, 64, 1003])
    def test_pairwise_matches_unpacked(self, dim):
        a = sample(5, dim, seed=13)
        b = sample(3, dim, seed=14)
        expected = pairwise_hamming(a, b)
        out = pairwise_hamming(PackedHV.pack(a), PackedHV.pack(b))
        np.testing.assert_allclose(out, expected)

    def test_broadcast_batch_vs_single(self):
        batch = sample(6, 250, seed=15)
        single = sample(1, 250, seed=16)[0]
        expected = hamming_distance(batch, single)
        out = hamming_distance(PackedHV.pack(batch), PackedHV.pack(single))
        np.testing.assert_allclose(out, expected)


class TestBundleAccumulator:
    def test_streaming_matches_oneshot(self):
        stack = sample(9, 1003, seed=17)
        acc = BundleAccumulator(1003)
        acc.add(stack[:4])
        acc.add(PackedHV.pack(stack[4:8]))
        acc.add(stack[8])
        np.testing.assert_array_equal(
            acc.finalize(tie_break="zeros"), bundle(stack, tie_break="zeros")
        )
        assert acc.total == 9

    def test_subtract_restores(self):
        stack = sample(5, 200, seed=18)
        extra = sample(1, 200, seed=19)[0]
        acc = BundleAccumulator(200).add(stack).add(extra).subtract(extra)
        np.testing.assert_array_equal(
            acc.finalize(tie_break="ones"), bundle(stack, tie_break="ones")
        )

    def test_merge_matches_single(self):
        stack = sample(8, 300, seed=20)
        left = BundleAccumulator(300).add(stack[:3])
        right = BundleAccumulator(300).add(stack[3:])
        left.merge(right)
        np.testing.assert_array_equal(
            left.finalize(tie_break="alternate"),
            bundle(stack, tie_break="alternate"),
        )

    @pytest.mark.parametrize("packed", [False, True], ids=["unpacked", "packed"])
    @pytest.mark.parametrize("rows", [0xFFFF, 0x10000])
    def test_column_sums_are_exact_at_the_narrow_limit(self, rows, packed):
        """One batch at and just past 65,535 rows (the uint16 column-sum
        limit) lands the int64 counts of a plain sum, and subtracting it
        returns to zero."""
        stack = np.ones((rows, 16), dtype=np.uint8)
        stack[::3, :8] = 0
        batch = PackedHV.pack(stack) if packed else stack
        expected = stack.sum(axis=0, dtype=np.int64)
        acc = BundleAccumulator(16).add(batch)
        assert acc.counts.dtype == np.int64
        np.testing.assert_array_equal(acc.counts, expected)
        assert acc.total == rows
        acc.subtract(batch)
        np.testing.assert_array_equal(acc.counts, np.zeros(16, dtype=np.int64))
        assert acc.total == 0

    @pytest.mark.parametrize("packed", [False, True], ids=["unpacked", "packed"])
    def test_single_vector_add_and_subtract(self, packed):
        row = sample(1, 77, seed=23)[0]
        hv = PackedHV.pack(row) if packed else row
        acc = BundleAccumulator(77).add(hv)
        np.testing.assert_array_equal(acc.counts, row.astype(np.int64))
        assert acc.total == 1
        acc.subtract(hv)
        np.testing.assert_array_equal(acc.counts, np.zeros(77, dtype=np.int64))
        assert acc.total == 0

    def test_add_counts_equals_add(self):
        stack = sample(6, 130, seed=22)
        direct = BundleAccumulator(130).add(stack)
        folded = BundleAccumulator(130).add_counts(direct.counts, direct.total)
        np.testing.assert_array_equal(folded.counts, direct.counts)
        assert folded.total == direct.total
        with pytest.raises(InvalidParameterError):
            folded.add_counts(direct.counts.astype(np.float64), 1)

    def test_signed_view(self):
        stack = sample(4, 64, seed=21)
        acc = BundleAccumulator(64).add(stack)
        signed = 2 * stack.astype(np.int64) - 1
        np.testing.assert_array_equal(acc.signed, signed.sum(axis=0))

    def test_empty_finalize_raises(self):
        with pytest.raises(EmptyModelError):
            BundleAccumulator(64).finalize()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            BundleAccumulator(64).add(sample(2, 65))

    def test_finalize_packed(self):
        stack = sample(3, 77, seed=22)
        acc = BundleAccumulator(77).add(stack)
        out = acc.finalize_packed(tie_break="zeros")
        assert isinstance(out, PackedHV)
        np.testing.assert_array_equal(out.unpack(), bundle(stack, tie_break="zeros"))


class TestPackedBSCSpace:
    def test_random_shape_and_distribution(self):
        space = PackedBSCSpace(dim=1003, seed=0)
        hvs = space.random(32)
        assert isinstance(hvs, PackedHV)
        assert hvs.shape == (32, 1003)
        density = hvs.unpack().mean()
        assert 0.45 < density < 0.55

    def test_same_semantics_as_unpacked_space(self):
        space = PackedBSCSpace(dim=1000, seed=1, tie_break="zeros")
        bsc = BSCSpace(dim=1000, seed=2, tie_break="zeros")
        bits = bsc.random(6)
        packed = space.pack(bits)
        np.testing.assert_array_equal(
            space.bundle(packed).unpack(), bsc.bundle(bits)
        )
        np.testing.assert_array_equal(
            space.bind(packed[0], packed[1]).unpack(), bsc.bind(bits[0], bits[1])
        )
        np.testing.assert_array_equal(
            space.permute(packed[3], 5).unpack(), bsc.permute(bits[3], 5)
        )
        assert float(space.distance(packed[0], packed[1])) == pytest.approx(
            float(bsc.distance(bits[0], bits[1]))
        )

    def test_bind_decorrelates(self):
        space = PackedBSCSpace(dim=10_000, seed=3)
        hvs = space.random(2)
        a, b = hvs[0], hvs[1]
        assert abs(float(space.distance(a, space.bind(a, b))) - 0.5) < 0.05

    def test_width(self):
        assert PackedBSCSpace(dim=1003).width == 126

    def test_coerce_packed_dim_check(self):
        with pytest.raises(DimensionMismatchError):
            coerce_packed(sample(1, 64)[0], dim=65)


class TestPackedThroughLayers:
    def test_item_memory_accepts_both(self):
        dim = 1003
        bits = sample(4, dim, seed=23)
        mem = ItemMemory(dim=dim)
        mem.add("a", bits[0])
        mem.add("b", PackedHV.pack(bits[1]))
        np.testing.assert_array_equal(mem.get("b"), bits[1])
        assert mem.get_packed("a") == PackedHV.pack(bits[0])
        assert mem.query(PackedHV.pack(bits[0])) == "a"
        assert mem.query(bits[1]) == "b"
        assert mem.nbytes == 2 * 126
        np.testing.assert_allclose(
            mem.distances(PackedHV.pack(bits[2])), mem.distances(bits[2])
        )

    def test_classifier_packed_equals_unpacked(self):
        dim = 1000
        x = sample(40, dim, seed=24)
        y = [i % 4 for i in range(40)]
        clf_u = CentroidClassifier(dim, tie_break="zeros").fit(x, y)
        clf_p = CentroidClassifier(dim, tie_break="zeros").fit(PackedHV.pack(x), y)
        queries = sample(10, dim, seed=25)
        assert clf_u.predict(queries) == clf_p.predict(PackedHV.pack(queries))
        for label in clf_u.classes:
            np.testing.assert_array_equal(
                clf_u.class_vector(label), clf_p.class_vector(label)
            )
            np.testing.assert_array_equal(
                clf_p.packed_class_vector(label).unpack(), clf_p.class_vector(label)
            )

    def test_classifier_refine_packed_equals_unpacked(self):
        dim = 512
        x = sample(30, dim, seed=26)
        y = [i % 3 for i in range(30)]
        clf_u = CentroidClassifier(dim, tie_break="zeros").fit(x, y)
        clf_p = CentroidClassifier(dim, tie_break="zeros").fit(PackedHV.pack(x), y)
        up_u = clf_u.refine(x, y, epochs=2)
        up_p = clf_p.refine(PackedHV.pack(x), y, epochs=2)
        assert up_u == up_p
        queries = sample(8, dim, seed=27)
        assert clf_u.predict(queries) == clf_p.predict(PackedHV.pack(queries))

    def test_regressor_packed_equals_unpacked(self):
        dim = 1000
        basis = LevelBasis(16, dim, seed=28)
        rng = np.random.default_rng(29)
        y = rng.uniform(0.0, 1.0, size=50)
        x = basis.linear_embedding(0.0, 1.0).encode(y)  # self-supervised toy task
        for mode in ("binary", "integer"):
            reg_u = HDRegressor(
                basis.linear_embedding(0.0, 1.0), tie_break="zeros", model=mode
            ).fit(x, y)
            reg_p = HDRegressor(
                basis.linear_embedding(0.0, 1.0), tie_break="zeros", model=mode
            ).fit(PackedHV.pack(x), y)
            np.testing.assert_allclose(reg_u.predict(x), reg_p.predict(PackedHV.pack(x)))
            if mode == "binary":
                np.testing.assert_array_equal(reg_u.model, reg_p.model)

    def test_refine_surviving_negative_class_total(self):
        # A class can end refine() with net total <= 0 (more subtractions
        # than additions); prediction must keep working, as it did with
        # the signed-accumulator formulation.
        dim = 256
        clf = CentroidClassifier(dim, tie_break="zeros")
        x = sample(6, dim, seed=31)
        clf.fit(x[:1], ["rare"]).fit(x[1:], ["common"] * 5)
        # Force subtractions from "rare" by refining samples labelled
        # "common" that the model may assign to "rare".
        clf.refine(x, ["common"] * 6, epochs=3)
        assert len(clf.predict(x)) == 6  # materialise must not raise

    def test_query_rejects_batch(self):
        mem = ItemMemory(dim=64)
        bits = sample(3, 64, seed=32)
        mem.add("a", bits[0])
        with pytest.raises(InvalidParameterError):
            mem.query(bits)
        with pytest.raises(InvalidParameterError):
            mem.query(PackedHV.pack(bits))

    def test_accumulator_chunked_packed_add(self, monkeypatch):
        # Force tiny chunks so the chunked path is exercised on a batch.
        monkeypatch.setattr(BundleAccumulator, "_CHUNK_BYTES", 1)
        stack = sample(7, 100, seed=33)
        acc = BundleAccumulator(100).add(PackedHV.pack(stack))
        assert acc.total == 7
        np.testing.assert_array_equal(
            acc.finalize(tie_break="zeros"), bundle(stack, tie_break="zeros")
        )

    def test_embedding_packed_encode_decode(self):
        basis = LevelBasis(10, 1003, seed=30)
        emb = basis.linear_embedding(0.0, 9.0)
        values = np.array([0.0, 3.0, 7.0, 9.0])
        packed = emb.encode_packed(values)
        assert isinstance(packed, PackedHV)
        np.testing.assert_array_equal(packed.unpack(), emb.encode(values))
        np.testing.assert_allclose(emb.decode(packed), emb.decode(emb.encode(values)))
