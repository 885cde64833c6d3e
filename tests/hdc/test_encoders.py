"""Tests for the compound encoders (records, sequences, n-grams)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError, InvalidParameterError
from repro.hdc import (
    bind,
    bundle,
    encode_bound_records,
    encode_keyvalue_record,
    encode_keyvalue_records,
    encode_ngrams,
    encode_sequence,
    hamming_distance,
    permute,
    random_hypervectors,
)


class TestKeyValueRecord:
    def test_matches_manual_construction(self, rng, dim):
        keys = random_hypervectors(3, dim, rng)
        values = random_hypervectors(3, dim, rng)
        manual = bundle(
            np.stack([bind(keys[i], values[i]) for i in range(3)]), seed=1
        )
        encoded = encode_keyvalue_record(keys, values, seed=1)
        np.testing.assert_array_equal(encoded, manual)

    def test_value_recoverable_by_unbinding(self, rng):
        dim = 20_000
        keys = random_hypervectors(5, dim, rng)
        values = random_hypervectors(5, dim, rng)
        record = encode_keyvalue_record(keys, values, seed=rng)
        # Unbinding key i from the record should be closer to value i than
        # to an unrelated random vector.
        probe = bind(record, keys[2])
        assert float(hamming_distance(probe, values[2])) < 0.4

    def test_shape_mismatch(self, rng, dim):
        with pytest.raises(InvalidParameterError):
            encode_keyvalue_record(
                random_hypervectors(3, dim, rng), random_hypervectors(2, dim, rng)
            )


class TestKeyValueRecordsBatch:
    def test_matches_single_record_encoding(self, rng, dim):
        keys = random_hypervectors(4, dim, rng)
        basis = random_hypervectors(9, dim, rng)
        indices = rng.integers(0, 9, size=(6, 4))
        batch = encode_keyvalue_records(keys, indices, basis, seed=5)
        single = encode_keyvalue_record(keys, basis[indices[3]], seed=5)
        # Both use majority over the same 4 bound vectors; ties are broken
        # by independent streams, so compare the deterministic (non-tied)
        # positions via the exact counts.
        bound = np.bitwise_xor(basis[indices[3]], keys)
        counts = bound.sum(axis=0)
        decided = counts * 2 != 4
        np.testing.assert_array_equal(batch[3][decided], single[decided])

    def test_chunking_invariance(self, rng, dim):
        keys = random_hypervectors(4, dim, rng)  # an even count: ties occur
        basis = random_hypervectors(7, dim, rng)
        indices = rng.integers(0, 7, size=(10, 4))
        for policy in ("zeros", "random"):
            a = encode_keyvalue_records(
                keys, indices, basis, chunk_size=3, seed=2, tie_break=policy
            )
            b = encode_keyvalue_records(
                keys, indices, basis, chunk_size=100, seed=2, tie_break=policy
            )
            np.testing.assert_array_equal(a, b)

    def test_output_shape(self, rng, dim):
        keys = random_hypervectors(2, dim, rng)
        basis = random_hypervectors(4, dim, rng)
        indices = rng.integers(0, 4, size=(8, 2))
        assert encode_keyvalue_records(keys, indices, basis).shape == (8, dim)

    def test_similar_records_have_similar_encodings(self, rng):
        """Records sharing most feature values stay close in hyperspace."""
        dim = 20_000
        keys = random_hypervectors(10, dim, rng)
        basis = random_hypervectors(4, dim, rng)
        base = rng.integers(0, 4, size=(1, 10))
        variant = base.copy()
        variant[0, 0] = (variant[0, 0] + 1) % 4  # change one of ten features
        different = rng.integers(0, 4, size=(1, 10))
        encoded = encode_keyvalue_records(
            keys, np.concatenate([base, variant, different]), basis, seed=3
        )
        d_near = float(hamming_distance(encoded[0], encoded[1]))
        d_far = float(hamming_distance(encoded[0], encoded[2]))
        assert d_near < d_far

    def test_index_out_of_range(self, rng, dim):
        keys = random_hypervectors(2, dim, rng)
        basis = random_hypervectors(4, dim, rng)
        with pytest.raises(InvalidParameterError):
            encode_keyvalue_records(keys, np.array([[0, 4]]), basis)

    def test_wrong_feature_count(self, rng, dim):
        keys = random_hypervectors(2, dim, rng)
        basis = random_hypervectors(4, dim, rng)
        with pytest.raises(InvalidParameterError):
            encode_keyvalue_records(keys, np.array([[0, 1, 2]]), basis)

    def test_dim_mismatch(self, rng):
        keys = random_hypervectors(2, 64, rng)
        basis = random_hypervectors(4, 128, rng)
        with pytest.raises(DimensionMismatchError):
            encode_keyvalue_records(keys, np.array([[0, 1]]), basis)


class TestBoundRecords:
    def test_matches_manual_xor(self, rng, dim):
        a = random_hypervectors(5, dim, rng)
        b = random_hypervectors(5, dim, rng)
        c = random_hypervectors(5, dim, rng)
        out = encode_bound_records([a, b, c])
        np.testing.assert_array_equal(out, a ^ b ^ c)

    def test_single_feature_identity(self, rng, dim):
        a = random_hypervectors(3, dim, rng)
        np.testing.assert_array_equal(encode_bound_records([a]), a)

    def test_shape_mismatch(self, rng, dim):
        with pytest.raises(InvalidParameterError):
            encode_bound_records(
                [random_hypervectors(2, dim, rng), random_hypervectors(3, dim, rng)]
            )

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            encode_bound_records([])


class TestSequence:
    def test_single_item_is_permuted_item(self, rng, dim):
        item = random_hypervectors(1, dim, rng)
        np.testing.assert_array_equal(encode_sequence(item), permute(item[0], 1))

    def test_order_sensitivity(self, rng):
        """Anagrams must map to different hypervectors."""
        dim = 20_000
        items = random_hypervectors(3, dim, rng)
        forward = encode_sequence(items, seed=1)
        backward = encode_sequence(items[::-1], seed=1)
        assert float(hamming_distance(forward, backward)) > 0.2

    def test_similarity_to_tagged_symbols(self, rng):
        dim = 20_000
        items = random_hypervectors(3, dim, rng)
        encoded = encode_sequence(items, seed=rng)
        for i in range(3):
            assert float(hamming_distance(encoded, permute(items[i], i + 1))) < 0.4

    def test_rejects_non_matrix(self, rng, dim):
        with pytest.raises(InvalidParameterError):
            encode_sequence(random_hypervectors(1, dim, rng)[0])


class TestNGrams:
    def test_window_count_one(self, rng, dim):
        items = random_hypervectors(3, dim, rng)
        out = encode_ngrams(items, n=3)
        manual = np.bitwise_xor.reduce(
            np.stack([permute(items[0], 2), permute(items[1], 1), items[2]]), axis=0
        )
        np.testing.assert_array_equal(out, manual)

    def test_too_short_sequence(self, rng, dim):
        with pytest.raises(InvalidParameterError):
            encode_ngrams(random_hypervectors(2, dim, rng), n=3)

    def test_invalid_n(self, rng, dim):
        with pytest.raises(InvalidParameterError):
            encode_ngrams(random_hypervectors(3, dim, rng), n=0)

    def test_shared_ngrams_increase_similarity(self, rng):
        """Texts sharing trigrams are closer than unrelated texts."""
        dim = 20_000
        alphabet = random_hypervectors(10, dim, rng)
        seq_a = alphabet[[0, 1, 2, 3, 4, 5]]
        seq_b = alphabet[[0, 1, 2, 3, 6, 7]]  # shares the first trigrams
        seq_c = alphabet[[9, 8, 7, 6, 5, 4]]
        a = encode_ngrams(seq_a, seed=rng)
        b = encode_ngrams(seq_b, seed=rng)
        c = encode_ngrams(seq_c, seed=rng)
        assert float(hamming_distance(a, b)) < float(hamming_distance(a, c))
