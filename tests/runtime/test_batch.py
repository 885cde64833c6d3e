"""Tests for the whole-split BatchEncoder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import CircularBasis, LevelBasis
from repro.exceptions import DimensionMismatchError, InvalidParameterError
from repro.hdc.encoders import encode_keyvalue_records
from repro.hdc.hypervector import random_hypervectors
from repro.hdc.ops import majority_from_counts
from repro.hdc.packed import is_packed
from repro.runtime import BatchEncoder, WorkerPool

DIM = 512
CHANNELS = 6
LEVELS = 12


@pytest.fixture()
def encoder() -> BatchEncoder:
    basis = LevelBasis(LEVELS, DIM, seed=0)
    keys = random_hypervectors(CHANNELS, DIM, seed=1)
    return BatchEncoder(keys, basis.linear_embedding(0.0, 1.0))


@pytest.fixture()
def features() -> np.ndarray:
    return np.random.default_rng(7).random((300, CHANNELS))


class TestConstruction:
    def test_dimension_mismatch_rejected(self):
        basis = LevelBasis(LEVELS, DIM, seed=0)
        keys = random_hypervectors(CHANNELS, DIM * 2, seed=1)
        with pytest.raises(DimensionMismatchError):
            BatchEncoder(keys, basis.linear_embedding(0.0, 1.0))

    def test_bad_chunk_size_rejected(self, encoder):
        basis = LevelBasis(LEVELS, DIM, seed=0)
        keys = random_hypervectors(CHANNELS, DIM, seed=1)
        with pytest.raises(InvalidParameterError):
            BatchEncoder(keys, basis.linear_embedding(0.0, 1.0), chunk_size=0)

    def test_introspection(self, encoder):
        assert encoder.num_channels == CHANNELS
        assert encoder.dim == DIM
        assert encoder.nbytes == CHANNELS * LEVELS * DIM

    def test_bad_feature_shapes_rejected(self, encoder):
        with pytest.raises(InvalidParameterError):
            encoder.indices(np.zeros(5))
        with pytest.raises(InvalidParameterError):
            encoder.encode(np.zeros((5, CHANNELS + 1)))


class TestEquivalence:
    def test_matches_legacy_encoder(self, encoder, features):
        basis_vectors = encoder.embedding.basis.vectors
        keys = random_hypervectors(CHANNELS, DIM, seed=1)
        idx = encoder.indices(features)
        legacy = encode_keyvalue_records(
            keys, idx, basis_vectors, seed=np.random.default_rng(42)
        )
        mine = encoder.encode(features, seed=np.random.default_rng(42))
        assert np.array_equal(legacy, mine)

    def test_packed_output_same_bits(self, encoder, features):
        unpacked = encoder.encode(features, seed=np.random.default_rng(5))
        packed = encoder.encode(features, seed=np.random.default_rng(5), packed=True)
        assert is_packed(packed)
        assert np.array_equal(unpacked, packed.unpack())

    def test_parallel_bit_identical(self, encoder, features):
        serial = encoder.encode(features, seed=np.random.default_rng(9))
        for workers in (2, 4):
            with WorkerPool(workers=workers) as pool:
                par = encoder.encode(features, seed=np.random.default_rng(9), pool=pool)
            assert np.array_equal(serial, par)

    def test_circular_embedding(self, features):
        basis = CircularBasis(LEVELS, DIM, r=0.1, seed=3)
        emb = basis.circular_embedding(period=1.0)
        keys = random_hypervectors(CHANNELS, DIM, seed=4)
        enc = BatchEncoder(keys, emb)
        out = enc.encode(features, seed=0)
        assert out.shape == (features.shape[0], DIM)
        assert set(np.unique(out)) <= {0, 1}

    def test_indices_independent_of_basis_contents(self, encoder, features):
        # The r-sweep reuses one quantisation across many bases.
        idx = encoder.indices(features)
        assert idx.min() >= 0 and idx.max() < LEVELS

    def test_empty_batch(self, encoder):
        out = encoder.encode(np.empty((0, CHANNELS)), seed=0)
        assert out.shape == (0, DIM)


class TestEncodeOne:
    def test_bit_identical_to_batch_path(self, encoder, features):
        for row in features[:5]:
            one = encoder.encode_one(row, seed=21)
            batch = encoder.encode(row[None, :], seed=21)
            assert np.array_equal(one, batch)

    def test_random_tie_policy_consumes_rng_identically(self, features):
        # An even channel count with the "random" policy draws tie bits;
        # the fast path must consume the stream exactly like the batch
        # path for the answers to match.
        basis = LevelBasis(LEVELS, DIM, seed=0)
        keys = random_hypervectors(CHANNELS, DIM, seed=1)
        enc = BatchEncoder(keys, basis.linear_embedding(0.0, 1.0), tie_break="random")
        for row in features[:5]:
            one = enc.encode_one(row, seed=33)
            batch = enc.encode(row[None, :], seed=33)
            assert np.array_equal(one, batch)

    def test_packed_output(self, encoder, features):
        one = encoder.encode_one(features[0], seed=2, packed=True)
        assert is_packed(one)
        assert np.array_equal(one.unpack(), encoder.encode_one(features[0], seed=2))

    def test_bad_shapes_rejected(self, encoder):
        with pytest.raises(InvalidParameterError):
            encoder.encode_one(np.zeros((2, CHANNELS)))
        with pytest.raises(InvalidParameterError):
            encoder.encode_one(np.zeros(CHANNELS + 1))


KERNEL_CHUNK = 5
POLICIES = ("zeros", "ones", "alternate", "random")


@pytest.fixture(scope="module")
def thread_pool():
    with WorkerPool(workers=2) as pool:
        yield pool


def _reference_bits(enc: BatchEncoder, idx: np.ndarray, rng) -> np.ndarray:
    """Byte-count reference: threshold ``chunk_counts`` chunk by chunk."""
    out = np.empty((idx.shape[0], enc.dim), dtype=np.uint8)
    for lo in range(0, idx.shape[0], enc.chunk_size):
        counts = enc.chunk_counts(idx[lo:lo + enc.chunk_size])
        out[lo:lo + enc.chunk_size] = majority_from_counts(
            counts, enc.num_channels, tie_break=enc.tie_break, seed=rng
        )
    return out


class TestPackedKernel:
    """The packed carry-save kernel against the byte-count reference."""

    @pytest.mark.parametrize("k", [1, 2, 3, 17, 18, 33])
    @pytest.mark.parametrize("d", [1, 7, 63, 64, 65, 301])
    def test_masks_match_counts(self, k, d):
        emb = LevelBasis(5, d, seed=k).linear_embedding(0.0, 1.0)
        enc = BatchEncoder(random_hypervectors(k, d, seed=d), emb)
        idx = np.random.default_rng(k * d).integers(0, 5, (2 * enc._block_rows + 3, k))
        counts = enc.chunk_counts(idx).astype(np.int64)
        above, tied = enc._majority_words(idx)
        width = (d + 7) // 8
        assert np.array_equal(
            above.view(np.uint8)[:, :width], np.packbits(2 * counts > k, axis=-1)
        )
        if k % 2:
            assert tied is None
        else:
            assert np.array_equal(
                tied.view(np.uint8)[:, :width], np.packbits(2 * counts == k, axis=-1)
            )
            assert (2 * counts == k).any()
        # Words past the last byte are zero padding.
        assert not above.view(np.uint8)[:, width:].any()

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("k", [1, 2, 3, 17, 18, 33])
    @pytest.mark.parametrize("d", [1, 7, 63, 64, 65, 301])
    def test_encode_matches_references(self, policy, k, d, thread_pool):
        basis = LevelBasis(4, d, seed=k)
        keys = random_hypervectors(k, d, seed=d)
        enc = BatchEncoder(
            keys, basis.linear_embedding(0.0, 1.0), tie_break=policy,
            chunk_size=KERNEL_CHUNK,
        )
        width = (d + 7) // 8
        for n in (0, 1, KERNEL_CHUNK - 1, KERNEL_CHUNK + 1, 3 * KERNEL_CHUNK + 2):
            features = np.random.default_rng(n + 31 * k).random((n, k))
            idx = enc.indices(features)
            ref_rng = np.random.default_rng(11)
            expected = np.packbits(_reference_bits(enc, idx, ref_rng), axis=-1)
            legacy_rng = np.random.default_rng(11)
            legacy = encode_keyvalue_records(
                keys, idx, basis.vectors, tie_break=policy, seed=legacy_rng,
                chunk_size=KERNEL_CHUNK, packed=True,
            )
            assert np.array_equal(legacy.data, expected)
            for pool in (None, thread_pool):
                rng = np.random.default_rng(11)
                packed = enc.encode(features, seed=rng, packed=True, pool=pool)
                assert packed.data.shape == (n, width)
                assert np.array_equal(packed.data, expected), (n, pool)
                # Same number of tie draws as the reference.
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                if d % 8 and n:
                    assert not (packed.data[:, -1] & ((1 << (8 - d % 8)) - 1)).any()
                unpacked = enc.encode(
                    features, seed=np.random.default_rng(11), packed=False, pool=pool
                )
                assert np.array_equal(np.packbits(unpacked, axis=-1), expected)
            if n == 1:
                rng = np.random.default_rng(11)
                one = enc.encode_one(features[0], seed=rng, packed=True)
                assert np.array_equal(one.data, expected)
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_random_ties_draw_only_for_tied_chunks(self):
        # k odd: no ties are possible, so the generator is never touched.
        emb = LevelBasis(4, 64, seed=0).linear_embedding(0.0, 1.0)
        enc = BatchEncoder(random_hypervectors(3, 64, seed=1), emb, tie_break="random")
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        enc.encode(np.random.default_rng(5).random((20, 3)), seed=rng)
        assert rng.bit_generator.state == before

    def test_unknown_tie_policy_rejected_at_encode(self):
        emb = LevelBasis(4, 64, seed=0).linear_embedding(0.0, 1.0)
        enc = BatchEncoder(random_hypervectors(3, 64, seed=1), emb, tie_break="bogus")
        with pytest.raises(InvalidParameterError):
            enc.encode(np.zeros((2, 3)))
