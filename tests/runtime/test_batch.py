"""Tests for the whole-split BatchEncoder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import CircularBasis, LevelBasis
from repro.exceptions import DimensionMismatchError, InvalidParameterError
from repro.hdc.encoders import encode_keyvalue_records
from repro.hdc.hypervector import random_hypervectors
from repro.hdc.ops import resolve_majority
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

    @pytest.mark.parametrize("policy", ["zero", "bogus", "Random"])
    def test_unknown_tie_policy_rejected_at_construction(self, policy):
        """Reproducer: a typo'd policy constructed and failed only at the
        first encode."""
        basis = LevelBasis(LEVELS, DIM, seed=0)
        keys = random_hypervectors(CHANNELS, DIM, seed=1)
        with pytest.raises(InvalidParameterError):
            BatchEncoder(keys, basis.linear_embedding(0.0, 1.0), tie_break=policy)

    @pytest.mark.parametrize("seed", [np.random.default_rng(0), 1.5, "7", True])
    def test_non_integer_tie_key_rejected(self, encoder, seed):
        with pytest.raises(InvalidParameterError):
            encoder.encode(np.zeros((2, CHANNELS)), seed=seed)

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
    def test_matches_per_call_encoder(self, encoder, features):
        basis_vectors = encoder.embedding.basis.vectors
        keys = random_hypervectors(CHANNELS, DIM, seed=1)
        idx = encoder.indices(features)
        reference = encode_keyvalue_records(keys, idx, basis_vectors, seed=42)
        mine = encoder.encode(features, seed=42)
        assert np.array_equal(reference, mine)

    def test_packed_output_same_bits(self, encoder, features):
        unpacked = encoder.encode(features, seed=5)
        packed = encoder.encode(features, seed=5, packed=True)
        assert is_packed(packed)
        assert np.array_equal(unpacked, packed.unpack())

    def test_parallel_bit_identical(self, encoder, features):
        serial = encoder.encode(features, seed=9)
        for workers in (2, 4):
            with WorkerPool(workers=workers) as pool:
                par = encoder.encode(features, seed=9, pool=pool)
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


class TestPositionKeyedTies:
    """A row's bits depend on ``(seed, start + i)`` alone."""

    def test_one_row_equals_its_row_of_the_batch(self, encoder, features):
        whole = encoder.encode(features, seed=21)
        for i in (0, 1, 150, 299):
            one = encoder.encode(features[i:i + 1], seed=21, start=i)
            assert np.array_equal(one[0], whole[i])

    def test_none_key_is_key_zero(self, encoder, features):
        assert np.array_equal(
            encoder.encode(features, seed=None), encoder.encode(features, seed=0)
        )

    def test_keys_and_positions_move_the_coins(self, encoder, features):
        # CHANNELS is even, so "random" ties are frequent.
        base = encoder.encode(features, seed=3)
        assert not np.array_equal(base, encoder.encode(features, seed=4))
        assert not np.array_equal(base, encoder.encode(features, seed=3, start=1))


KERNEL_CHUNK = 5
POLICIES = ("zeros", "ones", "alternate", "random")


@pytest.fixture(scope="module")
def thread_pool():
    with WorkerPool(workers=2) as pool:
        yield pool


def _reference_bits(enc: BatchEncoder, idx: np.ndarray, seed, start: int = 0) -> np.ndarray:
    """Byte-count reference: ``chunk_counts`` + ``resolve_majority``."""
    out = np.empty((idx.shape[0], enc.dim), dtype=np.uint8)
    for lo in range(0, idx.shape[0], KERNEL_CHUNK):
        counts = enc.chunk_counts(idx[lo:lo + KERNEL_CHUNK])
        out[lo:lo + KERNEL_CHUNK] = resolve_majority(
            counts, enc.num_channels, enc.tie_break, seed, start + lo
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
        enc = BatchEncoder(keys, basis.linear_embedding(0.0, 1.0), tie_break=policy)
        width = (d + 7) // 8
        for n in (0, 1, KERNEL_CHUNK - 1, KERNEL_CHUNK + 1, 3 * KERNEL_CHUNK + 2):
            features = np.random.default_rng(n + 31 * k).random((n, k))
            idx = enc.indices(features)
            expected = np.packbits(_reference_bits(enc, idx, 11), axis=-1)
            per_call = encode_keyvalue_records(
                keys, idx, basis.vectors, tie_break=policy, seed=11,
                chunk_size=KERNEL_CHUNK, packed=True,
            )
            assert np.array_equal(per_call.data, expected)
            for pool in (None, thread_pool):
                packed = enc.encode(features, seed=11, packed=True, pool=pool)
                assert packed.data.shape == (n, width)
                assert np.array_equal(packed.data, expected), (n, pool)
                if d % 8 and n:
                    assert not (packed.data[:, -1] & ((1 << (8 - d % 8)) - 1)).any()
                unpacked = enc.encode(features, seed=11, packed=False, pool=pool)
                assert np.array_equal(np.packbits(unpacked, axis=-1), expected)


SPLITS = [(0, 1, 2, 200), (0, 256, 257, 200), (0, 7, 100, 199, 200), (0, 200)]


class TestOneTieRule:
    """``encode(x, seed=s)`` equals every other way of computing it."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("k", [17, 18])
    def test_any_split_pool_and_reference_agree(self, policy, k, thread_pool):
        d = 130
        basis = LevelBasis(6, d, seed=k)
        keys = random_hypervectors(k, d, seed=3)
        enc = BatchEncoder(keys, basis.linear_embedding(0.0, 1.0), tie_break=policy)
        x = np.random.default_rng(k).random((200, k))
        whole = enc.encode(x, seed=77, packed=True)
        idx = enc.indices(x)
        assert np.array_equal(
            whole.data, np.packbits(_reference_bits(enc, idx, 77), axis=-1)
        )
        assert np.array_equal(
            whole.data,
            encode_keyvalue_records(
                keys, idx, basis.vectors, tie_break=policy, seed=77, packed=True
            ).data,
        )
        for cuts in SPLITS:
            for pool in (None, thread_pool):
                parts = [
                    enc.encode(x[a:b], seed=77, start=a, packed=True, pool=pool).data
                    for a, b in zip(cuts, cuts[1:])
                ]
                assert np.array_equal(np.concatenate(parts), whole.data), (cuts, pool)
