"""Unit tests for hypervector creation and validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidHypervectorError, InvalidParameterError
from repro.hdc import (
    BIT_DTYPE,
    as_hypervector,
    is_hypervector,
    ones,
    pack_bits,
    random_hypervector,
    random_hypervectors,
    unpack_bits,
    zeros,
)


class TestRandomHypervectors:
    def test_shape_and_dtype(self):
        hvs = random_hypervectors(5, 128, seed=0)
        assert hvs.shape == (5, 128)
        assert hvs.dtype == BIT_DTYPE

    def test_single_shape(self):
        hv = random_hypervector(64, seed=0)
        assert hv.shape == (64,)

    def test_values_are_bits(self):
        hvs = random_hypervectors(10, 256, seed=1)
        assert set(np.unique(hvs)) <= {0, 1}

    def test_reproducible_with_seed(self):
        a = random_hypervectors(3, 100, seed=42)
        b = random_hypervectors(3, 100, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = random_hypervectors(1, 1000, seed=1)
        b = random_hypervectors(1, 1000, seed=2)
        assert np.any(a != b)

    def test_generator_stream_advances(self, rng):
        a = random_hypervectors(1, 1000, seed=rng)
        b = random_hypervectors(1, 1000, seed=rng)
        assert np.any(a != b)

    def test_approximately_balanced(self):
        hv = random_hypervector(100_000, seed=3)
        assert abs(hv.mean() - 0.5) < 0.01

    def test_pairs_quasi_orthogonal(self):
        hvs = random_hypervectors(4, 50_000, seed=4)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.mean(hvs[i] != hvs[j]) - 0.5) < 0.02

    def test_zero_count_allowed(self):
        assert random_hypervectors(0, 16).shape == (0, 16)

    @pytest.mark.parametrize("bad_dim", [0, -1, 1.5, "x", True])
    def test_invalid_dim_rejected(self, bad_dim):
        with pytest.raises(InvalidParameterError):
            random_hypervectors(1, bad_dim)

    @pytest.mark.parametrize("bad_count", [-1, 2.5, None])
    def test_invalid_count_rejected(self, bad_count):
        with pytest.raises(InvalidParameterError):
            random_hypervectors(bad_count, 16)


class TestConstants:
    def test_zeros(self):
        z = zeros(32)
        assert z.shape == (32,) and not z.any()

    def test_ones(self):
        o = ones(32)
        assert o.shape == (32,) and o.all()


class TestValidation:
    def test_is_hypervector_accepts_bits(self):
        assert is_hypervector(np.array([0, 1, 1, 0], dtype=np.uint8))

    def test_is_hypervector_accepts_bool(self):
        assert is_hypervector(np.array([True, False]))

    def test_is_hypervector_rejects_floats(self):
        assert not is_hypervector(np.array([0.0, 1.0]))

    def test_is_hypervector_rejects_out_of_range(self):
        assert not is_hypervector(np.array([0, 2]))

    def test_is_hypervector_rejects_scalar(self):
        assert not is_hypervector(np.array(1))

    def test_is_hypervector_rejects_non_array(self):
        assert not is_hypervector([0, 1])

    def test_as_hypervector_converts_lists(self):
        hv = as_hypervector([0, 1, 1])
        assert hv.dtype == BIT_DTYPE
        np.testing.assert_array_equal(hv, [0, 1, 1])

    def test_as_hypervector_converts_bool(self):
        hv = as_hypervector(np.array([True, False]))
        np.testing.assert_array_equal(hv, [1, 0])

    def test_as_hypervector_preserves_uint8_without_copy(self):
        src = np.array([0, 1], dtype=np.uint8)
        assert as_hypervector(src) is src

    def test_as_hypervector_rejects_floats(self):
        with pytest.raises(InvalidHypervectorError):
            as_hypervector(np.array([0.5, 1.0]))

    def test_as_hypervector_rejects_values(self):
        with pytest.raises(InvalidHypervectorError):
            as_hypervector(np.array([0, 1, 3]))

    def test_as_hypervector_rejects_empty(self):
        with pytest.raises(InvalidHypervectorError):
            as_hypervector(np.array([], dtype=np.uint8))


def _strided_with_a_two() -> np.ndarray:
    base = np.zeros((4, 16), dtype=np.int16)
    base[2, 6] = 2
    view = base[::2, ::3]
    assert not view.flags.contiguous and 2 in view
    return view


#: Out-of-range inputs at the edges the min/max bit check must catch.
INVALID_BITS = {
    "int8 -1": np.array([0, 1, -1], dtype=np.int8),
    "uint16 2": np.array([1, 2, 0], dtype=np.uint16),
    "int64 2**40": np.array([0, 2**40], dtype=np.int64),
    "strided view with a 2": _strided_with_a_two(),
}


class TestBitCheckEdges:
    @pytest.mark.parametrize("arr", INVALID_BITS.values(), ids=INVALID_BITS.keys())
    def test_rejected_by_is_hypervector(self, arr):
        assert not is_hypervector(arr)

    @pytest.mark.parametrize("arr", INVALID_BITS.values(), ids=INVALID_BITS.keys())
    def test_rejected_by_as_hypervector(self, arr):
        with pytest.raises(InvalidHypervectorError):
            as_hypervector(arr)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64])
    def test_valid_bits_of_any_integer_dtype_accepted(self, dtype):
        arr = np.array([[0, 1], [1, 0]], dtype=dtype)
        assert is_hypervector(arr)
        out = as_hypervector(arr)
        assert out.dtype == BIT_DTYPE
        np.testing.assert_array_equal(out, arr)

    def test_valid_uint8_batch_returned_without_copy(self):
        arr = random_hypervectors(8, 64, seed=3)
        assert as_hypervector(arr) is arr
        view = arr[::2, ::3]
        assert as_hypervector(view) is view


class TestBitPacking:
    @pytest.mark.parametrize("dim", [8, 16, 100, 1001])
    def test_round_trip(self, dim):
        hv = random_hypervector(dim, seed=5)
        np.testing.assert_array_equal(unpack_bits(pack_bits(hv), dim), hv)

    def test_round_trip_batch(self):
        hvs = random_hypervectors(7, 130, seed=6)
        np.testing.assert_array_equal(unpack_bits(pack_bits(hvs), 130), hvs)

    def test_packed_size(self):
        hv = random_hypervector(100, seed=7)
        assert pack_bits(hv).shape == (13,)  # ceil(100 / 8)

    def test_unpack_dimension_too_large(self):
        packed = pack_bits(random_hypervector(16, seed=8))
        with pytest.raises(InvalidParameterError):
            unpack_bits(packed, 64)
