"""Tests for the BSC and MAP vector-space models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidHypervectorError, InvalidParameterError
from repro.hdc import BSCSpace, MAPSpace, binary_to_bipolar, bipolar_to_binary


class TestConversions:
    def test_round_trip(self, rng):
        bits = rng.integers(0, 2, 100, dtype=np.uint8)
        np.testing.assert_array_equal(bipolar_to_binary(binary_to_bipolar(bits)), bits)

    def test_zero_maps_to_plus_one(self):
        np.testing.assert_array_equal(
            binary_to_bipolar(np.array([0, 1], dtype=np.uint8)), [1, -1]
        )

    def test_bipolar_validation(self):
        with pytest.raises(InvalidHypervectorError):
            bipolar_to_binary(np.array([1, 0]))

    @pytest.mark.parametrize(
        "arr",
        [
            np.array([1, -1, 0], dtype=np.int8),
            np.array([1, 2], dtype=np.uint16),
            np.array([-1, -2**40], dtype=np.int64),
            np.array([1.0, 0.5]),
            np.array([[1, 1, 0], [1, 1, 1]], dtype=np.int8)[:, ::2],
        ],
        ids=["int8 0", "uint16 2", "int64 -2**40", "float 0.5", "strided view with a 0"],
    )
    def test_bipolar_edges_rejected(self, arr):
        with pytest.raises(InvalidHypervectorError):
            bipolar_to_binary(arr)
        with pytest.raises(InvalidHypervectorError):
            MAPSpace(dim=arr.shape[-1]).bind(arr, arr)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
    def test_bipolar_of_any_numeric_dtype_accepted(self, dtype):
        arr = np.array([[1, -1], [-1, 1]], dtype=dtype)
        np.testing.assert_array_equal(bipolar_to_binary(arr), [[0, 1], [1, 0]])


class TestBSCSpace:
    def test_random_shape(self):
        space = BSCSpace(dim=128, seed=0)
        assert space.random(4).shape == (4, 128)

    def test_reproducible(self):
        a = BSCSpace(dim=64, seed=9).random(2)
        b = BSCSpace(dim=64, seed=9).random(2)
        np.testing.assert_array_equal(a, b)

    def test_bind_self_inverse(self):
        space = BSCSpace(dim=256, seed=1)
        a, b = space.random(2)
        np.testing.assert_array_equal(space.bind(a, space.bind(a, b)), b)

    def test_bundle_similarity(self):
        space = BSCSpace(dim=20_000, seed=2)
        hvs = space.random(3)
        out = space.bundle(hvs)
        for hv in hvs:
            assert float(space.similarity(out, hv)) > 0.6

    def test_permute_invertible(self):
        space = BSCSpace(dim=64, seed=3)
        hv = space.random(1)[0]
        np.testing.assert_array_equal(space.permute(space.permute(hv, 5), -5), hv)

    def test_distance_range(self):
        space = BSCSpace(dim=1000, seed=4)
        a, b = space.random(2)
        assert 0.0 <= float(space.distance(a, b)) <= 1.0

    def test_invalid_dim(self):
        with pytest.raises(InvalidParameterError):
            BSCSpace(dim=0)

    def test_invalid_tie_break(self):
        with pytest.raises(InvalidParameterError):
            BSCSpace(dim=8, tie_break="bogus")

    def test_negative_count(self):
        with pytest.raises(InvalidParameterError):
            BSCSpace(dim=8, seed=0).random(-1)


class TestMAPSpace:
    def test_random_values(self):
        space = MAPSpace(dim=256, seed=0)
        hvs = space.random(3)
        assert set(np.unique(hvs)) <= {-1, 1}

    def test_bind_self_inverse(self):
        space = MAPSpace(dim=128, seed=1)
        a, b = space.random(2)
        np.testing.assert_array_equal(space.bind(a, space.bind(a, b)), b)

    def test_bind_matches_bsc_under_isomorphism(self):
        """XOR of bits == multiplication of signs."""
        bsc = BSCSpace(dim=512, seed=2)
        a, b = bsc.random(2)
        map_bound = MAPSpace(dim=512).bind(binary_to_bipolar(a), binary_to_bipolar(b))
        np.testing.assert_array_equal(bipolar_to_binary(map_bound), bsc.bind(a, b))

    def test_distance_matches_bsc_under_isomorphism(self):
        bsc = BSCSpace(dim=1024, seed=3)
        a, b = bsc.random(2)
        d_map = MAPSpace(dim=1024).distance(binary_to_bipolar(a), binary_to_bipolar(b))
        assert float(d_map) == pytest.approx(float(bsc.distance(a, b)))

    def test_bundle_sign_of_sum(self):
        space = MAPSpace(dim=4, seed=4)
        stack = np.array([[1, 1, -1, -1], [1, -1, -1, 1], [1, 1, -1, 1]], dtype=np.int8)
        np.testing.assert_array_equal(space.bundle(stack), [1, 1, -1, 1])

    def test_bundle_similarity(self):
        space = MAPSpace(dim=20_000, seed=5)
        hvs = space.random(5)
        out = space.bundle(hvs)
        for hv in hvs:
            assert float(space.similarity(out, hv)) > 0.55

    def test_permute_invertible(self):
        space = MAPSpace(dim=64, seed=6)
        hv = space.random(1)[0]
        np.testing.assert_array_equal(space.permute(space.permute(hv, 3), -3), hv)

    def test_rejects_binary_input(self):
        space = MAPSpace(dim=8, seed=7)
        with pytest.raises(InvalidHypervectorError):
            space.bind(np.zeros(8), np.zeros(8))
