"""Tests for circular-hypervectors — the paper's main contribution.

Verified properties (Section 5.1):

* phase 1 equals a level chain; phase 2 re-applies its transitions;
* expected pairwise distance follows the circular walk law
  ``steps(i, j) / m`` at ``r = 0`` (exact band-model prediction for
  ``r > 0``);
* the point opposite any member is quasi-orthogonal to it;
* there is no endpoint tear: neighbours across index 0 are as similar as
  any other neighbours;
* odd sizes follow the paper's footnote (subsampling a double-size set).
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basis import CircularBasis, CircularDiscretizer, LevelBasis
from repro.exceptions import InvalidParameterError
from repro.stats import circular_distance
from tests.conftest import binomial_tolerance

DIM = 30_000


class TestWalkLaw:
    @pytest.mark.parametrize("size", [2, 4, 10, 16])
    def test_expected_distance_matches_empirical(self, size):
        basis = CircularBasis(size, DIM, seed=size)
        tol = binomial_tolerance(DIM)
        emp = basis.distance_matrix()
        exp = basis.expected_distance_matrix()
        assert np.abs(emp - exp).max() < tol

    def test_walk_law_formula(self):
        basis = CircularBasis(12, 64, seed=0)
        for i in range(12):
            for j in range(12):
                steps = min(abs(i - j), 12 - abs(i - j))
                assert basis.expected_distance(i, j) == pytest.approx(steps / 12)

    def test_opposite_points_quasi_orthogonal(self):
        basis = CircularBasis(10, DIM, seed=1)
        tol = binomial_tolerance(DIM)
        for i in range(10):
            assert abs(basis.distance(i, (i + 5) % 10) - 0.5) < tol

    def test_no_endpoint_tear(self):
        """The neighbour of C_m is C_1 — distances wrap seamlessly."""
        basis = CircularBasis(16, DIM, seed=2)
        tol = binomial_tolerance(DIM)
        wrap_pair = basis.distance(15, 0)
        inner_pair = basis.distance(7, 8)
        assert abs(wrap_pair - inner_pair) < 2 * tol
        assert wrap_pair < 0.1  # genuinely close

    def test_rotational_symmetry_of_expectation(self):
        basis = CircularBasis(8, 64, seed=3)
        for k in range(8):
            assert basis.expected_distance(0, 3) == pytest.approx(
                basis.expected_distance(k, (k + 3) % 8)
            )

    def test_agreement_with_lund_distance_at_key_angles(self):
        """The walk law agrees with ρ/2 at Δθ ∈ {0, π/2, π} (class docs)."""
        basis = CircularBasis(8, 64, seed=4)
        angles = basis.angles
        for j, target in ((0, 0.0), (2, math.pi / 2), (4, math.pi)):
            rho_half = float(circular_distance(angles[0], angles[j])) / 2
            assert basis.expected_distance(0, j) == pytest.approx(rho_half)


class TestConstruction:
    def test_phase1_is_level_chain(self):
        """C_i = L_i for the first half (Figure 5, phase 1)."""
        basis = CircularBasis(12, 2048, seed=5)
        level = LevelBasis(7, 2048, seed=5)  # m/2 + 1 members, same stream
        np.testing.assert_array_equal(basis.vectors[:7], level.vectors)

    def test_phase2_applies_transitions(self):
        """C_i = C_{i−1} ⊗ T_{i−m/2−1} (Equation 3)."""
        basis = CircularBasis(10, 1024, seed=6)
        half = 5
        transitions = [
            np.bitwise_xor(basis[k], basis[k + 1]) for k in range(half)
        ]
        for k in range(1, half):
            expected = np.bitwise_xor(basis[half + k - 1], transitions[k - 1])
            np.testing.assert_array_equal(basis[half + k], expected)

    def test_transition_composition_closes_circle(self):
        """⊗ of all phase-1 transitions equals C_1 ⊗ C_{m/2+1}."""
        basis = CircularBasis(12, 1024, seed=7)
        half = 6
        combined = np.zeros(1024, dtype=np.uint8)
        for k in range(half):
            combined ^= np.bitwise_xor(basis[k], basis[k + 1])
        np.testing.assert_array_equal(combined, basis[0] ^ basis[half])

    def test_angles_property(self):
        basis = CircularBasis(8, 64, seed=8)
        np.testing.assert_allclose(basis.angles, np.arange(8) * math.pi / 4)

    def test_reproducible(self):
        a = CircularBasis(10, 256, seed=9)
        b = CircularBasis(10, 256, seed=9)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_minimum_size(self):
        with pytest.raises(InvalidParameterError):
            CircularBasis(1, 64)

    def test_size_two(self):
        basis = CircularBasis(2, DIM, seed=10)
        assert basis.expected_distance(0, 1) == pytest.approx(0.5)
        assert abs(basis.distance(0, 1) - 0.5) < binomial_tolerance(DIM)

    @pytest.mark.parametrize("r", [-0.5, 1.5])
    def test_invalid_r(self, r):
        with pytest.raises(InvalidParameterError):
            CircularBasis(8, 64, r=r)


class TestOddSizes:
    """Paper footnote: odd sets are every-other member of a 2m set."""

    @pytest.mark.parametrize("size", [3, 5, 9])
    def test_odd_size_distances(self, size):
        basis = CircularBasis(size, DIM, seed=size)
        tol = binomial_tolerance(DIM)
        emp = basis.distance_matrix()
        exp = basis.expected_distance_matrix()
        assert np.abs(emp - exp).max() < tol

    def test_odd_walk_law(self):
        basis = CircularBasis(5, 64, seed=11)
        # Positions 0, 2, 4, 6, 8 on a 10-circle.
        assert basis.expected_distance(0, 1) == pytest.approx(2 / 10)
        assert basis.expected_distance(0, 2) == pytest.approx(4 / 10)
        assert basis.expected_distance(1, 4) == pytest.approx(4 / 10)

    def test_odd_size_count(self):
        assert len(CircularBasis(7, 64, seed=12)) == 7


class TestRValue:
    """r applies to phase 1 only, per Section 5.2."""

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_expected_matches_empirical(self, r):
        basis = CircularBasis(10, DIM, r=r, seed=13)
        tol = binomial_tolerance(DIM)
        emp = basis.distance_matrix()
        exp = basis.expected_distance_matrix()
        assert np.abs(emp - exp).max() < tol

    def test_r_one_is_random_like(self):
        basis = CircularBasis(10, DIM, r=1.0, seed=14)
        tol = binomial_tolerance(DIM)
        off = ~np.eye(10, dtype=bool)
        assert np.abs(basis.distance_matrix()[off] - 0.5).max() < tol

    def test_neighbour_similarity_decreases_with_r(self):
        """Figure 6: the local correlation shrinks as r grows."""
        sims = []
        for r in (0.0, 0.3, 0.7, 1.0):
            basis = CircularBasis(10, 64, r=r, seed=15)
            sims.append(1.0 - basis.expected_distance(0, 1))
        assert all(b < a + 1e-12 for a, b in zip(sims, sims[1:]))
        assert sims[-1] == pytest.approx(0.5)

    def test_transitions_per_subset(self):
        basis = CircularBasis(12, 64, r=0.0, seed=16)
        assert basis.transitions_per_subset == 6.0
        basis = CircularBasis(12, 64, r=1.0, seed=16)
        assert basis.transitions_per_subset == 1.0


class TestLargeInputs:
    """Any finite value wraps into the period, however large.

    Floats this large are integers, so exact integer arithmetic gives the
    reference level: with ``period = m`` (step 1) value ``x`` sits on
    level ``int(x) % m``; with ``period = m / 32`` (step 2**-5) the phase
    ``32·x`` overflows to infinity near 1.7e308 and the level is
    ``(32·int(x)) % m``.
    """

    VALUES = [-1e20, 1e20, 2.0**63, -(2.0**63), 2.0**64 + 2.0**12, 3.3e25, -7.1e200,
              1.7e308, -1.7e308, np.finfo(np.float64).max]

    def test_step_one_matches_integer_arithmetic(self):
        disc = CircularDiscretizer(24, period=24.0)
        expected = [int(x) % 24 for x in self.VALUES]
        assert disc.index(np.array(self.VALUES)).tolist() == expected
        assert int(disc.index(-1e20)) == 8

    def test_overflowing_phase_wraps_by_period(self):
        disc = CircularDiscretizer(24, period=24 / 32)
        expected = [(32 * int(x)) % 24 for x in self.VALUES]
        assert disc.index(np.array(self.VALUES)).tolist() == expected

    @pytest.mark.parametrize("m", [5, 24, 360])
    def test_ordinary_values_keep_their_levels(self, m):
        """Below 2**63 the reduction changes nothing: every grid point,
        half-step boundary and in-between value lands where plain
        rounding puts it."""
        disc = CircularDiscretizer(m, low=-1.5, period=float(m))
        steps = np.arange(-4 * m, 4 * m, 0.25)
        values = np.concatenate([steps - 1.5, [1e6 + 0.5, -1e6 - 0.5, 2.0**52 + 1]])
        expected = np.rint(values + 1.5).astype(np.int64) % m
        assert np.array_equal(disc.index(values), expected)

    def test_huge_values_raise_no_warning(self):
        disc = CircularDiscretizer(24, period=24 / 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            disc.index(np.array(self.VALUES))

    def test_offset_overflow_wraps_by_period(self):
        disc = CircularDiscretizer(24, low=-1.7e308, period=24.0)
        for x in (1.7e308, 1.6e308, 1.5e308):  # x - low overflows to inf
            assert int(disc.index(x)) == (int(x) - int(-1.7e308)) % 24


@settings(max_examples=10, deadline=None)
@given(
    size=st.integers(min_value=2, max_value=14),
    r=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_expected_distance_valid_metric_bounds(size, r, seed):
    basis = CircularBasis(size, 64, r=r, seed=seed)
    matrix = basis.expected_distance_matrix()
    assert (matrix >= -1e-12).all() and (matrix <= 0.5 + 1e-9).all()
    np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)
    assert np.abs(np.diagonal(matrix)).max() < 1e-12
