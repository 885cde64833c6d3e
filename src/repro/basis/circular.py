"""Circular-hypervectors — the paper's main contribution (Section 5.1).

A circular basis set ``C = {C_1, …, C_m}`` embeds ``m`` equidistant points
of a circle into Hamming space so that hypervector distance tracks angular
distance and, crucially, the set has no endpoints: the neighbour of
``C_m`` is ``C_1``, and the point opposite any member is quasi-orthogonal
to it.

Construction (Figure 5), two phases:

1. **Phase 1** — the first half of the circle is an interpolation level
   set (Algorithm 1, optionally r-generalised per Section 5.2):
   ``C_i = L_i`` for ``i ∈ {1, …, m/2 + 1}``, making ``C_1`` and
   ``C_{m/2+1}`` quasi-orthogonal.
2. **Phase 2** — the second half re-applies the phase-1 *transitions*
   ``T_i = C_i ⊗ C_{i+1}`` in order:
   ``C_i = C_{i−1} ⊗ T_{i−m/2−1}`` for ``i ∈ {m/2+2, …, m}``.
   Because binding is self-inverse, each re-applied transition walks the
   vector back toward ``C_1``, closing the circle.

Realized geometry.  With Algorithm-1 levels the transitions have disjoint
per-bit supports (each bit's filter value ``Φ(∂)`` falls in exactly one
threshold band), so the expected pairwise distance equals the shortest
walk around the circle:

``E[δ(C_i, C_j)] = steps(i, j) / m``  where ``steps`` is the circular
index distance (``r = 0``).

The paper states the goal as ``E[δ] = ρ/2 = (1 − cos Δθ)/4``; the walk law
realized by the construction agrees with it exactly at ``Δθ ∈ {0, π/2, π}``
(in particular opposite points are quasi-orthogonal) and differs by at
most ≈ 0.11 in between — no XOR-chain construction can realise the cosine
law for all pairs, because XOR chains produce path metrics.  The tests
verify the walk law.

Odd sizes follow the paper's footnote: a set of odd cardinality ``m`` is
the subset ``{C_1, C_3, …, C_{2m−1}}`` of a generated set of size ``2m``.
"""

from __future__ import annotations

import math

import numpy as np

from .._rng import SeedLike, ensure_rng
from ..exceptions import InvalidParameterError
from .base import BasisSet
from .rvalue import segment_interval, transitions_per_subset, xor_combine, interpolated_chain

__all__ = ["CircularBasis"]


def _interval_symdiff(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Measure of the symmetric difference of two (possibly empty) intervals."""
    a_lo, a_hi = a
    b_lo, b_hi = b
    len_a = max(0.0, a_hi - a_lo)
    len_b = max(0.0, b_hi - b_lo)
    overlap = max(0.0, min(a_hi, b_hi) - max(a_lo, b_lo)) if len_a and len_b else 0.0
    return len_a + len_b - 2.0 * overlap


class CircularBasis(BasisSet):
    """Basis-hypervectors for circular data.

    Parameters
    ----------
    size:
        Number of members ``m ≥ 2`` (odd sizes are generated via the
        even-set subsampling rule of the paper's footnote).
    dim:
        Hyperspace dimensionality ``d``.
    r:
        Section 5.2 hyperparameter in ``[0, 1]``; applies to phase 1 only,
        exactly as the paper specifies.  ``r = 0`` is the pure circular
        set; ``r = 1`` makes phase 1 (and hence the whole set)
        random-like.
    seed:
        Randomness source.

    Example
    -------
    >>> basis = CircularBasis(size=24, dim=10_000, seed=11)   # hours of a day
    >>> emb = basis.circular_embedding(period=24.0)
    >>> hv_23, hv_0 = emb.encode(23.0), emb.encode(0.0)
    >>> # adjacent hours stay similar even across midnight:
    >>> float((hv_23 != hv_0).mean()) < 0.1
    True
    """

    def __init__(self, size: int, dim: int, r: float = 0.0, seed: SeedLike = None) -> None:
        if size < 2:
            raise InvalidParameterError(
                f"a circular set needs at least 2 members, got {size}"
            )
        if dim < 1:
            raise InvalidParameterError(f"dimension must be positive, got {dim}")
        self.r = float(r)
        if not (0.0 <= self.r <= 1.0) or not math.isfinite(self.r):
            raise InvalidParameterError(f"r must lie in [0, 1], got {r}")
        rng = ensure_rng(seed)

        if size % 2 == 0:
            full = self._generate_even(size, dim, self.r, rng)
            vectors = full
            self._step = 1
            self._half = size // 2
        else:
            # Paper footnote: odd sets are every-other member of a 2m set.
            full = self._generate_even(2 * size, dim, self.r, rng)
            vectors = full[::2]
            self._step = 2
            self._half = size
        super().__init__(vectors)

    @staticmethod
    def _generate_even(
        size: int, dim: int, r: float, rng: np.random.Generator
    ) -> np.ndarray:
        half = size // 2
        phase1 = interpolated_chain(half + 1, dim, r=r, seed=rng)
        transitions = np.bitwise_xor(phase1[:-1], phase1[1:])  # T_1 … T_half

        vectors = np.empty((size, dim), dtype=phase1.dtype)
        vectors[: half + 1] = phase1
        for k in range(1, half):
            vectors[half + k] = np.bitwise_xor(vectors[half + k - 1], transitions[k - 1])
        return vectors

    # -- geometry helpers ---------------------------------------------------------
    @property
    def angles(self) -> np.ndarray:
        """Angle represented by each member: ``θ_i = 2π (i − 1) / m``."""
        m = len(self)
        return 2.0 * math.pi * np.arange(m) / m

    @property
    def transitions_per_subset(self) -> float:
        """Phase-1 sub-set width ``n = r + (1 − r) · (m/2)`` (Section 5.2)."""
        return transitions_per_subset(self._half + 1, self.r)

    def circular_steps(self, i: int, j: int) -> int:
        """Shortest index walk between members ``i`` and ``j`` on the circle."""
        m = len(self)
        diff = abs(i % m - j % m)
        return min(diff, m - diff)

    def _band_interval(
        self, position: int, segment: int, n: float
    ) -> tuple[float, float]:
        """Flip band (relative to ``C_1``) of a member within one sub-set.

        ``position`` is the member's 0-based location on the *full* even
        circle.  Up-walk members (``p ≤ H``) have flipped the lower part
        ``[seg_lo, min(p, seg_hi)]`` of the walk coordinate; down-walk
        members (``p > H``, retrace coordinate ``c = p − H``) have the
        upper part ``[max(c, seg_lo), seg_hi]`` still flipped.
        """
        total = float(self._half)
        seg_lo, seg_hi = segment_interval(segment, n, total)
        if position <= self._half:
            return seg_lo, min(float(position), seg_hi)
        retrace = float(position - self._half)
        return max(retrace, seg_lo), seg_hi

    def expected_distance(self, i: int, j: int) -> float:
        """Theoretical ``E[δ(C_i, C_j)]`` under the two-phase construction.

        For ``r = 0`` this reduces to the walk law ``steps(i, j) / (2H)``
        (``H = m/2`` transitions per half); for ``r > 0`` it accounts for
        the segmented phase 1 exactly, combining per-sub-set flip
        probabilities with the independence rule ``p ⊕ q = p + q − 2pq``.
        """
        m = len(self)
        if not (-m <= i < m and -m <= j < m):
            raise IndexError(f"index out of range for a basis of size {m}")
        pos_i = (i % m) * self._step
        pos_j = (j % m) * self._step
        if pos_i == pos_j:
            return 0.0
        n = self.transitions_per_subset
        total = float(self._half)
        prob = 0.0
        segment = 0
        while True:
            seg_lo, seg_hi = segment_interval(segment, n, total)
            if seg_hi <= seg_lo + 1e-12:
                break
            band_i = self._band_interval(pos_i, segment, n)
            band_j = self._band_interval(pos_j, segment, n)
            q = _interval_symdiff(band_i, band_j) / (2.0 * n)
            prob = xor_combine(prob, q)
            if seg_hi >= total - 1e-12:
                break
            segment += 1
        return prob
