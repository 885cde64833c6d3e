"""Similarity-structure analysis of basis sets (Figures 3 and 6 data).

Figure 3 of the paper visualises the pairwise similarity ``1 − δ`` within
random, level and circular basis sets; Figure 6 shows, for a circular set,
the similarity of every member to a fixed reference member as the
``r``-hyperparameter varies.  These functions compute exactly those data
series; the benchmark harness prints them and the examples render them as
ASCII heatmaps.

All distances route through the shared similarity-kernel subsystem
(:mod:`repro.hdc.kernels`) on each basis set's cached packed table —
this module derives no distance arithmetic of its own, and the kernel
picks its own exact backend for each matrix.
"""

from __future__ import annotations

import numpy as np

from .._rng import SeedLike, ensure_rng
from ..basis import make_basis
from ..exceptions import InvalidParameterError

__all__ = [
    "basis_similarity_matrix",
    "figure3_data",
    "reference_similarity_profile",
    "figure6_data",
]

#: Basis kinds compared in Figure 3, in the paper's column order.
FIGURE3_KINDS = ("random", "level", "circular")


def basis_similarity_matrix(
    kind: str,
    size: int,
    dim: int,
    r: float = 0.0,
    seed: SeedLike = None,
) -> np.ndarray:
    """Pairwise similarity matrix ``1 − δ`` of a freshly generated basis.

    Computed by the basis set itself over its cached packed table
    (:mod:`repro.hdc.kernels`).
    """
    basis = make_basis(kind, size, dim, r=r, seed=seed)
    return basis.similarity_matrix()


def figure3_data(
    size: int = 10,
    dim: int = 10_000,
    seed: SeedLike = None,
) -> dict[str, np.ndarray]:
    """Similarity matrices for the three basis kinds of Figure 3.

    The paper's caption says "size 12" while its axes run 0–9; we default
    to 10 members (matching the axes) and let callers pick either.
    """
    rng = ensure_rng(seed)
    return {
        kind: basis_similarity_matrix(kind, size, dim, seed=rng)
        for kind in FIGURE3_KINDS
    }


def reference_similarity_profile(
    size: int,
    dim: int,
    r: float,
    reference: int = 0,
    seed: SeedLike = None,
) -> np.ndarray:
    """Similarity of every circular-set member to a reference member.

    This is one polar trace of Figure 6: generate a circular set with the
    given ``r`` and return ``1 − δ(C_ref, C_i)`` for all ``i``.
    """
    if not 0 <= reference < size:
        raise InvalidParameterError(
            f"reference must index into the set of size {size}, got {reference}"
        )
    basis = make_basis("circular", size, dim, r=r, seed=seed)
    return basis.similarity_matrix()[reference]


def figure6_data(
    r_values: tuple[float, ...] = (0.0, 0.5, 1.0),
    size: int = 10,
    dim: int = 10_000,
    seed: SeedLike = None,
) -> dict[float, np.ndarray]:
    """Reference-similarity profiles for each ``r`` of Figure 6."""
    rng = ensure_rng(seed)
    return {
        float(r): reference_similarity_profile(size, dim, r, seed=rng)
        for r in r_values
    }
