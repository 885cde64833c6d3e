"""Basis-hypervector sets — the paper's central subject.

Four stochastic constructions for the atomic layer of HDC encodings:

* :class:`~repro.basis.random_basis.RandomBasis` — uncorrelated symbols
  (Section 3.1),
* :class:`~repro.basis.level_legacy.LegacyLevelBasis` — the pre-existing
  sequential-flip level sets (Section 4 background),
* :class:`~repro.basis.level.LevelBasis` — the paper's interpolation-based
  level sets (Algorithm 1, contribution 1), with the Section 5.2
  ``r``-hyperparameter and optional threshold profiles,
* :class:`~repro.basis.circular.CircularBasis` — circular-hypervectors for
  angular/periodic data (Section 5.1, the main contribution), also with
  ``r``,
* :class:`~repro.basis.scatter.ScatterBasis` — the Section 4.2 random-walk
  scatter codes, built on the Markov absorption solver.

Every set derives from :class:`~repro.basis.base.BasisSet` and can be
coupled with a ξ-grid (:mod:`repro.basis.quantize`) into an
:class:`~repro.basis.base.Embedding` — the encoding function φ of the
paper.
"""

from .base import BasisSet, Embedding
from .circular import CircularBasis
from .level import PROFILES, LevelBasis
from .level_legacy import LegacyLevelBasis
from .quantize import CircularDiscretizer, Discretizer, LinearDiscretizer
from .random_basis import RandomBasis
from .rvalue import (
    chain_flip_probability,
    interpolated_chain,
    transitions_per_subset,
    xor_combine,
)
from .scatter import ScatterBasis

__all__ = [
    "BasisSet",
    "Embedding",
    "RandomBasis",
    "LevelBasis",
    "LegacyLevelBasis",
    "CircularBasis",
    "ScatterBasis",
    "PROFILES",
    "Discretizer",
    "LinearDiscretizer",
    "CircularDiscretizer",
    "chain_flip_probability",
    "interpolated_chain",
    "transitions_per_subset",
    "xor_combine",
]


def make_basis(
    kind: str,
    size: int,
    dim: int,
    r: float = 0.0,
    seed=None,
) -> BasisSet:
    """Factory used by the experiment drivers: build a basis set by name.

    ``kind`` is one of ``"random"``, ``"level"``, ``"level-legacy"``,
    ``"circular"``, ``"scatter"``.  The ``r`` hyperparameter applies to
    ``"level"`` and ``"circular"`` and is ignored (must be 0) elsewhere.
    """
    from ..exceptions import InvalidParameterError

    kind = kind.lower()
    if kind == "random":
        if r != 0.0:
            raise InvalidParameterError("r is not applicable to random bases")
        return RandomBasis(size, dim, seed=seed)
    if kind == "level":
        return LevelBasis(size, dim, r=r, seed=seed)
    if kind in ("level-legacy", "legacy"):
        if r != 0.0:
            raise InvalidParameterError("r is not applicable to legacy level bases")
        return LegacyLevelBasis(size, dim, seed=seed)
    if kind == "circular":
        return CircularBasis(size, dim, r=r, seed=seed)
    if kind == "scatter":
        if r != 0.0:
            raise InvalidParameterError("r is not applicable to scatter bases")
        return ScatterBasis(size, dim, seed=seed)
    raise InvalidParameterError(
        f"unknown basis kind {kind!r}; expected one of "
        "'random', 'level', 'level-legacy', 'circular', 'scatter'"
    )


def _value_embedding(
    kind: str,
    levels: int,
    dim: int,
    seed,
    low: float,
    high: float,
    circular_r: float = 0.0,
) -> Embedding:
    """Embedding of the values in ``[low, high]`` under the basis ``kind``.

    The value embedding of every experiment driver and of streamed
    training.  A circular basis (with ``r = circular_r``) pairs with a
    circular grid that wraps ``[low, high]`` into one period — the
    paper's treatment of a circular quantity; every other kind pairs
    with the linear ξ-grid over the interval (clipped) — the baseline
    treatment the paper compares it against.
    """
    r = circular_r if kind == "circular" else 0.0
    basis = make_basis(kind, levels, dim, r=r, seed=seed)
    if kind == "circular":
        discretizer = CircularDiscretizer(levels, low=low, period=high - low)
    else:
        discretizer = LinearDiscretizer(low, high, levels, clip=True)
    return Embedding(basis, discretizer)


__all__.append("make_basis")
