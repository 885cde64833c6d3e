"""Vector-space models for HDC.

The paper works exclusively in the **binary spatter code** (BSC) space
``{0, 1}^d`` with XOR/majority/cyclic-shift arithmetic; :class:`BSCSpace`
implements it and is the space used by every experiment in this
reproduction.  :class:`PackedBSCSpace` is the same space on the
bit-packed backend of :mod:`repro.hdc.packed` — identical semantics at
one eighth the memory, with distances on hardware popcount.

:class:`MAPSpace` (multiply–add–permute over bipolar vectors ``{−1, +1}^d``)
is provided as an extension: it is the other widely deployed discrete VSA
model, and having both behind one interface demonstrates that the paper's
basis-set constructions are model-agnostic (a bipolar vector is the
``1 − 2·b`` image of a binary one, and all expected-distance propositions
carry over under that isomorphism).

A *space* object owns the dimensionality and a random stream, so user code
can say ``space.random(5)`` / ``space.bundle(...)`` without threading
``dim`` and ``rng`` everywhere.
"""

from __future__ import annotations

import abc
from typing import Sequence, Union

import numpy as np

from .._rng import SeedLike, ensure_rng
from ..exceptions import InvalidHypervectorError, InvalidParameterError
from . import ops
from .hypervector import BIT_DTYPE, DEFAULT_DIMENSION, as_hypervector
from .packed import PackedHV, coerce_packed, packed_width

__all__ = [
    "VectorSpace",
    "BSCSpace",
    "PackedBSCSpace",
    "MAPSpace",
    "binary_to_bipolar",
    "bipolar_to_binary",
]


def _holds_bipolar(arr: np.ndarray) -> bool:
    """True if every entry of ``arr`` is ``−1`` or ``+1``.

    Integer arrays take two reductions and a non-zero count, with no
    temporaries; any other dtype keeps the exact membership test.
    """
    if arr.dtype.kind not in "iu":
        return bool(np.isin(arr, (-1, 1)).all())
    if arr.size == 0:
        return True
    return (
        int(arr.min()) >= -1
        and int(arr.max()) <= 1
        and np.count_nonzero(arr) == arr.size
    )


def binary_to_bipolar(hv: np.ndarray) -> np.ndarray:
    """Map binary bits ``{0, 1}`` to bipolar entries ``{+1, −1}``.

    The convention follows the XOR/multiplication isomorphism: bit ``0``
    maps to ``+1`` and bit ``1`` maps to ``−1`` so that XOR of bits becomes
    multiplication of signs.
    """
    arr = as_hypervector(hv)
    return (1 - 2 * arr.astype(np.int8)).astype(np.int8)


def bipolar_to_binary(hv: np.ndarray) -> np.ndarray:
    """Inverse of :func:`binary_to_bipolar` (``+1 → 0``, ``−1 → 1``)."""
    arr = np.asarray(hv)
    if not _holds_bipolar(arr):
        raise InvalidHypervectorError("bipolar hypervector entries must be -1 or +1")
    return ((1 - arr.astype(np.int8)) // 2).astype(BIT_DTYPE)


class VectorSpace(abc.ABC):
    """Abstract interface shared by all VSA models in this library."""

    def __init__(self, dim: int = DEFAULT_DIMENSION, seed: SeedLike = None) -> None:
        if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 1:
            raise InvalidParameterError(f"dimension must be a positive integer, got {dim!r}")
        self._dim = int(dim)
        self._rng = ensure_rng(seed)

    @property
    def dim(self) -> int:
        """Hyperspace dimensionality ``d``."""
        return self._dim

    @property
    def rng(self) -> np.random.Generator:
        """The space's random stream (shared by all sampling methods)."""
        return self._rng

    # -- sampling -----------------------------------------------------------
    @abc.abstractmethod
    def random(self, count: int = 1) -> np.ndarray:
        """Sample ``count`` hypervectors uniformly from the space."""

    # -- arithmetic ----------------------------------------------------------
    @abc.abstractmethod
    def bind(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Associate two hypervectors (dissimilar-to-operands product)."""

    @abc.abstractmethod
    def bundle(self, hvs: Union[np.ndarray, Sequence[np.ndarray]]) -> np.ndarray:
        """Superpose hypervectors (similar-to-operands mean vector)."""

    @abc.abstractmethod
    def permute(self, hv: np.ndarray, shifts: int = 1) -> np.ndarray:
        """Apply the order-encoding permutation ``Π^shifts``."""

    # -- geometry -------------------------------------------------------------
    @abc.abstractmethod
    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Normalized distance in ``[0, 1]`` (0 = identical, ~0.5 = random)."""

    def similarity(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``1 − distance`` — the similarity measure used by the paper."""
        return 1.0 - self.distance(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(dim={self._dim})"


class BSCSpace(VectorSpace):
    """Binary spatter codes: the ``H = {0, 1}^d`` space of the paper.

    * bind: element-wise XOR (self-inverse),
    * bundle: element-wise majority with configurable tie-breaking,
    * permute: cyclic shift,
    * distance: normalized Hamming distance.

    Example
    -------
    >>> space = BSCSpace(dim=1000, seed=0)
    >>> a, b = space.random(2)
    >>> float(space.distance(a, space.bind(a, b)))  # doctest: +SKIP
    0.5  # approximately: binding decorrelates
    """

    def __init__(
        self,
        dim: int = DEFAULT_DIMENSION,
        seed: SeedLike = None,
        tie_break: ops.TieBreak = "random",
    ) -> None:
        super().__init__(dim, seed)
        if tie_break not in ("random", "zeros", "ones", "alternate"):
            raise InvalidParameterError(f"unknown tie_break policy {tie_break!r}")
        self.tie_break = tie_break

    def random(self, count: int = 1) -> np.ndarray:
        if count < 0:
            raise InvalidParameterError(f"count must be non-negative, got {count}")
        return self._rng.integers(0, 2, size=(int(count), self._dim), dtype=BIT_DTYPE)

    def bind(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return ops.bind(a, b)

    def bundle(self, hvs: Union[np.ndarray, Sequence[np.ndarray]]) -> np.ndarray:
        return ops.bundle(hvs, tie_break=self.tie_break, seed=self._rng)

    def permute(self, hv: np.ndarray, shifts: int = 1) -> np.ndarray:
        return ops.permute(hv, shifts)

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return ops.hamming_distance(a, b)


class PackedBSCSpace(VectorSpace):
    """Binary spatter codes on the bit-packed backend (8 bits per byte).

    Same semantics as :class:`BSCSpace` — the packed kernels are
    bit-for-bit equivalent to the unpacked operations — but hypervectors
    are :class:`~repro.hdc.packed.PackedHV` values occupying
    ``ceil(d / 8)`` bytes each, and bind/permute/distance never unpack.
    This is the space to use at production scale: an item memory of one
    million ``d = 10,000`` vectors drops from ~10 GB to ~1.25 GB, and
    distances run on hardware popcount.

    ``random`` draws packed bytes directly (8 bits per RNG byte), so the
    sampled *distribution* matches :class:`BSCSpace` but the stream of a
    shared seed does not; use :meth:`pack` to bring vectors sampled
    elsewhere into the packed representation.
    """

    def __init__(
        self,
        dim: int = DEFAULT_DIMENSION,
        seed: SeedLike = None,
        tie_break: ops.TieBreak = "random",
    ) -> None:
        super().__init__(dim, seed)
        if tie_break not in ("random", "zeros", "ones", "alternate"):
            raise InvalidParameterError(f"unknown tie_break policy {tie_break!r}")
        self.tie_break = tie_break
        self._width = packed_width(self._dim)

    @property
    def width(self) -> int:
        """Packed bytes per hypervector: ``ceil(dim / 8)``."""
        return self._width

    def random(self, count: int = 1) -> PackedHV:
        if count < 0:
            raise InvalidParameterError(f"count must be non-negative, got {count}")
        raw = self._rng.integers(0, 256, size=(int(count), self._width), dtype=np.uint8)
        return PackedHV.from_bytes(raw, self._dim)

    def pack(self, hv: np.ndarray) -> PackedHV:
        """Coerce an unpacked (or packed) hypervector into this space."""
        return coerce_packed(hv, self._dim)

    def unpack(self, hv: PackedHV) -> np.ndarray:
        """Return the unpacked ``uint8`` bit array of ``hv``."""
        return self.pack(hv).unpack()

    def bind(self, a, b) -> PackedHV:
        return ops.bind(self.pack(a), self.pack(b))

    def bundle(self, hvs) -> PackedHV:
        if isinstance(hvs, (PackedHV, np.ndarray)):
            hvs = self.pack(hvs)
        else:
            hvs = [self.pack(h) for h in hvs]
        return ops.bundle(hvs, tie_break=self.tie_break, seed=self._rng)

    def permute(self, hv, shifts: int = 1) -> PackedHV:
        return ops.permute(self.pack(hv), shifts)

    def distance(self, a, b) -> np.ndarray:
        return ops.hamming_distance(self.pack(a), self.pack(b))


class MAPSpace(VectorSpace):
    """Multiply–Add–Permute model over bipolar vectors ``{−1, +1}^d``.

    Extension beyond the paper: included to show the basis constructions
    are VSA-model agnostic.  ``distance`` is the rescaled cosine distance
    ``(1 − cos(a, b)) / 2`` which coincides with the normalized Hamming
    distance under the binary/bipolar isomorphism.
    """

    def random(self, count: int = 1) -> np.ndarray:
        if count < 0:
            raise InvalidParameterError(f"count must be non-negative, got {count}")
        bits = self._rng.integers(0, 2, size=(int(count), self._dim), dtype=np.int8)
        return (1 - 2 * bits).astype(np.int8)

    @staticmethod
    def _validate(arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        if not _holds_bipolar(arr):
            raise InvalidHypervectorError("MAP hypervector entries must be -1 or +1")
        return arr.astype(np.int8, copy=False)

    def bind(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = self._validate(a)
        b = self._validate(b)
        return (a * b).astype(np.int8)

    def bundle(self, hvs: Union[np.ndarray, Sequence[np.ndarray]]) -> np.ndarray:
        if not isinstance(hvs, np.ndarray):
            hvs = np.stack([self._validate(h) for h in hvs], axis=0)
        else:
            hvs = self._validate(hvs)
            if hvs.ndim < 2:
                raise InvalidParameterError(
                    f"expected a stack of hypervectors, got shape {hvs.shape}"
                )
        total = hvs.sum(axis=0, dtype=np.int64)
        out = np.sign(total).astype(np.int8)
        zeros = out == 0
        if np.any(zeros):
            coin = self._rng.integers(0, 2, size=out.shape, dtype=np.int8)
            out[zeros] = (1 - 2 * coin[zeros]).astype(np.int8)
        return out

    def permute(self, hv: np.ndarray, shifts: int = 1) -> np.ndarray:
        return np.roll(self._validate(hv), int(shifts), axis=-1)

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = self._validate(a)
        b = self._validate(b)
        if a.shape[-1] != b.shape[-1]:
            raise InvalidParameterError(
                f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}"
            )
        cosine = (a * b).mean(axis=-1)
        return (1.0 - cosine) / 2.0
