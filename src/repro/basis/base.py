"""Common interface for basis-hypervector sets.

A *basis-hypervector set* (the central subject of the paper) is a table of
``m`` stochastically generated ``d``-dimensional hypervectors whose
pairwise-distance structure encodes a relationship between the atomic
pieces of information they represent:

* random sets — all pairs quasi-orthogonal (no correlation),
* level sets — distance grows linearly with index separation,
* circular sets — distance follows the circular (wrap-around) separation.

:class:`BasisSet` provides the table plumbing plus the analysis helpers
(pairwise similarity/distance matrices — the Figure 3 data).  Each concrete
set also knows its *theoretical* expected pairwise distance
(:meth:`BasisSet.expected_distance`), which the test-suite checks against
empirical averages.

:class:`Embedding` couples a basis set with a
:class:`~repro.basis.quantize.Discretizer`, yielding the encoding function
``φ : X → H`` of Section 3.2 (and its inverse ``φ⁻¹`` needed for
regression labels, Section 2.3).
"""

from __future__ import annotations

import abc

import numpy as np

from ..exceptions import InvalidParameterError
from ..hdc.coerce import as_packed_batch
from ..hdc.kernels import pairwise_hamming
from ..hdc.packed import PackedHV, packed_hamming
from .quantize import Discretizer

__all__ = ["BasisSet", "Embedding"]


class BasisSet(abc.ABC):
    """A table of ``m`` basis-hypervectors of dimension ``d``.

    Concrete subclasses generate the table in their constructor.  It is
    stored once, bit-packed: an unpacked table is checked and packed on
    the way in, a :class:`~repro.hdc.packed.PackedHV` (a saved model's
    basis) is kept as it is, and unpacked views are built on demand.
    """

    def __init__(self, vectors: np.ndarray | PackedHV) -> None:
        packed = PackedHV.pack(vectors)
        if packed.ndim != 2:
            raise InvalidParameterError(
                f"a basis set is a (m, d) table, got shape {packed.shape}"
            )
        if packed.shape[0] < 1:
            raise InvalidParameterError("a basis set needs at least one hypervector")
        self._packed = packed

    # -- table access ---------------------------------------------------------
    @property
    def vectors(self) -> np.ndarray:
        """The ``(m, d)`` table of basis-hypervectors, unpacked on demand."""
        return self._packed.unpack()

    @property
    def packed(self) -> PackedHV:
        """The stored table, ``m × ceil(d / 8)`` bytes: what the kernels scan."""
        return self._packed

    @property
    def dim(self) -> int:
        """Hyperspace dimensionality ``d``."""
        return self._packed.dim

    def __len__(self) -> int:
        return len(self._packed)

    def __getitem__(self, index) -> np.ndarray:
        """Unpacked row access; supports ints, slices and index arrays (numpy rules)."""
        return self._packed[index].unpack()

    # -- geometry ----------------------------------------------------------------
    def distance(self, i: int, j: int) -> float:
        """Empirical normalized Hamming distance between members ``i`` and ``j``."""
        return float(packed_hamming(self._packed[i], self._packed[j]))

    def distance_matrix(self) -> np.ndarray:
        """All-pairs normalized Hamming distance, shape ``(m, m)``, on the packed table."""
        return pairwise_hamming(self._packed)

    def similarity_matrix(self) -> np.ndarray:
        """All-pairs similarity ``1 − δ`` — the quantity plotted in Figure 3."""
        return 1.0 - self.distance_matrix()

    @abc.abstractmethod
    def expected_distance(self, i: int, j: int) -> float:
        """Theoretical ``E[δ(v_i, v_j)]`` for this construction.

        Used by the property-based tests: the empirical pairwise distance
        of a freshly generated set must match this value within the
        binomial concentration bound for dimension ``d``.
        """

    def expected_distance_matrix(self) -> np.ndarray:
        """Matrix of :meth:`expected_distance` over all pairs."""
        m = len(self)
        out = np.empty((m, m), dtype=np.float64)
        for i in range(m):
            for j in range(m):
                out[i, j] = self.expected_distance(i, j)
        return out

    # -- embedding conveniences ---------------------------------------------------
    def linear_embedding(self, low: float, high: float, clip: bool = True) -> "Embedding":
        """Couple this basis with a linear ξ-grid over ``[low, high]``.

        Returns an :class:`Embedding` whose discretizer has exactly one
        grid point per basis member (Section 3.2).
        """
        from .quantize import LinearDiscretizer

        return Embedding(self, LinearDiscretizer(low, high, len(self), clip=clip))

    def circular_embedding(self, low: float = 0.0, period: float | None = None) -> "Embedding":
        """Couple this basis with a circular grid of the given period.

        ``period`` defaults to ``2π`` (angles in radians).  Natural for
        circular basis sets, but permitted for any basis — encoding
        circular data with random or level sets is exactly the baseline
        configuration of the paper's experiments.
        """
        import math

        from .quantize import CircularDiscretizer

        if period is None:
            period = 2.0 * math.pi
        return Embedding(self, CircularDiscretizer(len(self), low=low, period=period))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(size={len(self)}, dim={self.dim})"


class Embedding:
    """The encoding function ``φ`` of Section 3.2: value → hypervector.

    Couples a :class:`~repro.basis.quantize.Discretizer` (value → index)
    with a :class:`BasisSet` (index → hypervector).  The inverse direction
    (hypervector → value, via nearest-member cleanup) implements the
    ``φ_ℓ⁻¹`` used to decode regression labels (Section 2.3).
    """

    def __init__(self, basis: BasisSet, discretizer: Discretizer) -> None:
        if len(basis) != discretizer.size:
            raise InvalidParameterError(
                f"basis size ({len(basis)}) must equal discretizer size "
                f"({discretizer.size})"
            )
        self.basis = basis
        self.discretizer = discretizer

    @property
    def dim(self) -> int:
        """Hyperspace dimensionality of the underlying basis set."""
        return self.basis.dim

    def __len__(self) -> int:
        return len(self.basis)

    def indices(self, values: np.ndarray | float) -> np.ndarray:
        """Quantise values to basis indices (the ``arg min |x − ξ_i|`` step)."""
        return self.discretizer.index(values)

    def encode(self, values: np.ndarray | float) -> np.ndarray:
        """Encode value(s) to hypervector(s): ``φ(x) = B[index(x)]``.

        A scalar yields shape ``(d,)``; an ``(n,)`` array yields ``(n, d)``.
        """
        idx = self.indices(values)
        return self.basis[idx]

    def encode_packed(self, values: np.ndarray | float) -> PackedHV:
        """Encode value(s) directly to bit-packed hypervector(s).

        Rows are gathered from the packed basis table, so encoding
        a batch of ``n`` values materialises ``n × ceil(d / 8)`` bytes and
        never touches the unpacked representation.
        """
        idx = self.indices(values)
        return PackedHV(self.basis.packed.data[idx], self.dim)

    def decode(self, hv: np.ndarray | PackedHV) -> np.ndarray:
        """Decode hypervector(s) to representative value(s) ``ξ_l``.

        Performs a cleanup against the whole basis table (nearest member
        by Hamming distance, via the similarity-kernel subsystem) and
        returns that member's grid value — exactly the two-step decode
        ``l = arg min δ(·, L_i)``, ``x = φ_ℓ⁻¹(L_l)`` from the paper's
        regression framework.  Accepts packed or unpacked queries.
        """
        batch, single = as_packed_batch(hv, self.dim, "Embedding.decode")
        dist = pairwise_hamming(batch, self.basis.packed)
        idx = np.argmin(dist, axis=-1)
        values = self.discretizer.value(idx)
        return values[0] if single else values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Embedding({self.basis!r}, {self.discretizer!r})"
