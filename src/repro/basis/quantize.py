"""Discretizers: the ξ-grids that map data values to basis indices.

Section 3.2 of the paper represents an interval ``[a, b]`` by placing ``m``
points ``ξ_i = a + (i − 1)(b − a)/(m − 1)`` evenly over it and mapping a
real ``x`` to the hypervector of the nearest point.  For circular data the
grid instead divides the period into ``m`` equal arcs with no duplicated
endpoint (the point after ``ξ_m`` wraps to ``ξ_1``).

A discretizer is the value-side half of an :class:`~repro.basis.base.Embedding`;
the hypervector-side half is a :class:`~repro.basis.base.BasisSet`.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from ..exceptions import EncodingDomainError, InvalidParameterError

__all__ = ["Discretizer", "LinearDiscretizer", "CircularDiscretizer"]

TWO_PI = 2.0 * math.pi


class Discretizer(abc.ABC):
    """Bidirectional mapping between data values and grid indices."""

    def __init__(self, size: int) -> None:
        if not isinstance(size, (int, np.integer)) or isinstance(size, bool):
            raise InvalidParameterError(f"size must be an integer, got {size!r}")
        if size < 2:
            raise InvalidParameterError(f"size must be at least 2, got {size}")
        self._size = int(size)

    @property
    def size(self) -> int:
        """Number of grid points ``m``."""
        return self._size

    @abc.abstractmethod
    def index(self, values: np.ndarray | float) -> np.ndarray:
        """Map value(s) to the index of the nearest grid point."""

    @abc.abstractmethod
    def value(self, indices: np.ndarray | int) -> np.ndarray:
        """Map grid indices back to their representative values ``ξ_i``."""

    @property
    @abc.abstractmethod
    def points(self) -> np.ndarray:
        """The full grid ``(ξ_1, …, ξ_m)`` as a float array."""

    def round_trip(self, values: np.ndarray | float) -> np.ndarray:
        """Quantise values to their nearest representative: ``value(index(x))``."""
        return self.value(self.index(values))


class LinearDiscretizer(Discretizer):
    """Even grid over a closed interval ``[low, high]`` (Section 3.2).

    Parameters
    ----------
    low, high:
        Interval endpoints ``a < b``.
    size:
        Number of grid points ``m ≥ 2``.
    clip:
        If ``True`` (default), out-of-interval values snap to the nearest
        endpoint — convenient when test data slightly exceeds the training
        range.  If ``False``, out-of-interval values raise
        :class:`~repro.exceptions.EncodingDomainError`.
    """

    def __init__(self, low: float, high: float, size: int, clip: bool = True) -> None:
        super().__init__(size)
        low = float(low)
        high = float(high)
        if not math.isfinite(low) or not math.isfinite(high):
            raise InvalidParameterError("interval endpoints must be finite")
        if not low < high:
            raise InvalidParameterError(
                f"interval must satisfy low < high, got [{low}, {high}]"
            )
        self.low = low
        self.high = high
        self.clip = bool(clip)
        self._step = (high - low) / (self._size - 1)

    @property
    def points(self) -> np.ndarray:
        return self.low + self._step * np.arange(self._size)

    def index(self, values: np.ndarray | float) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise EncodingDomainError("values must be finite")
        if self.clip:
            arr = np.clip(arr, self.low, self.high)
        elif np.any(arr < self.low) or np.any(arr > self.high):
            raise EncodingDomainError(
                f"value outside the interval [{self.low}, {self.high}]"
            )
        idx = np.rint((arr - self.low) / self._step).astype(np.int64)
        return np.clip(idx, 0, self._size - 1)

    def value(self, indices: np.ndarray | int) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        if np.any(idx < 0) or np.any(idx >= self._size):
            raise InvalidParameterError(
                f"index out of range for a grid of size {self._size}"
            )
        return self.low + self._step * idx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LinearDiscretizer(low={self.low}, high={self.high}, "
            f"size={self._size}, clip={self.clip})"
        )


class CircularDiscretizer(Discretizer):
    """Even grid over a circle of given period (Section 5).

    Grid point ``i`` sits at angle ``low + period · (i − 1) / m``; unlike
    the linear grid there is no duplicated endpoint, because on a circle
    ``low`` and ``low + period`` are the same point.  Any real value is
    accepted — it is wrapped into the fundamental period first — so this
    discretizer never raises a domain error.

    ``period`` defaults to ``2π`` (angles in radians); pass ``period=24``
    for hours of a day, ``period=365.2425`` for days of a year, etc.
    """

    def __init__(self, size: int, low: float = 0.0, period: float = TWO_PI) -> None:
        super().__init__(size)
        period = float(period)
        if not math.isfinite(period) or period <= 0:
            raise InvalidParameterError(f"period must be positive, got {period}")
        self.low = float(low)
        self.period = period
        self._step = period / self._size

    @property
    def points(self) -> np.ndarray:
        return self.low + self._step * np.arange(self._size)

    def index(self, values: np.ndarray | float) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise EncodingDomainError("values must be finite")
        with np.errstate(over="ignore"):
            phase = (arr - self.low) / self._step
        overflow = ~np.isfinite(phase)
        if overflow.any():
            # |arr - low| / step left float range: wrap by the period
            # first (fmod is exact), then take the phase of the remainder.
            wrapped = np.fmod(arr, self.period) - math.fmod(self.low, self.period)
            phase = np.where(overflow, wrapped / self._step, phase)
        # Reduce before the integer cast: a phase of 2**63 or more would
        # overflow int64.  fmod of an integer-valued float is exact.
        return np.fmod(np.rint(phase), self._size).astype(np.int64) % self._size

    def value(self, indices: np.ndarray | int) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        if np.any(idx < 0) or np.any(idx >= self._size):
            raise InvalidParameterError(
                f"index out of range for a grid of size {self._size}"
            )
        return self.low + self._step * idx

    def arc_steps(self, i: np.ndarray | int, j: np.ndarray | int) -> np.ndarray:
        """Circular index distance: shortest walk between grid slots.

        ``arc_steps(i, j) ∈ [0, m/2]`` counts grid steps the short way
        around; it is the index-space analogue of the angular distance ρ.
        """
        a = np.asarray(i, dtype=np.int64) % self._size
        b = np.asarray(j, dtype=np.int64) % self._size
        diff = np.abs(a - b)
        return np.minimum(diff, self._size - diff)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircularDiscretizer(size={self._size}, low={self.low}, "
            f"period={self.period})"
        )
