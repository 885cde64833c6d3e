"""Shared experiment configuration.

One dataclass per experimental family, with defaults matching the paper
where it specifies them (``d ≈ 10,000``; ``r = 0.1`` for Table 1's
circular sets; ``r = 0.01`` for Table 2's) and documented choices where
it does not (grid sizes, label levels).  The ``scaled`` constructor makes
cheap variants for tests and quick benchmark runs without touching the
experiment logic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..datasets.jigsaws import JIGSAWS_TASKS
from ..exceptions import InvalidParameterError

__all__ = [
    "BASIS_KINDS",
    "SERVABLE_TASKS",
    "ClassificationConfig",
    "RegressionConfig",
    "DEFAULT_DIMENSION",
]

#: The paper's hyperspace dimensionality.
DEFAULT_DIMENSION = 10_000

#: The basis sets compared in Table 1, in column order.
BASIS_KINDS = ("random", "level", "circular")

#: Everything :func:`~repro.experiments.serving.train_pipeline` accepts
#: as a task name.
SERVABLE_TASKS = tuple(JIGSAWS_TASKS) + ("mars_express",)


@dataclass(frozen=True)
class ClassificationConfig:
    """Configuration of the Table 1 (JIGSAWS-like) experiments.

    Attributes
    ----------
    dim:
        Hyperspace dimensionality.
    levels:
        Size of the value basis set used to quantise each angular channel
        (the paper does not state its choice; 12 — a 30° resolution —
        was calibrated together with the surrogate dataset).
    circular_r:
        The ``r`` used for circular sets ("The circular hypervectors have
        r = 0.1" — Table 1 caption).
    seed:
        Master seed; dataset, basis and tie-breaking streams are spawned
        from it.
    refine_epochs:
        Online-refinement epochs (0 = the paper's single-pass training).
    """

    dim: int = DEFAULT_DIMENSION
    levels: int = 12
    circular_r: float = 0.1
    seed: int = 2023
    refine_epochs: int = 0

    def __post_init__(self) -> None:
        if self.dim < 8:
            raise InvalidParameterError(f"dim too small: {self.dim}")
        if self.levels < 2:
            raise InvalidParameterError(f"levels must be ≥ 2, got {self.levels}")
        if not 0.0 <= self.circular_r <= 1.0:
            raise InvalidParameterError(f"circular_r must lie in [0, 1], got {self.circular_r}")
        if self.refine_epochs < 0:
            raise InvalidParameterError("refine_epochs must be non-negative")

    def scaled(self, dim: int) -> "ClassificationConfig":
        """Same experiment at a different dimensionality (for fast runs)."""
        return replace(self, dim=dim)


@dataclass(frozen=True)
class RegressionConfig:
    """Configuration of the Table 2 / Figure 7 regression experiments.

    Attributes
    ----------
    dim:
        Hyperspace dimensionality.
    label_levels:
        Size of the level basis encoding the label (temperature / power).
    day_levels, hour_levels:
        Grid sizes for Beijing's day-of-year and hour-of-day features.
    anomaly_levels:
        Grid size for Mars Express's mean anomaly.
    circular_r:
        "The circular hypervectors have r = 0.01" — Table 2 caption.
    seed:
        Master seed.
    decode:
        Label decode mode of :class:`~repro.learning.regression.HDRegressor`.
    model:
        ``"integer"`` (unquantised accumulator, the torchhd-style practice
        and this reproduction's default) or
        ``"binary"`` (the paper's formal majority bundle; compared in the
        ablation benchmark).
    """

    dim: int = DEFAULT_DIMENSION
    label_levels: int = 128
    day_levels: int = 365
    hour_levels: int = 24
    anomaly_levels: int = 720
    circular_r: float = 0.01
    seed: int = 2023
    decode: str = "argmin"
    model: str = "integer"

    def __post_init__(self) -> None:
        if self.dim < 8:
            raise InvalidParameterError(f"dim too small: {self.dim}")
        for name in ("label_levels", "day_levels", "hour_levels", "anomaly_levels"):
            if getattr(self, name) < 2:
                raise InvalidParameterError(f"{name} must be ≥ 2")
        if not 0.0 <= self.circular_r <= 1.0:
            raise InvalidParameterError(f"circular_r must lie in [0, 1], got {self.circular_r}")
        if self.decode not in ("argmin", "weighted"):
            raise InvalidParameterError(f"unknown decode mode {self.decode!r}")
        if self.model not in ("binary", "integer"):
            raise InvalidParameterError(f"unknown model mode {self.model!r}")

    def scaled(self, dim: int) -> "RegressionConfig":
        """Same experiment at a different dimensionality (for fast runs)."""
        return replace(self, dim=dim)
