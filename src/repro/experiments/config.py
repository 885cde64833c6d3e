"""Shared experiment configuration, and the pipelines built from it.

One dataclass per experimental family, with defaults matching the paper
where it specifies them (``d ≈ 10,000``; ``r = 0.1`` for Table 1's
circular sets; ``r = 0.01`` for Table 2's) and documented choices where
it does not (grid sizes, label levels).  The ``scaled`` constructor makes
cheap variants for tests and quick benchmark runs without touching the
experiment logic.

Each servable task's model is built here and nowhere else:
:func:`build_gesture_pipeline` assembles the key–value record pipeline
of the JIGSAWS-like gesture tasks and :func:`build_mars_pipeline` the
single-feature Mars Express regressor.  The Table 1/2 cells, the
``train`` CLI and ``train --stream`` all call them, so they share one
seeding discipline: :func:`seed_streams` splits a config's seed into
substreams, child 0 seeding the data (:func:`make_split`) and the
others the bases, keys and tie-breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Union

import numpy as np

from .._rng import ensure_rng
from ..datasets.jigsaws import JIGSAWS_TASKS
from ..exceptions import InvalidParameterError

# The builders import the model layers when they run: the CLI parser
# reads this module's constants and should load nothing it does not run.
if TYPE_CHECKING:
    from ..basis import Embedding
    from ..learning.classifier import CentroidClassifier
    from ..learning.regression import HDRegressor
    from ..runtime.batch import BatchEncoder
    from ..serve.pipeline import TrainedPipeline

__all__ = [
    "BASIS_KINDS",
    "SERVABLE_TASKS",
    "ClassificationConfig",
    "RegressionConfig",
    "DEFAULT_DIMENSION",
]

TWO_PI = 2.0 * math.pi

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


def task_config(task: str, config=None):
    """``config`` checked against ``task``'s family, or that family's default."""
    if task not in SERVABLE_TASKS:
        raise InvalidParameterError(f"unknown task {task!r}; expected one of {SERVABLE_TASKS}")
    expected = RegressionConfig if task == "mars_express" else ClassificationConfig
    if config is None:
        return expected()
    if not isinstance(config, expected):
        raise InvalidParameterError(f"{task} needs a {expected.__name__}")
    return config


def seed_streams(seed: int, count: int = 4) -> list[np.random.Generator]:
    """Independent substreams of a task's seed: child 0 seeds the data,
    the last the model's tie-breaks, the others its bases and keys."""
    return ensure_rng(seed).spawn(count)


def make_split(dataset: str, seed: int):
    """Generate a gesture task, ``"beijing"`` or ``"mars_express"`` from child 0 of ``seed``."""
    # Imported here: a streamed training generates no split and needs none.
    from ..datasets import make_beijing_like, make_jigsaws_like, make_mars_express_like

    data_rng = seed_streams(seed)[0]
    if dataset in JIGSAWS_TASKS:
        return make_jigsaws_like(task=dataset, seed=data_rng)
    if dataset == "beijing":
        return make_beijing_like(seed=data_rng)
    if dataset == "mars_express":
        return make_mars_express_like(seed=data_rng)
    raise InvalidParameterError(f"unknown dataset {dataset!r}")


def label_embedding(
    label_range: tuple[float, float], config: RegressionConfig, seed
) -> Embedding:
    """Level embedding of a regression label over ``label_range`` (clipped)."""
    from ..basis import Embedding, LevelBasis, LinearDiscretizer

    low, high = label_range
    if high <= low:  # degenerate label range (constant labels)
        high = low + 1.0
    basis = LevelBasis(config.label_levels, config.dim, seed=seed)
    return Embedding(basis, LinearDiscretizer(low, high, config.label_levels, clip=True))


def _embedding(basis_kind: str, levels: int, config, seed, low: float, high: float) -> Embedding:
    """The value embedding of one of the compared :data:`BASIS_KINDS`."""
    from ..basis import _value_embedding

    if basis_kind not in BASIS_KINDS:
        raise InvalidParameterError(
            f"basis_kind must be one of {BASIS_KINDS}, got {basis_kind!r}"
        )
    return _value_embedding(basis_kind, levels, config.dim, seed, low, high, config.circular_r)


@dataclass
class TaskPipeline:
    """A servable task's pipeline as its builder returns it, untrained.

    ``encoder`` is the record encoder of a key–value pipeline and
    ``None`` for a single-feature one; ``tie_key`` keys the ``"random"``
    tie coins of the record encode.
    """

    kind: str
    model: Union[CentroidClassifier, HDRegressor]
    embedding: Embedding
    keys: np.ndarray | None = None
    encoder: BatchEncoder | None = None
    tie_key: int = 0
    refine_epochs: int = 0

    def encode(self, features: np.ndarray, start: int = 0):
        """Packed hypervectors of ``features``, the first row at ``start``."""
        if self.encoder is None:
            return self.embedding.encode_packed(features[:, 0])
        return self.encoder.encode(features, seed=self.tie_key, start=start, packed=True)

    def fit_split(self, split) -> float:
        """Train on ``split``'s training rows; return the held-out
        accuracy or MSE.  Test rows take positions after the training
        rows, so every record of the split draws its own tie coins."""
        train = self.encode(split.train_features)
        test = self.encode(split.test_features, start=split.train_features.shape[0])
        if self.kind == "regression":
            self.model.fit(train, split.train_labels)
            return self.model.score(test, split.test_labels)
        labels = split.train_labels.tolist()
        self.model.fit(train, labels)
        if self.refine_epochs:
            self.model.refine(train, labels, epochs=self.refine_epochs)
        return self.model.score(test, split.test_labels.tolist())

    def servable(self, task: str, basis_kind: str, config, **metadata) -> TrainedPipeline:
        """The servable form (``"zeros"`` ties) with its provenance."""
        from ..serve.pipeline import TrainedPipeline

        return TrainedPipeline(
            kind=self.kind,
            model=self.model,
            embedding=self.embedding,
            keys=self.keys,
            tie_break="zeros",
            metadata={"task": task, "basis_kind": basis_kind, "dim": config.dim,
                      "seed": config.seed, **metadata},
        )


def build_gesture_pipeline(
    basis_kind: str,
    config: ClassificationConfig,
    num_channels: int,
    feature_range: tuple[float, float],
    tie_break: str = "zeros",
) -> TaskPipeline:
    """The key–value record pipeline of a gesture task (Table 1).

    A ``num_channels``-angle record encodes as ``⊕_i K_i ⊗ V_i`` with
    random channel keys and values from the ``basis_kind`` embedding of
    ``feature_range``.  Only the ``"random"`` tie policy (the Table 1
    cell's) draws a tie key, first, from the tie-break substream.
    """
    from ..hdc.hypervector import random_hypervectors
    from ..learning.classifier import CentroidClassifier
    from ..runtime.batch import BatchEncoder

    _, basis_rng, key_rng, tie_rng = seed_streams(config.seed)
    embedding = _embedding(basis_kind, config.levels, config, basis_rng, *feature_range)
    keys = random_hypervectors(num_channels, config.dim, seed=key_rng)
    tie_key = int(tie_rng.integers(0, 2**63)) if tie_break == "random" else 0
    return TaskPipeline(
        kind="classification",
        model=CentroidClassifier(config.dim, seed=tie_rng),
        embedding=embedding,
        keys=keys,
        encoder=BatchEncoder(keys, embedding, tie_break=tie_break),
        tie_key=tie_key,
        refine_epochs=config.refine_epochs,
    )


def build_mars_pipeline(
    basis_kind: str, config: RegressionConfig, label_range: tuple[float, float]
) -> TaskPipeline:
    """The Mars Express power regressor (Table 2): the mean anomaly
    embedded by ``basis_kind``, the power level-encoded over ``label_range``."""
    from ..learning.regression import HDRegressor

    _, anomaly_rng, label_rng, tie_rng = seed_streams(config.seed)
    embedding = _embedding(basis_kind, config.anomaly_levels, config, anomaly_rng, 0.0, TWO_PI)
    model = HDRegressor(
        label_embedding(label_range, config, label_rng),
        seed=tie_rng, decode=config.decode, model=config.model,
    )
    return TaskPipeline(kind="regression", model=model, embedding=embedding)
