"""Train paper pipelines into servable artifacts (the ``train`` CLI).

:func:`train_pipeline` runs the same experiment cells as the Table 1 /
Table 2 drivers — identical seeding discipline, identical encode path —
but instead of reporting a single metric it returns the trained
:class:`~repro.serve.pipeline.TrainedPipeline`, ready for
:func:`~repro.serve.persist.save_model` and the serving loop.

Supported targets:

* the three JIGSAWS-like gesture tasks (``suturing``, ``knot_tying``,
  ``needle_passing``) — key–value record classification over 18 angular
  channels, exactly the :func:`~repro.experiments.classification.run_classification`
  pipeline;
* ``mars_express`` — single-feature (orbital mean anomaly) power
  regression, exactly the :func:`~repro.experiments.regression.run_mars_express`
  pipeline.  (The Beijing task binds three separately embedded features
  and has no single-embedding request form, so it is not servable
  through the generic engine yet.)

Held-out metrics are computed at train time and stored in the
pipeline's ``metadata``, so a saved model documents its own quality.
"""

from __future__ import annotations

import math
from typing import Union

from .._rng import ensure_rng
from ..basis import _value_embedding
from ..datasets import JIGSAWS_TASKS, make_jigsaws_like
from ..exceptions import InvalidParameterError
from ..hdc.hypervector import random_hypervectors
from ..learning.classifier import CentroidClassifier
from ..learning.regression import HDRegressor
from ..runtime import BatchEncoder
from ..serve.pipeline import TrainedPipeline
from .config import BASIS_KINDS, SERVABLE_TASKS, ClassificationConfig, RegressionConfig
from .regression import _label_embedding, make_regression_split

__all__ = [
    "SERVABLE_TASKS",
    "train_pipeline",
    "train_classification_pipeline",
    "train_regression_pipeline",
]

TWO_PI = 2.0 * math.pi


def train_classification_pipeline(
    task: str,
    basis_kind: str = "circular",
    config: ClassificationConfig | None = None,
) -> TrainedPipeline:
    """Train one JIGSAWS-like task into a servable pipeline.

    Follows :func:`~repro.experiments.classification.run_classification`
    (the same four spawned substreams, dataset split, fused-table encode
    and single-pass fit) except in the tie policy: records are encoded
    with the pipeline's serve-time ``"zeros"`` policy rather than the
    experiment's ``"random"`` coins, which are keyed by a row's position
    in its split — a live request has no such position.  The held-out
    accuracy recorded in the metadata is therefore measured on exactly
    the path that serves.  The classifier's tie-break seed is
    ``tie_rng`` itself, whereas the experiment first draws its encode
    key from it, so prototype ties may fall differently.

    Example
    -------
    >>> cfg = ClassificationConfig(dim=256, seed=7)
    >>> pipe = train_classification_pipeline("suturing", "circular", config=cfg)
    >>> pipe.kind, pipe.num_features
    ('classification', 18)
    >>> pipe.metadata["test_accuracy"] > 0.5
    True
    """
    if basis_kind not in BASIS_KINDS:
        raise InvalidParameterError(
            f"basis_kind must be one of {BASIS_KINDS}, got {basis_kind!r}"
        )
    config = config or ClassificationConfig()
    master = ensure_rng(config.seed)
    data_rng, basis_rng, key_rng, tie_rng = master.spawn(4)

    split = make_jigsaws_like(task=task, seed=data_rng)
    low, high = split.metadata.get("feature_range", (0.0, TWO_PI))
    embedding = _value_embedding(
        basis_kind, config.levels, config.dim, basis_rng, low, high, config.circular_r
    )
    keys = random_hypervectors(split.num_channels, config.dim, seed=key_rng)

    # The serve-time encode policy, end to end: training corpus, held-out
    # metric and live requests all use the same deterministic encoding.
    encoder = BatchEncoder(keys, embedding, tie_break="zeros")
    train_hvs = encoder.encode(split.train_features, packed=True)
    test_hvs = encoder.encode(split.test_features, packed=True)

    classifier = CentroidClassifier(config.dim, seed=tie_rng)
    classifier.fit(train_hvs, split.train_labels.tolist())
    if config.refine_epochs:
        classifier.refine(
            train_hvs, split.train_labels.tolist(), epochs=config.refine_epochs
        )
    accuracy = classifier.score(test_hvs, split.test_labels.tolist())
    # A served pipeline needs a position-free tie policy: "random"
    # coins are keyed by a row's split position, which a request lacks.
    return TrainedPipeline(
        kind="classification",
        model=classifier,
        embedding=embedding,
        keys=keys,
        tie_break="zeros",
        metadata={
            "task": task,
            "basis_kind": basis_kind,
            "dim": config.dim,
            "seed": config.seed,
            "num_train": int(split.train_features.shape[0]),
            "num_test": int(split.test_features.shape[0]),
            "test_accuracy": float(accuracy),
        },
    )


def train_regression_pipeline(
    basis_kind: str = "circular",
    config: RegressionConfig | None = None,
) -> TrainedPipeline:
    """Train the Mars Express power model into a servable pipeline.

    Mirrors :func:`~repro.experiments.regression.run_mars_express` and
    records the held-out MSE in the pipeline metadata.

    Example
    -------
    >>> cfg = RegressionConfig(dim=256, seed=7)
    >>> pipe = train_regression_pipeline("circular", config=cfg)
    >>> pipe.kind, pipe.num_features
    ('regression', 1)
    >>> pipe.metadata["test_mse"] >= 0.0
    True
    """
    if basis_kind not in BASIS_KINDS:
        raise InvalidParameterError(
            f"basis_kind must be one of {BASIS_KINDS}, got {basis_kind!r}"
        )
    config = config or RegressionConfig()
    master = ensure_rng(config.seed)
    data_rng, anomaly_rng, label_rng, tie_rng = master.spawn(4)
    del data_rng  # the split comes from make_regression_split (same stream)

    split = make_regression_split("mars_express", config)
    anomaly_embedding = _value_embedding(
        basis_kind, config.anomaly_levels, config.dim, anomaly_rng,
        0.0, TWO_PI, config.circular_r,
    )
    label_embedding = _label_embedding(split, config, label_rng)

    model = HDRegressor(
        label_embedding, seed=tie_rng, decode=config.decode, model=config.model
    )
    model.fit(
        anomaly_embedding.encode_packed(split.train_features[:, 0]), split.train_labels
    )
    mse = model.score(
        anomaly_embedding.encode_packed(split.test_features[:, 0]), split.test_labels
    )
    return TrainedPipeline(
        kind="regression",
        model=model,
        embedding=anomaly_embedding,
        keys=None,
        tie_break="zeros",
        metadata={
            "task": "mars_express",
            "basis_kind": basis_kind,
            "dim": config.dim,
            "seed": config.seed,
            "num_train": int(split.train_features.shape[0]),
            "num_test": int(split.test_features.shape[0]),
            "test_mse": float(mse),
        },
    )


def train_pipeline(
    task: str,
    basis_kind: str = "circular",
    config: Union[ClassificationConfig, RegressionConfig, None] = None,
) -> TrainedPipeline:
    """Train any servable task into a pipeline, dispatching on ``task``.

    ``task`` is a JIGSAWS-like gesture task (classification) or
    ``"mars_express"`` (regression); see :data:`SERVABLE_TASKS`.

    Example
    -------
    >>> pipe = train_pipeline("mars_express", config=RegressionConfig(dim=128, seed=1))
    >>> pipe.metadata["task"]
    'mars_express'
    """
    if task == "mars_express":
        if config is not None and not isinstance(config, RegressionConfig):
            raise InvalidParameterError("mars_express needs a RegressionConfig")
        return train_regression_pipeline(basis_kind, config=config)
    if task in JIGSAWS_TASKS:
        if config is not None and not isinstance(config, ClassificationConfig):
            raise InvalidParameterError(f"{task} needs a ClassificationConfig")
        return train_classification_pipeline(task, basis_kind, config=config)
    raise InvalidParameterError(
        f"unknown task {task!r}; expected one of {SERVABLE_TASKS}"
    )
