"""Train paper pipelines into servable artifacts (the ``train`` CLI).

:func:`train_pipeline` trains a task's pipeline on the Table 1 /
Table 2 split, built by the same function as that table's cell
(:func:`~repro.experiments.config.build_gesture_pipeline`,
:func:`~repro.experiments.config.build_mars_pipeline`), but instead of
reporting a single metric it returns the trained
:class:`~repro.serve.pipeline.TrainedPipeline`, ready for
:func:`~repro.serve.persist.save_model` and the serving loop.

Supported targets:

* the three JIGSAWS-like gesture tasks (``suturing``, ``knot_tying``,
  ``needle_passing``) — key–value record classification over 18
  angular channels;
* ``mars_express`` — single-feature (orbital mean anomaly) power
  regression.  (The Beijing task binds three separately embedded
  features and has no single-embedding request form, so it is not
  servable through the generic engine yet.)

Held-out metrics are computed at train time and stored in the
pipeline's ``metadata``, so a saved model documents its own quality.
"""

from __future__ import annotations

from typing import Union

from ..serve.pipeline import TrainedPipeline
from .config import (
    SERVABLE_TASKS,
    TWO_PI,
    ClassificationConfig,
    RegressionConfig,
    build_gesture_pipeline,
    build_mars_pipeline,
    make_split,
    task_config,
)

__all__ = [
    "SERVABLE_TASKS",
    "train_pipeline",
    "train_classification_pipeline",
    "train_regression_pipeline",
]


def _split_sizes(split) -> dict[str, int]:
    return {"num_train": len(split.train_labels), "num_test": len(split.test_labels)}


def train_classification_pipeline(
    task: str,
    basis_kind: str = "circular",
    config: ClassificationConfig | None = None,
) -> TrainedPipeline:
    """Train one JIGSAWS-like task into a servable pipeline.

    Builds and fits the pipeline of the Table 1 cell
    (:func:`~repro.experiments.classification.run_classification`) on
    the same split, except in the tie policy: records are encoded with
    the pipeline's serve-time ``"zeros"`` policy rather than the
    experiment's ``"random"`` coins, which are keyed by a row's position
    in its split — a live request has no such position.  The held-out
    accuracy recorded in the metadata is therefore measured on exactly
    the path that serves.

    Example
    -------
    >>> cfg = ClassificationConfig(dim=256, seed=7)
    >>> pipe = train_classification_pipeline("suturing", "circular", config=cfg)
    >>> pipe.kind, pipe.num_features
    ('classification', 18)
    >>> pipe.metadata["test_accuracy"] > 0.5
    True
    """
    config = config or ClassificationConfig()
    split = make_split(task, config.seed)
    built = build_gesture_pipeline(
        basis_kind, config, split.num_channels,
        split.metadata.get("feature_range", (0.0, TWO_PI)),
    )
    accuracy = built.fit_split(split)
    return built.servable(
        task, basis_kind, config, **_split_sizes(split), test_accuracy=float(accuracy)
    )


def train_regression_pipeline(
    basis_kind: str = "circular",
    config: RegressionConfig | None = None,
) -> TrainedPipeline:
    """Train the Mars Express power model into a servable pipeline.

    Builds and fits the pipeline of the Table 2 cell
    (:func:`~repro.experiments.regression.run_mars_express`) on the same
    split and records its held-out MSE in the pipeline metadata.

    Example
    -------
    >>> cfg = RegressionConfig(dim=256, seed=7)
    >>> pipe = train_regression_pipeline("circular", config=cfg)
    >>> pipe.kind, pipe.num_features
    ('regression', 1)
    >>> pipe.metadata["test_mse"] >= 0.0
    True
    """
    config = config or RegressionConfig()
    split = make_split("mars_express", config.seed)
    built = build_mars_pipeline(basis_kind, config, split.label_range)
    mse = built.fit_split(split)
    return built.servable(
        "mars_express", basis_kind, config, **_split_sizes(split), test_mse=float(mse)
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
    config = task_config(task, config)
    if task == "mars_express":
        return train_regression_pipeline(basis_kind, config=config)
    return train_classification_pipeline(task, basis_kind, config=config)
