"""Shared fixtures for the serving-tier tests.

Two jobs:

* small trained pipelines (classification, regression, and a
  ``tie_break="alternate"`` classification pipeline whose encodes
  really tie), module-cached so the concurrency tests stay fast;
* an **autouse thread-leak check**: batchers and servers own threads
  (event loops, executors), and every
  test must release them — a test that exits with stray live threads
  fails here, which is how the ``with``/``close()`` discipline across
  ``tests/serve/`` is enforced.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.basis import LevelBasis
from repro.experiments.config import ClassificationConfig, RegressionConfig
from repro.experiments.serving import (
    train_classification_pipeline,
    train_regression_pipeline,
)
from repro.hdc.hypervector import random_hypervectors
from repro.learning import CentroidClassifier
from repro.serve import OnlineLearner, TrainedPipeline


@pytest.fixture(autouse=True)
def no_thread_leaks():
    """Fail any test that leaves newly created threads running.

    Threads get a short grace period to finish teardown (executor
    workers exit asynchronously after ``shutdown``), but a thread still
    alive afterwards is a leaked pool, server loop or scheduler — the
    bug class this suite exists to catch.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 5.0
    leaked = []
    while time.monotonic() < deadline:
        leaked = [
            t for t in threading.enumerate() if t not in before and t.is_alive()
        ]
        if not leaked:
            return
        time.sleep(0.05)
    pytest.fail(
        "test leaked live threads: "
        + ", ".join(sorted(t.name for t in leaked))
    )


@pytest.fixture(scope="module")
def classification_pipeline():
    """A small suturing classifier (deterministic "zeros" tie policy)."""
    return train_classification_pipeline(
        "suturing", "circular", config=ClassificationConfig(dim=256, seed=7)
    )


@pytest.fixture(scope="module")
def regression_pipeline():
    """The keyless Mars Express regressor (no per-record tie draws)."""
    return train_regression_pipeline(
        "circular", config=RegressionConfig(dim=256, seed=3)
    )


@pytest.fixture(scope="module")
def alternate_tie_pipeline():
    """A classification pipeline with ``tie_break="alternate"``.

    Four keys (an even count) guarantee encode ties actually occur, so
    the position-free tie policy other than ``"zeros"`` is exercised by
    batch encoding, the coalescer and online learning.
    """
    dim = 256
    embedding = LevelBasis(8, dim, seed=11).linear_embedding(0.0, 1.0)
    keys = random_hypervectors(4, dim, seed=12)
    pipeline = TrainedPipeline(
        kind="classification",
        model=CentroidClassifier(dim=dim, seed=13),
        embedding=embedding,
        keys=keys,
        tie_break="alternate",
    )
    rng = np.random.default_rng(14)
    features = rng.random((60, 4))
    labels = [int(v) for v in rng.integers(0, 3, 60)]
    with OnlineLearner(pipeline) as learner:
        learner.learn(features, labels)
    return pipeline
