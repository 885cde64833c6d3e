"""The Table 1 experiment: surgical-gesture classification.

Pipeline (Section 6.1 of the paper):

1. generate a JIGSAWS-like task split (train on surgeon "D", test on the
   other seven),
2. quantise each of the 18 angular channels onto an ``m``-point grid and
   encode each sample as ``⊕_{i=1}^{18} K_i ⊗ V_i`` with random key
   hypervectors ``K_i`` and value hypervectors ``V_i`` drawn from the
   basis set under test (random / level / circular),
3. train the centroid classifier and report test accuracy.

For circular value bases the grid is circular (period 2π, no duplicated
endpoint); for random/level bases it is the paper's linear ξ-grid over
``[0, 2π]`` — that *is* the baseline treatment whose failure mode the
paper demonstrates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from .._rng import ensure_rng
from ..basis import Embedding, _value_embedding
from ..datasets import JIGSAWS_TASKS, ClassificationSplit, make_jigsaws_like
from ..exceptions import InvalidParameterError
from ..hdc.hypervector import random_hypervectors
from ..learning.classifier import CentroidClassifier
from ..runtime import ArtifactStore, BatchEncoder, fan_out
from .config import BASIS_KINDS, ClassificationConfig

__all__ = [
    "BASIS_KINDS",
    "ClassificationResult",
    "encode_angular_records",
    "run_classification",
    "run_table1",
    "table1_cache_params",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of one (task, basis) classification run."""

    task: str
    basis_kind: str
    accuracy: float
    num_train: int
    num_test: int
    config: ClassificationConfig


def encode_angular_records(
    features: np.ndarray,
    keys: np.ndarray,
    embedding: Embedding,
    tie_break: str = "random",
    seed: int | None = 0,
    start: int = 0,
) -> np.ndarray:
    """Encode ``(n, k)`` angular samples as key–value records.

    ``keys`` holds one random hypervector per channel; every channel
    shares the value embedding (all channels live on the same circle).
    Encodes through :class:`~repro.runtime.batch.BatchEncoder`:
    ``"random"`` ties of row ``i`` take the position-keyed coins of
    ``(seed, start + i)``.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise InvalidParameterError(f"expected (n, k) features, got {features.shape}")
    if keys.shape[0] != features.shape[1]:
        raise InvalidParameterError(
            f"got {keys.shape[0]} keys for {features.shape[1]} channels"
        )
    return BatchEncoder(keys, embedding, tie_break=tie_break).encode(
        features, seed=seed, start=start
    )


def run_classification(
    task: str,
    basis_kind: str,
    config: ClassificationConfig | None = None,
    split: ClassificationSplit | None = None,
) -> ClassificationResult:
    """Run one cell of Table 1 and return its accuracy.

    ``split`` can be supplied to reuse one generated dataset across basis
    kinds (as the paper does — the data does not change between columns);
    otherwise it is generated from the config seed.

    Example
    -------
    >>> cfg = ClassificationConfig(dim=256, seed=7)
    >>> cell = run_classification("suturing", "circular", config=cfg)
    >>> cell.num_train, cell.num_test
    (300, 2100)
    >>> 0.0 <= cell.accuracy <= 1.0
    True
    """
    if basis_kind not in BASIS_KINDS:
        raise InvalidParameterError(
            f"basis_kind must be one of {BASIS_KINDS}, got {basis_kind!r}"
        )
    config = config or ClassificationConfig()
    master = ensure_rng(config.seed)
    data_rng, basis_rng, key_rng, tie_rng = master.spawn(4)

    if split is None:
        split = make_jigsaws_like(task=task, seed=data_rng)
    elif task != split.metadata.get("task", task):
        raise InvalidParameterError(
            f"supplied split is for task {split.metadata.get('task')!r}, not {task!r}"
        )

    low, high = split.metadata.get("feature_range", (0.0, TWO_PI))
    embedding = _value_embedding(
        basis_kind, config.levels, config.dim, basis_rng, low, high, config.circular_r
    )
    keys = random_hypervectors(split.num_channels, config.dim, seed=key_rng)

    # Whole-split batched encoding (fused key⊗basis table, packed output).
    # One tie key for both splits; test rows sit after the train rows, so
    # every record of the cell draws its own tie coins.
    encoder = BatchEncoder(keys, embedding)
    tie_key = int(tie_rng.integers(0, 2**63))
    n_train = split.train_features.shape[0]
    train_hvs = encoder.encode(split.train_features, seed=tie_key, packed=True)
    test_hvs = encoder.encode(split.test_features, seed=tie_key, start=n_train, packed=True)

    classifier = CentroidClassifier(config.dim, seed=tie_rng)
    classifier.fit(train_hvs, split.train_labels.tolist())
    if config.refine_epochs:
        classifier.refine(
            train_hvs, split.train_labels.tolist(), epochs=config.refine_epochs
        )
    acc = classifier.score(test_hvs, split.test_labels.tolist())
    return ClassificationResult(
        task=task,
        basis_kind=basis_kind,
        accuracy=acc,
        num_train=int(split.train_features.shape[0]),
        num_test=int(split.test_features.shape[0]),
        config=config,
    )


def table1_cache_params(
    config: ClassificationConfig,
    tasks: tuple[str, ...],
    basis_kinds: tuple[str, ...],
) -> dict:
    """The content-hash key identifying one Table 1 configuration."""
    return {
        "config": asdict(config),
        "tasks": list(tasks),
        "basis_kinds": list(basis_kinds),
    }


def run_table1(
    config: ClassificationConfig | None = None,
    tasks: tuple[str, ...] = tuple(JIGSAWS_TASKS),
    basis_kinds: tuple[str, ...] = BASIS_KINDS,
    workers: int = 1,
    store: ArtifactStore | None = None,
) -> Mapping[str, Mapping[str, float]]:
    """Regenerate Table 1: accuracy per (task, basis kind).

    Returns ``{task: {basis_kind: accuracy}}`` with one shared dataset per
    task so the basis set is the only varying factor.

    Parameters
    ----------
    workers:
        Fan the independent (task, basis) cells out over that many
        forked processes (:func:`~repro.runtime.tree.fan_out`).  Every
        cell derives its randomness from ``config.seed`` alone, so the
        table is **bit-identical to the serial run for any worker count**.
    store:
        Optional :class:`~repro.runtime.artifacts.ArtifactStore`; when
        given, a previous run with an identical configuration is served
        from the cache (logged, nothing recomputed) and fresh results
        are persisted.
    """
    config = config or ClassificationConfig()
    params = table1_cache_params(config, tuple(tasks), tuple(basis_kinds))
    if store is not None:
        cached = store.load("table1", params)
        if cached is not None:
            return cached

    splits = {}
    for task in tasks:
        data_rng = ensure_rng(config.seed).spawn(4)[0]
        splits[task] = make_jigsaws_like(task=task, seed=data_rng)
    cells = [(task, kind) for task in tasks for kind in basis_kinds]
    accuracies = fan_out(
        lambda cell: run_classification(*cell, config=config, split=splits[cell[0]]).accuracy,
        cells,
        workers,
    )

    results: dict[str, dict[str, float]] = {task: {} for task in tasks}
    for (task, kind), acc in zip(cells, accuracies):
        results[task][kind] = acc
    if store is not None:
        store.store("table1", params, results)
    return results
