"""The Table 2 / Figure 7 experiments: Beijing and Mars Express regression.

Beijing (Section 6.2): samples are encoded as ``Y ⊗ D ⊗ H`` — the year as
a level-hypervector (macro trends), the day-of-year and hour-of-day drawn
from the basis under test (random / level / circular).  The label
(temperature) is encoded with level-hypervectors; the model memorises
``⊕ φ(x) ⊗ φ_ℓ(y)``; decoding follows Section 2.3.

Mars Express: a single circular feature, the orbital mean anomaly,
encoded with the basis under test; the label (power) level-encoded.

Both report mean squared error on the held-out split; Figure 7 is the
same data normalized by the random-basis column.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from ..basis import Embedding, LevelBasis, LinearDiscretizer, _value_embedding
from ..datasets import RegressionSplit
from ..datasets.beijing import DAYS_PER_YEAR
from ..exceptions import InvalidParameterError
from ..hdc.encoders import encode_bound_records
from ..learning.regression import HDRegressor
from ..runtime import ArtifactStore, fan_out
from .config import (
    RegressionConfig,
    build_mars_pipeline,
    label_embedding,
    make_split,
    seed_streams,
)

__all__ = [
    "REGRESSION_DATASETS",
    "RegressionResult",
    "run_beijing",
    "run_mars_express",
    "make_regression_split",
    "run_regression",
    "run_table2",
    "table2_cache_params",
]

#: The datasets of Table 2, in row order.
REGRESSION_DATASETS = ("beijing", "mars_express")


@dataclass(frozen=True)
class RegressionResult:
    """Outcome of one (dataset, basis) regression run."""

    dataset: str
    basis_kind: str
    mse: float
    num_train: int
    num_test: int
    config: RegressionConfig


def run_beijing(
    basis_kind: str,
    config: RegressionConfig | None = None,
    split: RegressionSplit | None = None,
) -> RegressionResult:
    """One Beijing cell of Table 2: temperature-forecast MSE."""
    config = config or RegressionConfig()
    _, year_rng, day_rng, hour_rng, label_rng, tie_rng = seed_streams(config.seed, 6)
    if split is None:
        split = make_split("beijing", config.seed)

    # Year: always a level basis over the observed year indices.
    year_values = np.concatenate(
        [split.train_features[:, 0], split.test_features[:, 0]]
    )
    num_years = int(year_values.max()) + 1
    year_levels = max(2, num_years)
    year_basis = LevelBasis(year_levels, config.dim, seed=year_rng)
    year_embedding = Embedding(
        year_basis,
        LinearDiscretizer(0.0, float(year_levels - 1), year_levels, clip=True),
    )

    day_embedding = _value_embedding(
        basis_kind, config.day_levels, config.dim, day_rng,
        0.0, DAYS_PER_YEAR, config.circular_r,
    )
    hour_embedding = _value_embedding(
        basis_kind, config.hour_levels, config.dim, hour_rng,
        0.0, 24.0, config.circular_r,
    )

    def encode(features: np.ndarray):
        # Packed feature batches: the Y ⊗ D ⊗ H binding runs on packed
        # words and the encoded corpus stays at ceil(d / 8) bytes a row.
        return encode_bound_records(
            [
                year_embedding.encode_packed(features[:, 0]),
                day_embedding.encode_packed(features[:, 1]),
                hour_embedding.encode_packed(features[:, 2]),
            ]
        )

    model = HDRegressor(
        label_embedding(split.label_range, config, label_rng),
        seed=tie_rng, decode=config.decode, model=config.model,
    )
    model.fit(encode(split.train_features), split.train_labels)
    mse = model.score(encode(split.test_features), split.test_labels)
    return RegressionResult(
        dataset="beijing",
        basis_kind=basis_kind,
        mse=mse,
        num_train=int(split.train_features.shape[0]),
        num_test=int(split.test_features.shape[0]),
        config=config,
    )


def run_mars_express(
    basis_kind: str,
    config: RegressionConfig | None = None,
    split: RegressionSplit | None = None,
) -> RegressionResult:
    """One Mars Express cell of Table 2: power-prediction MSE."""
    config = config or RegressionConfig()
    if split is None:
        split = make_split("mars_express", config.seed)
    built = build_mars_pipeline(basis_kind, config, split.label_range)
    return RegressionResult(
        dataset="mars_express",
        basis_kind=basis_kind,
        mse=built.fit_split(split),
        num_train=int(split.train_features.shape[0]),
        num_test=int(split.test_features.shape[0]),
        config=config,
    )


def run_regression(
    dataset: str,
    basis_kind: str,
    config: RegressionConfig | None = None,
    split: RegressionSplit | None = None,
) -> RegressionResult:
    """Dispatch to :func:`run_beijing` / :func:`run_mars_express` by name.

    Example
    -------
    >>> cfg = RegressionConfig(dim=256, seed=7)
    >>> cell = run_regression("mars_express", "circular", config=cfg)
    >>> cell.dataset, cell.basis_kind
    ('mars_express', 'circular')
    >>> cell.mse >= 0.0
    True
    """
    if dataset == "beijing":
        return run_beijing(basis_kind, config=config, split=split)
    if dataset == "mars_express":
        return run_mars_express(basis_kind, config=config, split=split)
    raise InvalidParameterError(
        f"unknown dataset {dataset!r}; expected one of {REGRESSION_DATASETS}"
    )


def make_regression_split(dataset: str, config: RegressionConfig) -> RegressionSplit:
    """Generate one regression dataset from ``config.seed``.

    The split the drivers and cells use
    (:func:`~repro.experiments.config.make_split`), limited to
    :data:`REGRESSION_DATASETS`.
    """
    if dataset not in REGRESSION_DATASETS:
        raise InvalidParameterError(
            f"unknown dataset {dataset!r}; expected one of {REGRESSION_DATASETS}"
        )
    return make_split(dataset, config.seed)


def table2_cache_params(
    config: RegressionConfig,
    basis_kinds: tuple[str, ...],
    datasets: tuple[str, ...],
) -> dict:
    """The content-hash key identifying one Table 2 configuration."""
    return {
        "config": asdict(config),
        "basis_kinds": list(basis_kinds),
        "datasets": list(datasets),
    }


def run_table2(
    config: RegressionConfig | None = None,
    basis_kinds: tuple[str, ...] = ("random", "level", "circular"),
    datasets: tuple[str, ...] = REGRESSION_DATASETS,
    workers: int = 1,
    store: ArtifactStore | None = None,
) -> Mapping[str, Mapping[str, float]]:
    """Regenerate Table 2: MSE per (dataset, basis kind).

    One dataset instance is shared across the basis kinds of a row, so the
    encoding is the only varying factor.  Figure 7 is obtained by
    normalizing each row by its ``"random"`` entry
    (:func:`repro.learning.metrics.normalized_mse`).

    Parameters
    ----------
    workers:
        Fan the independent (dataset, basis) cells out over that many
        forked processes (:func:`~repro.runtime.tree.fan_out`); results
        are bit-identical to the serial run for any worker count.
    store:
        Optional :class:`~repro.runtime.artifacts.ArtifactStore` serving
        repeated identical configurations from the cache.
    """
    config = config or RegressionConfig()

    def compute() -> dict[str, dict[str, float]]:
        splits = {dataset: make_split(dataset, config.seed) for dataset in datasets}
        cells = [(dataset, kind) for dataset in datasets for kind in basis_kinds]
        errors = fan_out(
            lambda cell: run_regression(*cell, config=config, split=splits[cell[0]]).mse,
            cells,
            workers,
        )
        results: dict[str, dict[str, float]] = {dataset: {} for dataset in datasets}
        for (dataset, kind), mse in zip(cells, errors):
            results[dataset][kind] = mse
        return results

    if store is None:
        return compute()
    params = table2_cache_params(config, tuple(basis_kinds), tuple(datasets))
    return store.fetch("table2", params, compute)
