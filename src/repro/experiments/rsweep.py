"""The Figure 8 experiment: sweeping the r-hyperparameter.

For every dataset (three classification tasks + two regression tasks) and
every ``r`` in the sweep, run the circular-basis experiment with that
``r`` and report the error *normalized against the random-basis result*
(Section 6.3):

* regression → normalized MSE ``mse(r) / mse_random``,
* classification → normalized accuracy error
  ``(1 − α(r)) / (1 − α_random)``.

At ``r = 1`` a circular set degenerates into a random set, so every curve
approaches 1 there; the paper's finding is the dip below 1 at small
``r > 0``.

This is the heaviest artifact of the paper — ``datasets × (1 + |r|)``
independent experiment cells — and the canonical parallel workload of
the runtime: :func:`run_rsweep` fans the cells out over forked
processes (``workers=``, :func:`~repro.runtime.tree.fan_out`) and every cell
derives its randomness from its config seed alone, so the sweep is
bit-identical to the serial run for any worker count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Mapping, Sequence

from .._rng import ensure_rng
from ..datasets import ClassificationSplit, RegressionSplit, make_jigsaws_like
from ..exceptions import InvalidParameterError
from ..learning.metrics import normalized_accuracy_error, normalized_mse
from ..runtime import ArtifactStore, fan_out
from .classification import run_classification
from .config import ClassificationConfig, RegressionConfig
from .regression import make_regression_split, run_regression

__all__ = ["RSweepResult", "SWEEP_DATASETS", "run_rsweep", "rsweep_cache_params"]

#: The five datasets of Figure 8.
SWEEP_DATASETS = (
    "beijing",
    "mars_express",
    "knot_tying",
    "needle_passing",
    "suturing",
)

_CLASSIFICATION = ("knot_tying", "needle_passing", "suturing")
_REGRESSION = ("beijing", "mars_express")


@dataclass(frozen=True)
class RSweepResult:
    """The Figure 8 data: normalized error per dataset per r-value."""

    r_values: tuple[float, ...]
    normalized_error: Mapping[str, tuple[float, ...]]
    reference: Mapping[str, float]

    def series(self, dataset: str) -> tuple[float, ...]:
        """Normalized-error curve of one dataset, ordered as ``r_values``."""
        return self.normalized_error[dataset]

    def to_payload(self) -> dict:
        """JSON-serialisable form (tuples become lists) for the artifact cache."""
        return {
            "r_values": list(self.r_values),
            "normalized_error": {k: list(v) for k, v in self.normalized_error.items()},
            "reference": dict(self.reference),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "RSweepResult":
        """Inverse of :meth:`to_payload`.

        >>> sweep = RSweepResult((0.0, 1.0), {"beijing": (1.2, 1.0)}, {"beijing": 3.4})
        >>> RSweepResult.from_payload(sweep.to_payload()) == sweep
        True
        """
        return cls(
            r_values=tuple(float(r) for r in payload["r_values"]),
            normalized_error={
                str(k): tuple(float(x) for x in v)
                for k, v in payload["normalized_error"].items()
            },
            reference={str(k): float(v) for k, v in payload["reference"].items()},
        )


def _sweep_cell(
    dataset: str,
    r: float | None,
    classification_config: ClassificationConfig,
    regression_config: RegressionConfig,
    split: ClassificationSplit | RegressionSplit,
) -> float:
    """One sweep cell: raw accuracy/MSE for (dataset, r).

    ``r=None`` is the random-basis reference cell.  Fully self-seeded,
    so its value never depends on which process runs it.
    """
    if dataset in _CLASSIFICATION:
        if r is None:
            return run_classification(
                dataset, "random", config=classification_config, split=split
            ).accuracy
        cfg = replace(classification_config, circular_r=float(r))
        return run_classification(dataset, "circular", config=cfg, split=split).accuracy
    if r is None:
        return run_regression(
            dataset, "random", config=regression_config, split=split
        ).mse
    cfg = replace(regression_config, circular_r=float(r))
    return run_regression(dataset, "circular", config=cfg, split=split).mse


def rsweep_cache_params(
    r_values: Sequence[float],
    datasets: Sequence[str],
    classification_config: ClassificationConfig,
    regression_config: RegressionConfig,
) -> dict:
    """The content-hash key identifying one Figure 8 sweep configuration."""
    return {
        "r_values": [float(r) for r in r_values],
        "datasets": list(datasets),
        "classification_config": asdict(classification_config),
        "regression_config": asdict(regression_config),
    }


def run_rsweep(
    r_values: Sequence[float] = (0.0, 0.01, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0),
    datasets: Sequence[str] = SWEEP_DATASETS,
    classification_config: ClassificationConfig | None = None,
    regression_config: RegressionConfig | None = None,
    workers: int = 1,
    store: ArtifactStore | None = None,
) -> RSweepResult:
    """Regenerate Figure 8.

    Each dataset is generated once and shared across the sweep, and the
    random-basis reference is computed once per dataset, so the curves
    isolate the effect of ``r``.

    Parameters
    ----------
    workers:
        Fan the ``len(datasets) × (1 + len(r_values))`` independent
        cells out over that many forked processes
        (:func:`~repro.runtime.tree.fan_out`).  Every cell seeds itself
        from its config, so the sweep is **bit-identical to the serial
        run for any worker count**.
    store:
        Optional :class:`~repro.runtime.artifacts.ArtifactStore`; an
        identical earlier sweep is served from the cache without
        recomputation.

    Example
    -------
    >>> cfg_c = ClassificationConfig(dim=128, seed=5)
    >>> cfg_r = RegressionConfig(dim=128, seed=5)
    >>> sweep = run_rsweep((0.1, 1.0), datasets=("mars_express",),
    ...                    classification_config=cfg_c, regression_config=cfg_r)
    >>> sweep.r_values
    (0.1, 1.0)
    >>> len(sweep.series("mars_express"))
    2
    """
    if not r_values:
        raise InvalidParameterError("need at least one r value")
    for r in r_values:
        if not 0.0 <= r <= 1.0:
            raise InvalidParameterError(f"r values must lie in [0, 1], got {r}")
    classification_config = classification_config or ClassificationConfig()
    regression_config = regression_config or RegressionConfig()
    for dataset in datasets:
        if dataset not in SWEEP_DATASETS:
            raise InvalidParameterError(
                f"unknown dataset {dataset!r}; expected one of {SWEEP_DATASETS}"
            )

    params = rsweep_cache_params(
        r_values, datasets, classification_config, regression_config
    )
    if store is not None:
        cached = store.load("rsweep", params)
        if cached is not None:
            return RSweepResult.from_payload(cached)

    # Generate every split up front (deterministic from the config seeds),
    # then flatten the whole sweep — reference cells included — into one
    # task list for the fan-out.
    splits: dict[str, ClassificationSplit | RegressionSplit] = {}
    for dataset in datasets:
        if dataset in _CLASSIFICATION:
            data_rng = ensure_rng(classification_config.seed).spawn(4)[0]
            splits[dataset] = make_jigsaws_like(task=dataset, seed=data_rng)
        else:
            splits[dataset] = make_regression_split(dataset, regression_config)

    cells = [(dataset, r) for dataset in datasets for r in (None, *r_values)]
    raw = fan_out(
        lambda cell: _sweep_cell(
            *cell, classification_config, regression_config, splits[cell[0]]
        ),
        cells,
        workers,
    )
    results: dict[tuple[str, float | None], float] = dict(zip(cells, raw))
    curves: dict[str, tuple[float, ...]] = {}
    references: dict[str, float] = {}
    for dataset in datasets:
        reference = results[(dataset, None)]
        references[dataset] = reference
        if dataset in _CLASSIFICATION:
            series = [
                normalized_accuracy_error(results[(dataset, float(r))], reference)
                for r in r_values
            ]
        else:
            series = [
                normalized_mse(results[(dataset, float(r))], reference)
                for r in r_values
            ]
        curves[dataset] = tuple(series)
    sweep = RSweepResult(
        r_values=tuple(float(r) for r in r_values),
        normalized_error=curves,
        reference=references,
    )
    if store is not None:
        store.store("rsweep", params, sweep.to_payload())
    return sweep
