"""Experiment drivers: one entry point per table/figure of the paper.

* :func:`~repro.experiments.classification.run_table1` — Table 1,
* :func:`~repro.experiments.regression.run_table2` — Table 2 (Figure 7 is
  the same data normalized),
* :func:`~repro.experiments.rsweep.run_rsweep` — Figure 8,
* :mod:`repro.analysis.similarity` — Figures 3 and 6 data.

Run from the command line with ``python -m repro.experiments <target>``.

Every table/sweep driver accepts ``workers=`` (independent cells fanned
out over forked processes by :func:`~repro.runtime.tree.fan_out`,
bit-identical to the serial run) and ``store=`` (an
:class:`~repro.runtime.artifacts.ArtifactStore` serving repeated
identical configurations from a content-addressed cache); the CLI maps
these to ``--workers`` and ``--no-cache``/``--cache-dir``.
"""

from .classification import (
    BASIS_KINDS,
    ClassificationResult,
    encode_angular_records,
    run_classification,
    run_table1,
    table1_cache_params,
)
from .config import DEFAULT_DIMENSION, ClassificationConfig, RegressionConfig
from .regression import (
    REGRESSION_DATASETS,
    RegressionResult,
    make_regression_split,
    run_beijing,
    run_mars_express,
    run_regression,
    run_table2,
    table2_cache_params,
)
from .rsweep import SWEEP_DATASETS, RSweepResult, run_rsweep, rsweep_cache_params

__all__ = [
    "BASIS_KINDS",
    "REGRESSION_DATASETS",
    "SWEEP_DATASETS",
    "DEFAULT_DIMENSION",
    "ClassificationConfig",
    "RegressionConfig",
    "ClassificationResult",
    "RegressionResult",
    "RSweepResult",
    "encode_angular_records",
    "run_classification",
    "run_table1",
    "run_beijing",
    "run_mars_express",
    "run_regression",
    "run_table2",
    "run_rsweep",
    "make_regression_split",
    "table1_cache_params",
    "table2_cache_params",
    "rsweep_cache_params",
]
