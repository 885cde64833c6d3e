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

from .. import _lazy

_EXPORTS = {
    "BASIS_KINDS": "config",
    "REGRESSION_DATASETS": "regression",
    "SWEEP_DATASETS": "rsweep",
    "DEFAULT_DIMENSION": "config",
    "ClassificationConfig": "config",
    "RegressionConfig": "config",
    "ClassificationResult": "classification",
    "RegressionResult": "regression",
    "RSweepResult": "rsweep",
    "encode_angular_records": "classification",
    "run_classification": "classification",
    "run_table1": "classification",
    "run_beijing": "regression",
    "run_mars_express": "regression",
    "run_regression": "regression",
    "run_table2": "regression",
    "run_rsweep": "rsweep",
    "make_regression_split": "regression",
    "table1_cache_params": "classification",
    "table2_cache_params": "regression",
    "rsweep_cache_params": "rsweep",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_namespace(__name__, _EXPORTS)
