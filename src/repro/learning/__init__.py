"""Learning with HDC: the Section 2.2/2.3 frameworks plus metrics.

* :class:`~repro.learning.classifier.CentroidClassifier` — class-vector
  classification,
* :class:`~repro.learning.regression.HDRegressor` — bind–bundle–cleanup
  regression,
* :mod:`~repro.learning.metrics` — accuracy, MSE and the paper's
  normalized metrics (Section 6.3),
* :mod:`~repro.learning.baselines` — classical baselines anchoring the
  synthetic workloads.
"""

from .. import _lazy

_EXPORTS = {
    "CentroidClassifier": "classifier",
    "HDRegressor": "regression",
    "NearestCentroidBaseline": "baselines",
    "KNNBaseline": "baselines",
    "TrigRegressionBaseline": "baselines",
    "accuracy": "metrics",
    "confusion_matrix": "metrics",
    "mean_squared_error": "metrics",
    "root_mean_squared_error": "metrics",
    "mean_absolute_error": "metrics",
    "normalized_mse": "metrics",
    "normalized_accuracy_error": "metrics",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_namespace(__name__, _EXPORTS)
