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

from .baselines import KNNBaseline, NearestCentroidBaseline, TrigRegressionBaseline
from .classifier import CentroidClassifier
from .metrics import (
    accuracy,
    confusion_matrix,
    mean_absolute_error,
    mean_squared_error,
    normalized_accuracy_error,
    normalized_mse,
    root_mean_squared_error,
)
from .regression import HDRegressor

__all__ = [
    "CentroidClassifier",
    "HDRegressor",
    "NearestCentroidBaseline",
    "KNNBaseline",
    "TrigRegressionBaseline",
    "accuracy",
    "confusion_matrix",
    "mean_squared_error",
    "root_mean_squared_error",
    "mean_absolute_error",
    "normalized_mse",
    "normalized_accuracy_error",
]
