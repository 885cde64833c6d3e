"""The one merge entry point for distributed/parallel training deltas.

Every scale-out training path in the repository — replica absorption
in online serving (:class:`repro.serve.OnlineLearner`) and the
multi-process ingest cluster (:mod:`repro.cluster`) — reduces to the
same two steps:

* compute a **delta**: the pure per-shard bundle statistics of a slice
  of training data (:func:`shard_delta`), leaving the model untouched;
* **absorb** it: fold the delta into a model's accumulators
  (:func:`absorb_delta`), which is integer addition and therefore
  commutes.

The per-type implementations live on the models themselves
(:meth:`~repro.learning.classifier.CentroidClassifier.shard_counts` /
:meth:`~repro.learning.classifier.CentroidClassifier.absorb_counts` and
:meth:`~repro.learning.regression.HDRegressor.shard_bundle` /
:meth:`~repro.learning.regression.HDRegressor.absorb`); this module is
the single type dispatch over them, so no caller re-implements the
"classifier deltas are dicts, regressor deltas are accumulators" rule.

One order-sensitivity caveat, load-bearing for bit-identity: classifier
*counts* commute, but the classifier's class insertion order (which
decides nearest-class ties) is first-seen order — so a coordinator that
wants bitwise equality with a serial fit must absorb deltas in sample
order.  :func:`absorb_delta` applies whatever it is given; ordering is
the caller's contract (see :mod:`repro.cluster.coordinator`).
"""

from __future__ import annotations

from typing import Hashable, Sequence, Union

import numpy as np

from ..exceptions import InvalidParameterError
from ..hdc.coerce import EncodedBatch
from ..hdc.packed import BundleAccumulator
from .classifier import CentroidClassifier
from .regression import HDRegressor

__all__ = ["Delta", "shard_delta", "absorb_delta"]

#: A training delta: per-class accumulators (classification) or one
#: bundle accumulator (regression).
Delta = Union[dict[Hashable, BundleAccumulator], BundleAccumulator]


def shard_delta(
    model: Union[CentroidClassifier, HDRegressor],
    encoded: EncodedBatch,
    targets: Union[Sequence[Hashable], np.ndarray],
) -> Delta:
    """Pure bundle statistics of one training slice for ``model``'s type.

    Dispatches to
    :meth:`~repro.learning.classifier.CentroidClassifier.shard_counts`
    or :meth:`~repro.learning.regression.HDRegressor.shard_bundle`; the
    model is only consulted for its type and dimensionality and is never
    mutated, so workers can compute deltas on a clone and ship them to
    whoever owns the real model.

    >>> import numpy as np
    >>> clf = CentroidClassifier(dim=8, tie_break="zeros")
    >>> delta = shard_delta(clf, np.eye(8, dtype=np.uint8), [0, 1] * 4)
    >>> sorted(delta), clf.num_samples        # pure: clf untouched
    ([0, 1], 0)
    """
    if isinstance(model, CentroidClassifier):
        return model.shard_counts(encoded, targets)
    if isinstance(model, HDRegressor):
        return model.shard_bundle(encoded, np.asarray(targets, dtype=np.float64))
    raise InvalidParameterError(
        f"no shard_delta dispatch for {type(model).__name__}; supported: "
        "CentroidClassifier, HDRegressor"
    )


def absorb_delta(
    model: Union[CentroidClassifier, HDRegressor], delta: Delta
) -> Union[CentroidClassifier, HDRegressor]:
    """Fold a :func:`shard_delta` result into ``model``; returns ``model``.

    Validates that the delta's shape matches the model family —
    classification pipelines absorb ``{label: BundleAccumulator}``
    dicts, regression pipelines absorb a single
    :class:`~repro.hdc.packed.BundleAccumulator` — then merges via the
    model's own absorb method (integer addition; dimension mismatches
    raise :class:`~repro.exceptions.DimensionMismatchError` there).

    >>> import numpy as np
    >>> x = np.eye(8, dtype=np.uint8)
    >>> serial = CentroidClassifier(dim=8, tie_break="zeros").fit(x, [0, 1] * 4)
    >>> merged = CentroidClassifier(dim=8, tie_break="zeros")
    >>> _ = absorb_delta(merged, shard_delta(merged, x[:5], [0, 1, 0, 1, 0]))
    >>> _ = absorb_delta(merged, shard_delta(merged, x[5:], [1, 0, 1]))
    >>> bool(np.array_equal(merged.class_vector(0), serial.class_vector(0)))
    True
    """
    if isinstance(model, CentroidClassifier):
        if not isinstance(delta, dict):
            raise InvalidParameterError(
                "classification models absorb {label: BundleAccumulator} "
                f"deltas, got {type(delta).__name__}"
            )
        return model.absorb_counts(delta)
    if isinstance(model, HDRegressor):
        if not isinstance(delta, BundleAccumulator):
            raise InvalidParameterError(
                "regression models absorb a BundleAccumulator delta, "
                f"got {type(delta).__name__}"
            )
        return model.absorb(delta)
    raise InvalidParameterError(
        f"no absorb_delta dispatch for {type(model).__name__}; supported: "
        "CentroidClassifier, HDRegressor"
    )
