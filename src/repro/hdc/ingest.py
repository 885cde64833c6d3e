"""The ingest step of streaming training: encode a chunk, fold it in.

Streaming training (:func:`repro.streaming.reduce.encode_reduce`, the
serving :class:`~repro.serve.OnlineLearner`) absorbs a labelled chunk in
one way: encode its features and hand the encoded batch to the model's
canonical ``partial_fit``.  Bundle counts are integer sums, so the
result is bit-identical to one monolithic ``fit`` for any chunking
(``tests/hdc/test_ingest.py``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["ingest_chunk"]


def ingest_chunk(model, chunk, encode: Callable[[object], object]) -> None:
    """Encode one labelled chunk and fold it into ``model``.

    ``model`` is anything with ``partial_fit`` — a
    :class:`~repro.learning.classifier.CentroidClassifier` or
    :class:`~repro.learning.regression.HDRegressor`.  Label arrays become
    plain Python values, so a streamed classifier's class labels (and
    hence its saved bytes) equal an in-memory one's; a regressor converts
    them back to float64 exactly.
    """
    targets = chunk.targets
    targets = targets.tolist() if isinstance(targets, np.ndarray) else list(targets)
    model.partial_fit([(encode(chunk), targets)])
