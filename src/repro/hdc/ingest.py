"""The ingest step of streaming training: encode a chunk, fold it in.

Streaming training absorbs a labelled chunk in one way: encode its
features and hand the encoded batch to the model's canonical
``partial_fit``, which is ``absorb(shard(...))`` — the same two methods
the ingest cluster splits across processes.  :func:`ingest_chunk` is
that step for one chunk, in one call;
:func:`repro.streaming.reduce.encode_reduce` (hence the serving
:class:`~repro.serve.OnlineLearner`) makes the same two calls but runs
each chunk's encode on its prefetch thread, one chunk ahead of the
``partial_fit``.  Bundle counts are integer sums, so the result is
bit-identical to one monolithic ``fit`` for any chunking
(``tests/hdc/test_ingest.py``).
"""

from __future__ import annotations

from typing import Callable

__all__ = ["ingest_chunk"]


def ingest_chunk(model, chunk, encode: Callable[[object], object]) -> None:
    """Encode one labelled chunk and fold it into ``model``.

    ``model`` is anything with ``partial_fit`` — a
    :class:`~repro.learning.classifier.CentroidClassifier` or
    :class:`~repro.learning.regression.HDRegressor`.  The chunk's targets
    pass through as they are: the model normalises them (class labels to
    plain Python values, regression targets to float64).
    """
    model.partial_fit([(encode(chunk), chunk.targets)])
