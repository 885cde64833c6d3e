"""Span recording around the calls into each layer's public functions.

The traced runs install these wrappers in the program's own processes
(the server launcher and the training child) before the program runs.
Each wrapper replaces a public function *at the name its caller looks
up* -- a class attribute for methods, the importing module's global for
functions imported by name -- records ``(id, name, start, end, parent,
tag)`` and calls through unchanged.  Spans stay in memory and are written
out as JSON when the process ends.

Times come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux), which is
shared by every process on the host, so server spans line up with the
client's request timestamps.

Synchronous spans find their parent on a per-thread stack.  Coroutine
spans (``MicroBatcher.submit``) interleave on one thread, so they get no
parent; the analysis ties them to requests by the value hash of the row they
carry and by time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable

import numpy as np

now = time.monotonic


def row_key(row: Any) -> int:
    """Cross-process key of one feature row.

    Python hashes floats and tuples of floats by value with no per-process
    salt (only ``str``/``bytes`` hashing is salted), so the client and the
    server compute the same key for the same row.
    """
    return hash(tuple(float(v) for v in row))


class Recorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, tag: Callable | None = None) -> Callable:
        """A synchronous wrapper recording one span per call.

        ``tag(args, kwargs, result)`` may attach a small plain value to the
        span.  Tags are computed at once: holding on to request objects
        would grow the traced process and the work of its garbage collector.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = now()
                stack.pop()
                value = tag(args, kwargs, result) if tag is not None else None
                self.spans.append((span_id, name, start, end, parent, value))

        return traced

    def wrap_async(self, name: str, fn: Callable, tag: Callable | None = None) -> Callable:
        """A coroutine wrapper recording one parentless span per call."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            span_id = next(self._ids)
            start = now()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = now()
                value = tag(args, kwargs, None) if tag is not None else None
                self.spans.append((span_id, name, start, end, -1, value))

        return traced

    def patch(self, owner: Any, attr: str, name: str, tag: Callable | None = None,
              is_async: bool = False) -> None:
        """Replace ``owner.attr`` with a traced wrapper named ``name``."""
        wrap = self.wrap_async if is_async else self.wrap
        setattr(owner, attr, wrap(name, getattr(owner, attr), tag))

    def dump(self, path: str) -> None:
        """Write every span as one JSON list."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([list(span) for span in self.spans], fh)


def _submit_tag(args, kwargs, result):
    # The server validated the row as a list of finite numbers (JSON floats).
    return hash(tuple(args[1]))


def _rows_tag(args, kwargs, result):
    return [hash(tuple(row)) for row in np.asarray(args[1], dtype=np.float64).tolist()]


def _bool_tag(args, kwargs, result):
    return bool(result)


def install_serving(rec: Recorder) -> None:
    """Wrap the serving path: batcher, engine, encoder, models, kernels."""
    from repro.basis import base
    from repro.learning import classifier, regression
    from repro.runtime import batch
    from repro.serve import batching, engine

    rec.patch(batching.MicroBatcher, "submit", "serve.batching.submit",
              tag=_submit_tag, is_async=True)
    rec.patch(engine.InferenceEngine, "predict_coalesced",
              "serve.engine.predict_coalesced", tag=_rows_tag)
    _install_model_layers(rec, base, batch, classifier, regression)


def install_training(rec: Recorder) -> None:
    """Wrap the file-streamed training path plus the layers it shares."""
    from repro.basis import base
    from repro.hdc import ingest
    from repro.learning import classifier, regression
    from repro.runtime import batch
    from repro.serve import persist
    from repro.streaming import files, reduce, train

    source_factory = files.file_chunk_source
    prefetch = reduce.prefetch_chunks

    def traced_source(*args, **kwargs):
        return _TracedSource(rec, source_factory(*args, **kwargs))

    def traced_prefetch(*args, **kwargs):
        return _timed_pulls(rec, "streaming.reduce.prefetch_wait", prefetch(*args, **kwargs))

    files.file_chunk_source = traced_source
    reduce.prefetch_chunks = traced_prefetch
    rec.patch(ingest, "ingest_chunk", "hdc.ingest.ingest_chunk", tag=_bool_tag)
    rec.patch(classifier.CentroidClassifier, "partial_fit",
              "learning.classifier.partial_fit")
    rec.patch(persist, "save_model", "serve.persist.save_model")
    rec.patch(train, "stream_score_classifier", "streaming.train.stream_score_classifier")
    rec.patch(reduce, "majority_from_counts", "hdc.ops.majority_from_counts")
    rec.patch(classifier, "majority_from_counts", "hdc.ops.majority_from_counts")
    _install_model_layers(rec, base, batch, classifier, regression)


def _install_model_layers(rec: Recorder, base, batch, classifier, regression) -> None:
    rec.patch(batch.BatchEncoder, "encode", "runtime.batch.encode")
    rec.patch(batch.BatchEncoder, "indices", "runtime.batch.indices")
    rec.patch(batch.BatchEncoder, "chunk_counts", "runtime.batch.chunk_counts")
    rec.patch(batch, "majority_from_counts", "hdc.ops.majority_from_counts")
    rec.patch(base.Embedding, "encode_packed", "basis.embedding.encode_packed")
    rec.patch(classifier.CentroidClassifier, "predict", "learning.classifier.predict")
    rec.patch(regression.HDRegressor, "predict", "learning.regression.predict")
    rec.patch(classifier, "pairwise_hamming", "hdc.kernels.pairwise_hamming")
    rec.patch(regression, "pairwise_hamming", "hdc.kernels.pairwise_hamming")


class _TracedSource:
    """A chunk source whose every pull is one ``streaming.files.pull`` span."""

    def __init__(self, rec: Recorder, source: Any) -> None:
        self._rec = rec
        self._source = source

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._source, attr)

    def __iter__(self):
        return _timed_pulls(self._rec, "streaming.files.pull", iter(self._source))


def _timed_pulls(rec: Recorder, name: str, iterator):
    """Yield from ``iterator``, recording each ``next`` as one span."""
    pull = rec.wrap(name, functools.partial(next, iterator))
    try:
        while True:
            try:
                item = pull()
            except StopIteration:
                return
            yield item
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()
