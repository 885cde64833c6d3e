"""Online inference: load a model once, answer predict calls forever.

:class:`InferenceEngine` is the serving counterpart of the experiment
drivers: it wraps a :class:`~repro.serve.pipeline.TrainedPipeline`
(either freshly trained or reloaded via
:func:`~repro.serve.persist.load_model`), builds its frozen predict state
once at start-up, and then answers single-record and micro-batched
predict calls.  There are two predict shapes:

* **key–value pipelines** encode each record through the fused-table
  :class:`~repro.runtime.batch.BatchEncoder` and run the model's
  similarity scan on the calling thread.
* **keyless pipelines** quantise their one value to one of the
  embedding's ``m`` levels (``φ(x) = B[index(x)]``), so the answer is a
  pure function of the level index.  The engine pushes the ``m`` packed
  basis rows through the model's own ``predict`` once and answers every
  later call by indexing that per-level table — the same bytes the
  encode-then-scan path returns.  The table is derived state: it is
  never persisted and is rebuilt lazily whenever the model's
  :attr:`~repro.learning.regression.HDRegressor.version` moves (online
  ``learn``/``forget``/``absorb``).

Because a served pipeline breaks request-encoding ties with a
position-free policy, the engine is stateless across requests: the same
record always yields the same hypervector and therefore the same
prediction — whether it arrives alone, inside a batch, today or from a
reloaded replica next year.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Hashable, Union

import numpy as np

from ..exceptions import EmptyModelError, InvalidParameterError
from ..hdc.kernels import resolve_backend
from ..hdc.packed import PackedHV
from ..runtime.batch import BatchEncoder
from .pipeline import TrainedPipeline

__all__ = ["InferenceEngine"]


class InferenceEngine:
    """Encode-then-predict serving loop over a trained pipeline.

    Parameters
    ----------
    pipeline:
        The :class:`~repro.serve.pipeline.TrainedPipeline` to serve.
    backend:
        Similarity-kernel backend for the distance scans
        (:mod:`repro.hdc.kernels`): ``"auto"`` (default via the
        ``REPRO_KERNEL`` environment variable), ``"gemm"`` or ``"xor"``.
        Under ``"auto"`` every micro-batch picks the kernel for its own
        size — a single record scans with XOR + popcount, a large batch
        rides one BLAS product — and every choice is bit-identical.

    The engine is a context manager (:meth:`close` on exit marks it
    closed for the registry's drain) but can also be used without
    ``with``.

    Example
    -------
    >>> import numpy as np
    >>> from repro.basis import CircularBasis
    >>> from repro.learning import HDRegressor
    >>> from repro.serve import InferenceEngine, TrainedPipeline
    >>> emb = CircularBasis(24, 512, seed=0).circular_embedding(period=24.0)
    >>> hours = np.arange(24.0)
    >>> model = HDRegressor(emb, seed=1).fit(emb.encode_packed(hours), hours)
    >>> pipe = TrainedPipeline(kind="regression", model=model, embedding=emb)
    >>> engine = InferenceEngine(pipe)
    >>> float(engine.predict_one([13.0]))
    13.0
    """

    def __init__(self, pipeline: TrainedPipeline, backend: str | None = None) -> None:
        self.pipeline = pipeline
        # Resolve eagerly so a typo'd backend (or REPRO_KERNEL value)
        # fails at construction, not on the first mid-stream request.
        self.backend = resolve_backend(backend)
        self._closed = False
        if pipeline.keys is not None:
            self._encoder: BatchEncoder | None = BatchEncoder(
                pipeline.keys, pipeline.embedding, tie_break=pipeline.tie_break
            )
        else:
            self._encoder = None
        # Keyless pipelines: (model version, per-level answers).
        self._table: tuple[int, Any] | None = None
        self._table_lock = threading.Lock()
        try:
            if self._encoder is None:
                self._level_answers()
            else:
                pipeline.model.prepare()
        except EmptyModelError:
            # An untrained pipeline (OnlineLearner bootstrap) has nothing
            # to materialise yet; the first post-training predict will.
            pass

    @classmethod
    def from_path(
        cls, path: str | os.PathLike, backend: str | None = None
    ) -> "InferenceEngine":
        """Load a saved pipeline (``save_model`` output) and wrap it.

        The one-time cost — reading the container, unpacking the basis
        table, building the fused encode table (key–value pipelines) or
        the per-level answer table (keyless pipelines) — is paid here;
        a keyed :meth:`predict` call then touches only packed kernels,
        and a keyless one is a quantise plus a table lookup.
        """
        from .persist import load_model

        pipeline = load_model(path)
        if not isinstance(pipeline, TrainedPipeline):
            raise InvalidParameterError(
                f"{path} holds a {type(pipeline).__name__}, not a TrainedPipeline; "
                "wrap bare models in a pipeline to serve them"
            )
        return cls(pipeline, backend=backend)

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Mark the engine closed (idempotent)."""
        self._closed = True

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (the registry's drain marker)."""
        return self._closed

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection ---------------------------------------------------------
    @property
    def kind(self) -> str:
        """``"classification"`` or ``"regression"``."""
        return self.pipeline.kind

    @property
    def num_features(self) -> int:
        """Features each request record must carry."""
        return self.pipeline.num_features

    # -- serving ---------------------------------------------------------------
    def _as_batch(self, features: Any) -> np.ndarray:
        arr = np.asarray(features, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.num_features:
            raise InvalidParameterError(
                f"expected records of {self.num_features} feature(s), "
                f"got shape {np.asarray(features).shape}"
            )
        return arr

    def encode(self, features: Any) -> PackedHV:
        """Encode raw feature records to packed hypervectors.

        ``features`` is one record ``(k,)`` or a micro-batch ``(n, k)``;
        the result is always a packed ``(n, d)`` batch.  Deterministic,
        and row by row independent of the batch: the pipeline's tie
        policy is position-free.
        """
        batch = self._as_batch(features)
        if self._encoder is not None:
            return self._encoder.encode(batch, packed=True)
        return self.pipeline.embedding.encode_packed(batch[:, 0])

    def _level_answers(self) -> Union[list[Hashable], np.ndarray]:
        """A keyless pipeline's answer for each of its ``m`` input levels.

        ``model.predict(basis.packed)`` after ``model.prepare()``: row
        ``i`` is exactly what ``model.predict`` returns for any value
        quantised to level ``i`` (every predict path scores each row
        independently of its batch).  Cached against the model's
        ``version``, which is read *before* building, so a mutation that
        races the build leaves a stale version behind and the next call
        rebuilds.  ``prepare()`` makes the binary model's tie draws
        first, exactly when the encode-then-scan path would have made
        them.  An empty model raises
        :class:`~repro.exceptions.EmptyModelError` and caches nothing.
        """
        model = self.pipeline.model
        with self._table_lock:
            version = model.version
            if self._table is None or self._table[0] != version:
                model.prepare()
                answers = model.predict(
                    self.pipeline.embedding.basis.packed, backend=self.backend
                )
                self._table = (version, answers)
            return self._table[1]

    def _lookup(self, values: np.ndarray) -> Union[list[Hashable], np.ndarray]:
        """Keyless predict: quantise ``values`` and index the level table."""
        levels = self.pipeline.embedding.indices(values)
        answers = self._level_answers()
        if isinstance(answers, np.ndarray):
            return answers[levels]
        return [answers[i] for i in levels.tolist()]

    def predict(self, features: Any) -> Union[list[Hashable], np.ndarray]:
        """Predict labels (classification) or values (regression).

        Accepts a single record or a micro-batch; always returns the
        batch form (a list of labels, or a float array).  Bit-identical
        for any ``backend`` (under ``"auto"``, each micro-batch picks
        the similarity kernel for its own size).
        Keyless pipelines answer from the per-level table.
        """
        if self._encoder is None:
            return self._lookup(self._as_batch(features)[:, 0])
        return self.pipeline.model.predict(self.encode(features), backend=self.backend)

    def predict_coalesced(self, records: Any) -> list:
        """Predict a coalesced micro-batch, bit-identical to ``predict_one``.

        The serving tier's keystone: concurrent in-flight requests are
        coalesced by the :class:`~repro.serve.batching.MicroBatcher`
        into **one** call here, so the encode and the distance scan run
        as single kernel invocations (one BLAS product under ``"auto"``
        for large batches) instead of one per request — yet every row of
        the answer is exactly what a sequential ``predict_one`` would
        have returned for that record: keyless pipelines index the
        per-level answer table, and key–value pipelines batch-encode
        under a position-free tie policy, so no record's encoding
        depends on its neighbours.

        Returns a plain list of per-record labels/values (scalars), in
        request order.
        """
        batch = self._as_batch(records)
        if batch.shape[0] == 0:
            return []
        if self._encoder is None:
            return list(self._lookup(batch[:, 0]))
        return list(self.pipeline.model.predict(self.encode(batch), backend=self.backend))

    def predict_one(self, record: Any) -> Any:
        """Predict for exactly one record; returns a scalar label/value.

        The single-record path: checks the record is one ``(k,)`` row,
        encodes it as a one-row batch and predicts inline — under
        ``"auto"`` a one-row scan always lands on the XOR kernel; a
        keyless record is one quantise and one per-level table lookup.
        The answer is bit-identical to ``predict([record])[0]``
        (asserted in ``tests/serve/test_engine.py``); the per-call
        latency is measured by ``benchmarks/bench_serve_latency.py``.
        """
        arr = np.asarray(record, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] != self.num_features:
            raise InvalidParameterError(
                f"predict_one takes a single ({self.num_features},) record, "
                f"got shape {arr.shape}"
            )
        if self._encoder is None:
            return self._lookup(arr[:1])[0]
        return self.pipeline.model.predict(self.encode(arr), backend=self.backend)[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InferenceEngine(kind={self.kind!r}, dim={self.pipeline.dim}, "
            f"features={self.num_features}, backend={self.backend!r})"
        )
