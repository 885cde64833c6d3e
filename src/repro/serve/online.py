"""Online learning over a live serving pipeline, with atomic checkpoints.

HDC models are natively incremental — training state is a set of integer
:class:`~repro.hdc.packed.BundleAccumulator` tables, so absorbing new
traffic is integer addition, expiring stale traffic is subtraction, and
folding in a replica's accumulated counts is a merge.
:class:`OnlineLearner` packages those three update paths behind the same
record interface the :class:`~repro.serve.engine.InferenceEngine`
serves, and adds crash-safe checkpointing: :meth:`checkpoint` writes the
whole pipeline through :func:`~repro.serve.persist.save_model`'s
write-to-temp-then-``os.replace`` protocol, so a checkpoint file is
always either the previous complete model or the new complete model.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Hashable, Sequence, Union

import numpy as np

from ..exceptions import InvalidParameterError
from ..hdc.packed import BundleAccumulator
from ..learning.classifier import CentroidClassifier
from .engine import InferenceEngine
from .pipeline import TrainedPipeline

__all__ = ["OnlineLearner"]


class OnlineLearner:
    """Incremental updates and checkpointing for a served pipeline.

    Parameters
    ----------
    pipeline:
        The live :class:`~repro.serve.pipeline.TrainedPipeline` (fresh
        or reloaded).  The learner and its engine share the pipeline's
        model object — updates are visible to subsequent predictions
        immediately.
    backend:
        Similarity-kernel backend for the embedded engine's distance
        scans (``"auto"``/``"gemm"``/``"xor"``; ``None`` defers to the
        ``REPRO_KERNEL`` environment variable).

    Example
    -------
    >>> import numpy as np
    >>> from repro.basis import CircularBasis
    >>> from repro.learning import HDRegressor
    >>> from repro.serve import OnlineLearner, TrainedPipeline
    >>> emb = CircularBasis(12, 256, seed=0).circular_embedding(period=12.0)
    >>> model = HDRegressor(emb, seed=1)
    >>> pipe = TrainedPipeline(kind="regression", model=model, embedding=emb)
    >>> learner = OnlineLearner(pipe)
    >>> _ = learner.learn(np.arange(12.0)[:, None], np.arange(12.0))
    >>> learner.num_samples
    12
    """

    def __init__(
        self,
        pipeline: TrainedPipeline,
        backend: str | None = None,
    ) -> None:
        self.engine = InferenceEngine(pipeline, backend=backend)

    def _chunk_encode(self):
        """The picklable encode :meth:`learn_stream` streams through.

        Keyed pipelines get a :class:`~repro.streaming.train.RecordEncode`
        over the engine's encoder — bit-identical to ``engine.encode``,
        since a served pipeline's tie policy is position-free; keyless
        pipelines embed one value column.
        """
        from ..streaming.train import RecordEncode, ValueEncode

        if self.engine._encoder is not None:
            return RecordEncode(self.engine._encoder)
        return ValueEncode(self.pipeline.embedding, 0)

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Close the embedded engine (idempotent)."""
        self.engine.close()

    def __enter__(self) -> "OnlineLearner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def pipeline(self) -> TrainedPipeline:
        """The live pipeline being updated and served."""
        return self.engine.pipeline

    @property
    def num_samples(self) -> int:
        """Net training samples currently in the model."""
        return self.pipeline.model.num_samples

    # -- updates ---------------------------------------------------------------
    def _check_targets(self, targets: Sequence, n: int) -> list:
        targets = list(targets)
        if len(targets) != n:
            raise InvalidParameterError(f"got {n} records but {len(targets)} targets")
        return targets

    def learn(
        self, features: Any, targets: Union[Sequence[Hashable], np.ndarray]
    ) -> "OnlineLearner":
        """Encode records and add them to the model (incremental fit).

        ``targets`` are class labels for classification pipelines and
        float values for regression pipelines.  A thin wrapper over the
        model's canonical
        :meth:`~repro.learning.classifier.CentroidClassifier.partial_fit`
        reducer with one chunk: the update is a pure accumulator
        addition — O(d) per class/model, independent of how much traffic
        was absorbed before, and bit-identical to batch-training on the
        same records.  Returns ``self``.
        """
        encoded = self.engine.encode(features)
        targets = self._check_targets(targets, encoded.shape[0])
        model = self.pipeline.model
        if isinstance(model, CentroidClassifier):
            model.partial_fit([(encoded, targets)])
        else:
            model.partial_fit([(encoded, np.asarray(targets, dtype=np.float64))])
        return self

    def forget(
        self, features: Any, targets: Union[Sequence[Hashable], np.ndarray]
    ) -> "OnlineLearner":
        """Encode records and subtract them from the model.

        The exact inverse of :meth:`learn` on the same records: bundle
        counts are integers, so a learn/forget pair restores the model
        bit for bit.  Use it to expire stale or revoked traffic from a
        live model without retraining.  Returns ``self``.
        """
        encoded = self.engine.encode(features)
        targets = self._check_targets(targets, encoded.shape[0])
        model = self.pipeline.model
        if isinstance(model, CentroidClassifier):
            model.forget(encoded, targets)
        else:
            model.forget(encoded, np.asarray(targets, dtype=np.float64))
        return self

    def absorb(
        self, shard: Union[dict[Hashable, BundleAccumulator], BundleAccumulator]
    ) -> "OnlineLearner":
        """Merge pre-aggregated bundle statistics into the model.

        ``shard`` is what a sibling replica produced with
        :meth:`~repro.learning.classifier.CentroidClassifier.shard_counts`
        (a per-class accumulator dict) or
        :meth:`~repro.learning.regression.HDRegressor.shard_bundle` (one
        accumulator).  Integer counts commute, so replicas can train on
        disjoint traffic and fold their statistics into one model in any
        order.  Returns ``self``.  Dispatch lives in
        :func:`repro.learning.merge.absorb_delta` — the same entry point
        the sharded runtime helpers and the ingest cluster merge
        through.
        """
        from ..learning.merge import absorb_delta

        absorb_delta(self.pipeline.model, shard)
        return self

    def learn_stream(
        self,
        source,
        checkpoint: Union[str, os.PathLike, None] = None,
        checkpoint_every: int = 8,
    ):
        """Stream a labelled :class:`~repro.streaming.ChunkSource` in.

        The out-of-core form of :meth:`learn`: every chunk is encoded
        through the serving engine (identical bits to request encoding)
        and reduced into the live model via the canonical
        ``partial_fit`` — memory stays O(chunk) however long the stream
        runs.  With
        ``checkpoint`` set, the pipeline is atomically snapshotted every
        ``checkpoint_every`` chunks (see :meth:`checkpoint`).  Returns
        the :class:`~repro.streaming.StreamStats` of the pass.
        """
        from ..streaming.reduce import encode_reduce

        hook = None
        if checkpoint is not None:
            from ..streaming.train import checkpointer

            hook = checkpointer(self.pipeline, checkpoint, checkpoint_every)
        stats = encode_reduce(
            self.pipeline.model,
            source,
            self._chunk_encode(),
            on_chunk=hook,
        )
        if checkpoint is not None:
            # Final snapshot: the tail chunks past the last interval
            # multiple must not be lost when the stream ends.
            self.checkpoint(checkpoint)
        return stats

    # -- serving passthrough ---------------------------------------------------
    def predict(self, features: Any):
        """Predict through the embedded engine (sees all updates so far)."""
        return self.engine.predict(features)

    # -- checkpointing ---------------------------------------------------------
    def checkpoint(self, path: str | os.PathLike) -> Path:
        """Atomically persist the current pipeline state to ``path``.

        Materialises the model (freezing prototypes and the tie-break
        RNG state into the file) and writes the container to a temporary
        sibling before ``os.replace``-ing it over ``path`` — a reader or
        a crash can never observe a torn checkpoint.  Returns the path.
        """
        from .persist import save_model

        return save_model(self.pipeline, path)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OnlineLearner({self.engine!r}, samples={self.num_samples})"
