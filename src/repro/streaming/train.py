"""Out-of-core training drivers: chunk sources in, served pipelines out.

The glue between the streaming core (:mod:`repro.streaming.reduce`) and
the product surfaces: typed ``stream_fit`` / ``stream_score`` drivers
for both model families, and :func:`train_pipeline_stream`, the
``train --stream`` CLI's engine.  It builds a task's pipeline with the
same builder as :func:`repro.experiments.serving.train_pipeline`
(:mod:`repro.experiments.config`) but trains it from a
:class:`~repro.streaming.ChunkSource`, so the training set never has to
fit in RAM, and can drop an atomic checkpoint every few chunks while it
runs.

Checkpoints written here carry a **resume cursor** (see
:func:`repro.serve.persist.save_model`): the absorbed chunk frontier
and the model's tie-break RNG state.  ``train
--stream --resume`` reloads the checkpoint, restores the RNG, skips the
already-absorbed chunks (:func:`~repro.streaming.chunks.skip_chunks`)
and streams the rest — landing on the same final bytes as an
uninterrupted run.  With ``cluster_workers > 1`` the encode+reduce pass
is sharded across worker processes by
:class:`~repro.cluster.ClusterCoordinator` (same bytes again, for any
worker count or crash schedule).
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from ..basis.base import Embedding
from ..exceptions import InvalidParameterError, ModelFormatError
from ..learning.classifier import CentroidClassifier
from ..learning.metrics import mean_squared_error
from ..learning.regression import HDRegressor
from ..runtime.batch import BatchEncoder
from .chunks import DEFAULT_CHUNK_ROWS, Chunk, ChunkSource, skip_chunks
from .reduce import StreamStats, encode_reduce
from .sources import JigsawsStream, MarsExpressStream

__all__ = [
    "CURSOR_VERSION",
    "RecordEncode",
    "ValueEncode",
    "checkpointer",
    "stream_fit_classifier",
    "stream_fit_regressor",
    "stream_score_classifier",
    "stream_score_regressor",
    "train_pipeline_stream",
]

#: Schema revision of the checkpoint resume cursor written by
#: :func:`train_pipeline_stream` (stored under the manifest's
#: ``cursor`` key — see :func:`repro.serve.persist.save_model`).
#: Version 2 dropped version 1's per-worker replay map, which always
#: equalled what the chunk frontier derives; resume reads both versions
#: and ignores that extra key.
CURSOR_VERSION = 2

#: Cursor versions :func:`train_pipeline_stream` can resume from.
_READABLE_CURSOR_VERSIONS = (1, CURSOR_VERSION)

#: What :func:`train_pipeline_stream` accepts as ``ingest``: every name
#: runs the one ingest path.  Kept because ``perfbench/train_child.py``
#: passes ``"ref"`` and ``"auto"``.
_INGEST_NAMES = (None, "auto", "ref")


class _CountingSource:
    """Pass-through ChunkSource that tallies the rows it yields."""

    def __init__(self, source: ChunkSource) -> None:
        self.source = source
        self.rows = 0

    def __iter__(self):
        for chunk in self.source:
            self.rows += chunk.rows
            yield chunk


@dataclass
class RecordEncode:
    """Per-chunk encode for record streams (classification).

    Wraps :meth:`~repro.runtime.batch.BatchEncoder.encode` with the
    chunk's absolute ``start`` as the tie-coin position key, so the
    encode of any row is independent of chunking, process, and worker
    count.
    """

    encoder: BatchEncoder
    seed: Union[int, None] = 0

    def __call__(self, chunk: Chunk):
        return self.encoder.encode(
            chunk.features, seed=self.seed, start=chunk.start, packed=True
        )


@dataclass
class ValueEncode:
    """Per-chunk encode for value streams (regression).

    Embeds one feature ``column`` of each chunk through the value basis
    — a pure embedding gather with no tie randomness, so it is trivially
    chunking- and process-independent.
    """

    embedding: Embedding
    column: int = 0

    def __call__(self, chunk: Chunk):
        return self.embedding.encode_packed(
            np.asarray(chunk.features, dtype=np.float64)[:, self.column]
        )


def stream_fit_classifier(
    classifier: CentroidClassifier,
    encoder: BatchEncoder,
    source: ChunkSource,
    seed: Union[int, None] = 0,
    on_chunk: Callable[[StreamStats], None] | None = None,
    stats: StreamStats | None = None,
) -> StreamStats:
    """Train a centroid classifier from a chunk stream, O(chunk) memory.

    Each chunk is encoded with ``encoder.encode(..., start=chunk.start)``
    (position-keyed ties under ``seed``) and reduced straight into the
    classifier's accumulators — **bit-identical to a monolithic**
    ``classifier.fit(encoder.encode(all_features, seed=seed), labels)``
    for every chunk size.  ``stats`` pre-seeds the
    accounting for resumed passes.

    >>> import numpy as np
    >>> from repro.basis import CircularBasis
    >>> from repro.streaming import JigsawsStream
    >>> stream = JigsawsStream("knot_tying", seed=0, chunk_size=64)
    >>> from repro.hdc.hypervector import random_hypervectors
    >>> emb = CircularBasis(16, 256, seed=1).circular_embedding(period=2 * np.pi)
    >>> enc = BatchEncoder(random_hypervectors(18, 256, seed=2), emb)
    >>> clf = CentroidClassifier(256, tie_break="zeros")
    >>> stream_fit_classifier(clf, enc, stream).rows
    300
    >>> sorted(clf.classes) == list(range(15))
    True
    """
    return encode_reduce(
        classifier,
        source,
        RecordEncode(encoder, seed),
        on_chunk=on_chunk,
        stats=stats,
    )


def stream_fit_regressor(
    model: HDRegressor,
    embedding: Embedding,
    source: ChunkSource,
    column: int = 0,
    on_chunk: Callable[[StreamStats], None] | None = None,
    stats: StreamStats | None = None,
) -> StreamStats:
    """Train an HD regressor from a chunk stream, O(chunk) memory.

    Single-feature pipelines (the Mars Express shape): ``column`` of
    each chunk is embedded through the value basis and reduced into the
    model bundle — bit-identical to one monolithic ``fit`` for any
    chunking (the embedding gather has no tie randomness at all).

    >>> import numpy as np
    >>> from repro.basis import LevelBasis
    >>> from repro.streaming.chunks import array_chunks
    >>> emb = LevelBasis(8, 64, seed=0).linear_embedding(0.0, 1.0)
    >>> y = np.linspace(0.0, 1.0, 12)
    >>> model = HDRegressor(emb, tie_break="zeros")
    >>> stream_fit_regressor(model, emb, array_chunks(y[:, None], y, chunk_size=5)).rows
    12
    """
    return encode_reduce(
        model,
        source,
        ValueEncode(embedding, column),
        on_chunk=on_chunk,
        stats=stats,
    )


def stream_score_classifier(
    classifier: CentroidClassifier,
    encoder: BatchEncoder,
    source: ChunkSource,
    seed: Union[int, None] = 0,
) -> float:
    """Accuracy over a labelled chunk stream, never materialising it.

    Encodes and predicts chunk by chunk, accumulating the running
    correct count — the held-out metric of a model too big to score in
    one batch.  Equals the in-memory
    :meth:`~repro.learning.classifier.CentroidClassifier.score` on the
    concatenated stream exactly (same encode, same kernel scan, and
    accuracy is a pure count).
    """
    correct = 0
    total = 0
    encode = RecordEncode(encoder, seed)
    for chunk in source:
        if chunk.targets is None:
            raise InvalidParameterError("scoring needs labelled chunks")
        predictions = classifier.predict(encode(chunk))
        labels = np.asarray(chunk.targets).tolist()
        correct += sum(p == t for p, t in zip(predictions, labels))
        total += chunk.rows
    if total == 0:
        raise InvalidParameterError("cannot score an empty stream")
    return correct / total


def stream_score_regressor(
    model: HDRegressor,
    embedding: Embedding,
    source: ChunkSource,
    column: int = 0,
) -> float:
    """Mean squared error over a chunk stream, never materialising it.

    Accumulates per-chunk squared-error sums; equals the in-memory
    :meth:`~repro.learning.regression.HDRegressor.score` on the
    concatenated stream up to float summation order (documented — the
    chunk partial sums are added in stream order).
    """
    sq_sum = 0.0
    total = 0
    encode = ValueEncode(embedding, column)
    for chunk in source:
        if chunk.targets is None:
            raise InvalidParameterError("scoring needs labelled chunks")
        predictions = model.predict(encode(chunk))
        y = np.asarray(chunk.targets, dtype=np.float64)
        sq_sum += float(mean_squared_error(y, predictions)) * chunk.rows
        total += chunk.rows
    if total == 0:
        raise InvalidParameterError("cannot score an empty stream")
    return sq_sum / total


def checkpointer(
    pipeline,
    path: Union[str, os.PathLike],
    every: int = 1,
    cursor: Callable[[StreamStats], Union[dict, None]] | None = None,
) -> Callable[[StreamStats], None]:
    """An ``on_chunk`` hook that atomically checkpoints the pipeline.

    Every ``every`` reduced chunks the full pipeline (model state
    included) is written through
    :func:`~repro.serve.persist.save_model`'s write-to-temp-then-rename
    protocol, so a crash mid-stream always leaves the last complete
    checkpoint on disk — resume by loading it and streaming the
    remaining chunks.

    The snapshot is a **deep copy** of the live pipeline: serialising a
    model consumes its tie-break RNG (``prepare()`` draws the tie
    coins), so saving the live object would make the final model depend
    on the checkpoint cadence.  Copy-then-save keeps the stream result
    bit-identical whether checkpoints are written never, every chunk,
    or anywhere in between.

    ``cursor`` (optional) is called with the running
    :class:`StreamStats` at each checkpoint and its return value is
    persisted in the manifest's ``cursor`` entry — the replay state
    ``--resume`` and the cluster coordinator restart from.
    """
    if every < 1:
        raise InvalidParameterError(f"checkpoint interval must be positive, got {every}")

    def hook(stats: StreamStats) -> None:
        if stats.chunks % every == 0:
            from ..serve.persist import save_model

            snapshot = copy.deepcopy(pipeline)
            save_model(
                snapshot, path, cursor=cursor(stats) if cursor is not None else None
            )

    return hook


def _compose_hooks(*hooks):
    chain = [hook for hook in hooks if hook is not None]
    if not chain:
        return None
    if len(chain) == 1:
        return chain[0]

    def composed(stats: StreamStats) -> None:
        for hook in chain:
            hook(stats)

    return composed


def _model_rng(model) -> np.random.Generator:
    return model._rng


def _build_cursor(
    kind: str,
    stats: StreamStats,
    chunk_size: int,
    workers: int,
    model,
    config_echo: dict,
) -> dict:
    from ..serve.persist import _rng_state

    return {
        "version": CURSOR_VERSION,
        "kind": kind,
        "chunks": stats.chunks,
        "rows": stats.rows,
        "chunk_size": chunk_size,
        "workers": workers,
        "rng_state": _rng_state(_model_rng(model)),
        "config": config_echo,
    }


def _load_resume_state(checkpoint, config_echo: dict, chunk_size: int):
    """Validate a resume checkpoint; return (pipeline, cursor)."""
    from ..serve.persist import load_checkpoint
    from ..serve.pipeline import TrainedPipeline

    pipeline, cursor = load_checkpoint(checkpoint)
    if not isinstance(pipeline, TrainedPipeline):
        raise InvalidParameterError(
            f"--resume needs a pipeline checkpoint, {checkpoint} holds "
            f"{type(pipeline).__name__}"
        )
    if cursor is None:
        raise ModelFormatError(
            f"{checkpoint} has no resume cursor; it was not written by a "
            "cursor-bearing streaming run"
        )
    version = cursor.get("version")
    if version not in _READABLE_CURSOR_VERSIONS:
        raise ModelFormatError(
            f"{checkpoint} carries cursor version {version!r}; this build "
            f"reads versions {_READABLE_CURSOR_VERSIONS}"
        )
    for key in ("chunks", "rows", "chunk_size", "rng_state"):
        if key not in cursor:
            raise ModelFormatError(
                f"{checkpoint} has a malformed cursor: missing {key!r}"
            )
    stored = cursor.get("config", {})
    if stored != config_echo:
        raise InvalidParameterError(
            f"resume configuration mismatch: checkpoint was trained with "
            f"{stored}, this run asks for {config_echo}"
        )
    if int(cursor["chunk_size"]) != int(chunk_size):
        raise InvalidParameterError(
            f"resume chunk_size mismatch: checkpoint streamed "
            f"{cursor['chunk_size']}-row chunks, this run asks for {chunk_size}"
        )
    return pipeline, cursor


def _restore_model_rng(model, cursor: dict) -> None:
    from ..serve.persist import _restore_rng

    model._rng = _restore_rng(cursor["rng_state"])


def train_pipeline_stream(
    task: str,
    basis_kind: str = "circular",
    config=None,
    stream_samples: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_ROWS,
    checkpoint: Union[str, os.PathLike, None] = None,
    checkpoint_every: int = 8,
    cluster_workers: int = 1,
    resume: bool = False,
    on_chunk: Callable[[StreamStats], None] | None = None,
    cluster_hook: Callable | None = None,
    input_path: Union[str, os.PathLike, None] = None,
    ingest: Union[str, None] = None,
):
    """Train a servable pipeline from a synthetic stream (``train --stream``).

    The out-of-core counterpart of
    :func:`repro.experiments.serving.train_pipeline`: the task's
    pipeline comes from the same builder, with the serve-time
    ``"zeros"`` encode policy and a held-out metric in the metadata,
    but the training split is a
    :class:`~repro.streaming.JigsawsStream` /
    :class:`~repro.streaming.MarsExpressStream` consumed chunk by
    chunk, so ``stream_samples`` can exceed RAM.  With ``checkpoint``
    set, an atomic snapshot of the partially trained pipeline lands
    every ``checkpoint_every`` chunks, with a resume cursor in its
    manifest.

    Parameters
    ----------
    task:
        A gesture task (classification) or ``"mars_express"``.
    stream_samples:
        Total training rows to stream (classification: rounded up to
        whole per-gesture groups).  ``None`` keeps the generator's
        paper-scale default.
    chunk_size:
        Rows per streamed chunk — the memory knob: peak RAM is
        O(chunk), independent of ``stream_samples``.  The streamed
        result is bit-identical for any value.
    cluster_workers:
        Worker *processes* for distributed ingest.  ``1`` (the default)
        trains in-process; any other value shards the stream across a
        :class:`~repro.cluster.ClusterCoordinator` fleet, which checks
        it — the final model is bit-identical for any valid value.
    resume:
        Reload ``checkpoint`` (which must exist and carry a cursor) and
        stream only the chunks past its frontier; the finished model is
        byte-identical to an uninterrupted run.
    on_chunk:
        Extra hook run after every absorbed chunk (after the checkpoint
        hook, in global chunk order) — the crash-simulation seam.
    cluster_hook:
        Fault-injection hook installed into cluster workers
        (see :class:`~repro.cluster.CrashPlan`); test-only.
    input_path:
        Train from a file instead of the synthetic stream: a ``.jsonl``
        or ``.npy`` path opened with
        :func:`~repro.streaming.files.file_chunk_source` (the ``train
        --stream --input PATH`` wiring).  The task still defines the
        embedding/key construction and the held-out scoring stream; the
        file's rows must have the task's feature width.
    ingest:
        ``None``, ``"auto"`` or ``"ref"``; every value runs the one
        ingest path (:func:`~repro.streaming.reduce.encode_reduce`), and
        any other value raises.

    Returns
    -------
    (TrainedPipeline, StreamStats)
        The trained servable pipeline (metadata records the streaming
        provenance) and what the run consumed — a resumed run's stats
        include the replayed checkpoint's chunks.

    Example
    -------
    >>> from repro.experiments.config import ClassificationConfig
    >>> pipe, stats = train_pipeline_stream(
    ...     "suturing", "circular",
    ...     config=ClassificationConfig(dim=256, seed=7), chunk_size=128)
    >>> pipe.kind, stats.rows
    ('classification', 300)
    >>> pipe.metadata["stream"]["chunk_size"]
    128
    """
    # Imported at call time: the builders live a layer up, and perfbench's
    # tracer replaces save_model (like file_chunk_source) on its module.
    from ..experiments.config import (
        build_gesture_pipeline,
        build_mars_pipeline,
        seed_streams,
        task_config,
    )
    from ..serve.persist import save_model

    if ingest not in _INGEST_NAMES:
        raise InvalidParameterError(
            f"ingest must be one of {_INGEST_NAMES}, got {ingest!r}"
        )
    if resume and checkpoint is None:
        raise InvalidParameterError("resume needs a checkpoint path to reload")

    config = task_config(task, config)
    data_seed = np.random.SeedSequence(
        int(seed_streams(config.seed)[0].integers(0, 2**63))
    )
    if task == "mars_express":
        train_stream = MarsExpressStream(
            part="train",
            chunk_size=chunk_size,
            num_samples=stream_samples or 2500,
            seed=data_seed,
        )
        built = build_mars_pipeline(basis_kind, config, train_stream.label_range())
        encode = ValueEncode(built.embedding)
    else:
        per_gesture = None
        if stream_samples is not None:
            per_gesture = max(1, -(-int(stream_samples) // 15))
        train_stream = JigsawsStream(
            task=task,
            part="train",
            chunk_size=chunk_size,
            seed=data_seed,
            samples_per_gesture=per_gesture,
        )
        # Serve-time "zeros" ties: the streamed encode equals the
        # serving engine's encode bit for bit.
        built = build_gesture_pipeline(
            basis_kind, config, train_stream.num_features,
            train_stream.meta["feature_range"],
        )
        encode = RecordEncode(built.encoder, seed=0)
    model = built.model
    test_stream = train_stream.with_part("test")
    pipeline = built.servable(task, basis_kind, config)
    config_echo = {"task": task, "basis_kind": basis_kind, "dim": config.dim,
                   "seed": config.seed, "stream_samples": stream_samples}
    stats = StreamStats()
    ingest_source: ChunkSource = train_stream
    if input_path is not None:
        from .files import file_chunk_source

        ingest_source = file_chunk_source(input_path, chunk_size=chunk_size)
    train_source: ChunkSource = ingest_source
    if resume:
        pipeline, cursor = _load_resume_state(checkpoint, config_echo, chunk_size)
        model = pipeline.model
        _restore_model_rng(model, cursor)
        stats = StreamStats(chunks=int(cursor["chunks"]), rows=int(cursor["rows"]))
        train_source = skip_chunks(ingest_source, stats.chunks)
    coordinator = None
    if cluster_workers != 1:
        # Imported only here: the cluster loads multiprocessing.connection.
        from ..cluster import ClusterCoordinator

        coordinator = ClusterCoordinator(
            model, ingest_source, encode, workers=cluster_workers, hook=cluster_hook
        )

    def cursor_fn(current: StreamStats) -> dict:
        if coordinator is None:
            return _build_cursor("stream", current, chunk_size, 1, model, config_echo)
        return _build_cursor(
            "cluster", current, chunk_size, coordinator.workers, model, config_echo
        )

    hook = _compose_hooks(
        checkpointer(pipeline, checkpoint, checkpoint_every, cursor=cursor_fn)
        if checkpoint is not None
        else None,
        on_chunk,
    )
    if coordinator is None:
        stats = encode_reduce(model, train_source, encode, on_chunk=hook, stats=stats)
    else:
        stats = coordinator.run(on_chunk=hook, start=stats.chunks, stats=stats)
    stream_meta = {"chunk_size": chunk_size, "chunks": stats.chunks,
                   "entropy": train_stream.entropy}
    if input_path is not None:
        stream_meta["input"] = str(input_path)
    if built.kind == "regression":
        # Count the held-out rows on the scoring pass itself — a second
        # pass over the stream would regenerate all the telemetry.
        counted = _CountingSource(test_stream)
        mse = stream_score_regressor(model, built.embedding, counted)
        metric = {"num_test": counted.rows, "test_mse": float(mse)}
    else:
        acc = stream_score_classifier(model, built.encoder, test_stream)
        metric = {"num_test": test_stream.num_rows, "test_accuracy": float(acc)}
    pipeline.metadata.update(num_train=stats.rows, **metric, stream=stream_meta)
    if checkpoint is not None:
        save_model(pipeline, checkpoint, cursor=cursor_fn(stats))
    return pipeline, stats
