"""Streaming out-of-core pipeline: the one chunked reducer for training.

Every training path in the repository — batch experiment cells, cluster
ingest, online serving updates — reduces to the same computation:
*encode a slab of records, accumulate integer bundle counts, merge*.
This package is that computation's single implementation:

* :mod:`repro.streaming.chunks` — the :class:`Chunk` /
  :class:`ChunkSource` protocol plus adapters for in-memory arrays and
  dataset containers (``array_chunks`` / ``split_chunks`` /
  ``rechunk``);
* :mod:`repro.streaming.sources` — seeded synthetic generators
  (:class:`JigsawsStream`, :class:`MarsExpressStream`) whose per-cell
  RNG substreams make any chunking bit-identical;
* :mod:`repro.streaming.files` — file-backed sources
  (:class:`JsonlChunkSource`, :class:`CsvChunkSource`,
  :class:`NpyMmapChunkSource`) for
  ``train --stream --input PATH``, O(chunk) resident memory;
* :mod:`repro.streaming.reduce` — :func:`encode_reduce` (the fused
  encode→\\ ``partial_fit`` stage, O(chunk) peak memory), plus the
  re-exported position-keyed tie primitives of :mod:`repro.hdc.ops`
  that make record encoding chunking invariant;
* :mod:`repro.streaming.train` — typed drivers
  (``stream_fit_classifier`` / ``stream_fit_regressor`` and scoring
  counterparts) plus :func:`train_pipeline_stream`, the engine of the
  ``train --stream`` CLI, with atomic checkpoints.

Both models train through one delta protocol: ``shard`` (pure
per-chunk bundle statistics) and ``absorb`` (their integer merge);
``partial_fit`` is ``absorb(shard(...))`` per chunk.  The
:mod:`repro.cluster` workers and :class:`repro.serve.OnlineLearner`
call the same two methods over these pieces — see ``docs/STREAMING.md`` for the protocol, the memory model
and the checkpoint format.
"""

from .chunks import (
    DEFAULT_CHUNK_ROWS,
    Chunk,
    ChunkSource,
    array_chunks,
    iter_slices,
    rechunk,
    skip_chunks,
    split_chunks,
)
from .files import (
    CsvChunkSource,
    JsonlChunkSource,
    NpyMmapChunkSource,
    file_chunk_source,
)
from .sources import JigsawsStream, MarsExpressStream
from .reduce import (
    StreamStats,
    encode_reduce,
    positional_tie_bits,
    positional_tie_words,
    prefetch_chunks,
    resolve_majority,
)
from .train import (
    CURSOR_VERSION,
    RecordEncode,
    ValueEncode,
    checkpointer,
    stream_fit_classifier,
    stream_fit_regressor,
    stream_score_classifier,
    stream_score_regressor,
    train_pipeline_stream,
)

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "Chunk",
    "ChunkSource",
    "array_chunks",
    "iter_slices",
    "rechunk",
    "skip_chunks",
    "split_chunks",
    "JigsawsStream",
    "JsonlChunkSource",
    "CsvChunkSource",
    "MarsExpressStream",
    "NpyMmapChunkSource",
    "file_chunk_source",
    "StreamStats",
    "encode_reduce",
    "positional_tie_bits",
    "positional_tie_words",
    "prefetch_chunks",
    "resolve_majority",
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
