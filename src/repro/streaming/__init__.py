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

from .. import _lazy

_EXPORTS = {
    "DEFAULT_CHUNK_ROWS": "chunks",
    "Chunk": "chunks",
    "ChunkSource": "chunks",
    "array_chunks": "chunks",
    "iter_slices": "chunks",
    "rechunk": "chunks",
    "skip_chunks": "chunks",
    "split_chunks": "chunks",
    "JigsawsStream": "sources",
    "JsonlChunkSource": "files",
    "CsvChunkSource": "files",
    "MarsExpressStream": "sources",
    "NpyMmapChunkSource": "files",
    "file_chunk_source": "files",
    "StreamStats": "reduce",
    "encode_reduce": "reduce",
    "positional_tie_bits": "reduce",
    "positional_tie_words": "reduce",
    "prefetch_chunks": "reduce",
    "resolve_majority": "reduce",
    "CURSOR_VERSION": "train",
    "RecordEncode": "train",
    "ValueEncode": "train",
    "checkpointer": "train",
    "stream_fit_classifier": "train",
    "stream_fit_regressor": "train",
    "stream_score_classifier": "train",
    "stream_score_regressor": "train",
    "train_pipeline_stream": "train",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_namespace(__name__, _EXPORTS)
