"""Fused encode → reduce: chunks in, model statistics out, O(chunk) RAM.

This is the computational core of the streaming subsystem.  Two pieces
compose:

* :func:`prefetch_chunks` — iteration of a source one step ahead of
  the consumer, on one background thread, in source order.
* :func:`encode_reduce` — the fused stage: stream chunks through an
  encode function straight into a model's
  :meth:`~repro.learning.classifier.CentroidClassifier.partial_fit`,
  never materialising the encoded split.  The encode runs on the
  prefetch thread, so chunk n+1 encodes while chunk n is absorbed.
  Peak memory is O(chunk), not O(n).

Record chunks encode through
:meth:`~repro.runtime.batch.BatchEncoder.encode` with the chunk's
absolute ``start``: majority ties of the ``"random"`` policy take the
position-keyed coins of :func:`~repro.hdc.ops.positional_tie_bits`, so
a row's bits are the same whatever chunk, worker or call it arrives in.
The tie primitives (:func:`positional_tie_bits`,
:func:`positional_tie_words`, :func:`resolve_majority`) live in
:mod:`repro.hdc.ops` and are re-exported here.
"""

from __future__ import annotations

import contextlib
import queue
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..exceptions import InvalidParameterError
# majority_from_counts stays importable here because perfbench/tracing.py
# wraps it by name.
from ..hdc.ops import (
    majority_from_counts,  # noqa: F401
    positional_tie_bits,
    positional_tie_words,
    resolve_majority,
)
from .chunks import ChunkSource

__all__ = [
    "StreamStats",
    "encode_reduce",
    "positional_tie_bits",
    "positional_tie_words",
    "prefetch_chunks",
    "resolve_majority",
]

#: Sentinel marking the end of a prefetched stream.
_PREFETCH_DONE = object()


def prefetch_chunks(source: ChunkSource, depth: int = 1) -> Iterator:
    """Iterate a source one step ahead, on a background thread.

    A single background thread pulls items from ``source`` into a
    bounded queue (``depth`` slots — ``1`` is classic double buffering)
    while the consumer processes the current one, overlapping whatever
    work iterating the source does (generating synthetic rows, slicing
    a file, and in :func:`encode_reduce` encoding each chunk) with the
    consumer's own.  Items arrive in source order through a FIFO
    queue from one producer, so everything downstream is bit-identical
    to plain iteration; exceptions raised by the source re-raise at the
    consumer.  Abandoning the iterator early (``break``, error) stops
    the producer promptly.

    >>> import numpy as np
    >>> from repro.streaming.chunks import array_chunks
    >>> src = array_chunks(np.arange(12.0).reshape(6, 2), chunk_size=4)
    >>> [(c.start, c.rows) for c in prefetch_chunks(src)]
    [(0, 4), (4, 2)]
    """
    if depth < 1:
        raise InvalidParameterError(f"prefetch depth must be positive, got {depth}")
    fifo: queue.Queue = queue.Queue(maxsize=depth)
    stop = threading.Event()
    failure: list[BaseException] = []

    def _put(item: object) -> bool:
        while not stop.is_set():
            try:
                fifo.put(item, timeout=0.1)
                return True
            except queue.Full:
                continue
        return False

    def produce() -> None:
        try:
            for chunk in source:
                if not _put(chunk):
                    return
        except BaseException as exc:  # re-raised on the consumer side
            failure.append(exc)
        finally:
            _put(_PREFETCH_DONE)

    thread = threading.Thread(
        target=produce, name="repro-chunk-prefetch", daemon=True
    )
    thread.start()
    try:
        while True:
            item = fifo.get()
            if item is _PREFETCH_DONE:
                break
            yield item
        if failure:
            raise failure[0]
    finally:
        stop.set()
        # The producer exits at its next put; a thread mid-generation
        # inside the source is a daemon and cannot be interrupted, so
        # don't wait on it forever.
        thread.join(timeout=1.0)


@dataclass
class StreamStats:
    """What one streaming pass consumed: chunks seen and rows reduced."""

    chunks: int = 0
    rows: int = 0

    def absorb(self, rows: int) -> None:
        """Account one reduced chunk of ``rows`` records."""
        self.chunks += 1
        self.rows += rows


def encode_reduce(
    model,
    source: ChunkSource,
    encode: Callable[[object], object],
    on_chunk: Callable[[StreamStats], None] | None = None,
    prefetch: int = 1,
    stats: StreamStats | None = None,
) -> StreamStats:
    """Stream chunks through ``encode`` straight into ``model``.

    The out-of-core training stage: every chunk of ``source`` is encoded
    (``encode(chunk)``) and immediately reduced into the model via its
    canonical ``partial_fit([(encoded, targets)])`` — the encoded split
    is never materialised, so peak memory is O(chunk) regardless of the
    stream length.  ``on_chunk`` (if given) runs after every reduced
    chunk with the running :class:`StreamStats`; the ``train --stream``
    CLI hooks its atomic checkpoints there.

    With ``prefetch`` ≥ 1 (default: 1, double buffering) chunks are
    generated *and encoded* on the background thread of
    :func:`prefetch_chunks`, so chunk n+1 encodes while chunk n is
    absorbed and ``on_chunk`` runs.  ``partial_fit``, the stats and the
    hook stay on the calling thread in source order, so the result is
    bit-identical to ``prefetch=0``, which runs everything inline.  The
    pairing pays because encode and absorb both spend their time in
    numpy calls that release the GIL.  ``encode`` must therefore be
    safe to call next to the absorb and the hook: it may read shared
    state (the encoder's tables) but not change it.  Peak memory grows
    by at most ``prefetch`` encoded chunks, plus the one encoding.

    ``stats`` (optional) is a pre-seeded :class:`StreamStats` to keep
    accounting — a resumed pass (``train --stream --resume``) continues
    from the checkpoint cursor's counts, so checkpoint cadence
    (``stats.chunks % every``) stays aligned with the uninterrupted run.

    ``model`` is anything with ``partial_fit`` — a
    :class:`~repro.learning.classifier.CentroidClassifier` or
    :class:`~repro.learning.regression.HDRegressor`.  Classifier label
    arrays are converted to plain Python labels so streamed models
    serialise exactly like in-memory ones.

    >>> import numpy as np
    >>> from repro.basis import LevelBasis
    >>> from repro.learning import HDRegressor
    >>> from repro.streaming.chunks import array_chunks
    >>> emb = LevelBasis(8, 64, seed=0).linear_embedding(0.0, 1.0)
    >>> y = np.linspace(0.0, 1.0, 20)
    >>> src = array_chunks(y[:, None], y, chunk_size=6)
    >>> model = HDRegressor(emb, tie_break="zeros")
    >>> stats = encode_reduce(model, src,
    ...                       lambda c: emb.encode_packed(c.features[:, 0]))
    >>> (stats.rows, stats.chunks, model.num_samples)
    (20, 4, 20)
    """
    stats = stats if stats is not None else StreamStats()
    pairs = _encoded(source, encode)
    if prefetch:
        pairs = prefetch_chunks(pairs, depth=prefetch)
    # Closing stops the producer when the absorb or a hook raises.
    with contextlib.closing(pairs):
        for chunk, encoded in pairs:
            model.partial_fit([(encoded, chunk.targets)])
            stats.absorb(chunk.rows)
            if on_chunk is not None:
                on_chunk(stats)
    return stats


def _encoded(source: ChunkSource, encode: Callable[[object], object]) -> Iterator:
    """``(chunk, encode(chunk))`` for each labelled chunk of ``source``."""
    for chunk in source:
        if chunk.targets is None:
            raise InvalidParameterError(
                "encode_reduce needs labelled chunks; this source yields "
                "targets=None"
            )
        yield chunk, encode(chunk)
