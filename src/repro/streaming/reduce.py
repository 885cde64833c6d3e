"""Fused encode → reduce: chunks in, model statistics out, O(chunk) RAM.

This is the computational core of the streaming subsystem.  Three pieces
compose:

* :func:`positional_tie_bits` — the chunking-invariant tie-break
  randomness.  The batched encoders resolve majority ties of the
  ``"random"`` policy from one *sequential* stream, which makes the
  result depend on where chunk boundaries fall.  Streaming keys every
  tie coin by ``(seed, absolute row, dimension)`` instead, computed
  with a counter-based splitmix64 hash: the same row always draws the
  same coins, whatever chunk it arrives in, on however many workers,
  in however many ``partial_fit`` calls.
* :func:`stream_encode` — the whole-batch record encoder built on that
  discipline.  Bit-identical for every chunk size, worker count, and
  for any split of the rows across calls (pass ``start`` for the
  absolute offset).  For tie policies that never draw
  (``"zeros"``/``"ones"``/``"alternate"``) it equals
  :meth:`repro.runtime.batch.BatchEncoder.encode` exactly.
* :func:`encode_reduce` — the fused stage: stream chunks through an
  encode function straight into a model's
  :meth:`~repro.learning.classifier.CentroidClassifier.partial_fit`,
  never materialising the encoded split.  Peak memory is O(chunk),
  not O(n).
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Union

import numpy as np

from ..exceptions import InvalidParameterError
from ..hdc.hypervector import BIT_DTYPE
from ..hdc.ops import majority_from_counts
from ..hdc.packed import PackedHV, packed_width
from ..runtime.batch import BatchEncoder
from ..runtime.pool import WorkerPool
from .chunks import ChunkSource, iter_slices

__all__ = [
    "StreamStats",
    "encode_reduce",
    "positional_tie_bits",
    "positional_tie_words",
    "prefetch_chunks",
    "resolve_majority",
    "stream_encode",
]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser (wrapping uint64 arithmetic)."""
    z = (x + _GAMMA).astype(np.uint64, copy=False)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _tie_seed(seed) -> np.uint64:
    if seed is None:
        return np.uint64(0)
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    raise InvalidParameterError(
        f"streaming tie seed must be an int or None, got {seed!r}"
    )


def positional_tie_words(seed, rows: np.ndarray, dim: int) -> np.ndarray:
    """:func:`positional_tie_bits` in packed form.

    Returns ``(len(rows), ⌈dim/64⌉)`` uint64 words whose bytes, read in
    memory order, are the :func:`numpy.packbits` bytes of the coins (the
    bits past ``dim`` in the last word are hash bits, not zero).  The
    packed majority kernel of :class:`~repro.runtime.batch.BatchEncoder`
    masks them with its tie words.

    >>> import numpy as np
    >>> words = positional_tie_words(7, np.array([3, 5]), 70)
    >>> bits = np.unpackbits(words.view(np.uint8), axis=-1)[:, :70]
    >>> bool(np.array_equal(bits, positional_tie_bits(7, np.array([3, 5]), 70)))
    True
    """
    if dim < 1:
        raise InvalidParameterError(f"dim must be positive, got {dim}")
    rows64 = np.asarray(rows, dtype=np.uint64)
    words = (dim + 63) // 64
    base = _mix64(rows64 ^ _mix64(np.full_like(rows64, _tie_seed(seed))))
    counters = (np.arange(words, dtype=np.uint64) * _GAMMA)[None, :]
    hashed = _mix64(base[:, None] ^ counters)
    return hashed.astype(">u8").view(np.uint64)


def positional_tie_bits(seed, rows: np.ndarray, dim: int) -> np.ndarray:
    """Deterministic per-row tie coins, keyed by absolute row position.

    Returns a ``(len(rows), dim)`` uint8 bit array where bit ``(r, i)``
    is a function of ``(seed, rows[r], i)`` alone — a counter-based
    splitmix64 hash, so no stream state exists to depend on chunking.
    Platform-independent (the hash runs in wrapping uint64 arithmetic
    and words are serialised big-endian before unpacking).

    >>> import numpy as np
    >>> a = positional_tie_bits(7, np.array([3, 5]), 64)
    >>> b = positional_tie_bits(7, np.array([5]), 64)
    >>> bool(np.array_equal(a[1], b[0]))   # row 5 draws the same coins
    True
    >>> bool(0.3 < a.mean() < 0.7)         # fair coins
    True
    """
    as_bytes = positional_tie_words(seed, rows, dim).view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1)[:, :dim].astype(BIT_DTYPE, copy=False)


def resolve_majority(
    counts: np.ndarray,
    total: int,
    tie_break: str,
    seed,
    start: int,
) -> np.ndarray:
    """Threshold per-row one-counts with position-keyed tie handling.

    The streaming counterpart of
    :func:`repro.hdc.ops.majority_from_counts` for 2-D ``(rows, d)``
    count blocks whose first row sits at absolute offset ``start``.
    Non-``"random"`` policies delegate to the shared primitive
    unchanged (they are position-free already); ``"random"`` resolves
    each tied row with its :func:`positional_tie_bits` coins.

    >>> import numpy as np
    >>> counts = np.array([[1, 2, 1, 0]], dtype=np.int64)
    >>> resolve_majority(counts, 2, "zeros", None, 0).tolist()
    [[0, 1, 0, 0]]
    """
    if tie_break != "random":
        return majority_from_counts(counts, total, tie_break=tie_break)
    counts64 = counts.astype(np.int64, copy=False)
    out = (2 * counts64 > total).astype(BIT_DTYPE)
    ties = 2 * counts64 == total
    tie_rows = np.nonzero(ties.any(axis=-1))[0]
    if tie_rows.size:
        coins = positional_tie_bits(seed, start + tie_rows, counts.shape[-1])
        block = out[tie_rows]
        mask = ties[tie_rows]
        block[mask] = coins[mask]
        out[tie_rows] = block
    return out


def stream_encode(
    encoder: BatchEncoder,
    features: np.ndarray,
    start: int = 0,
    seed: Union[int, None] = 0,
    packed: bool = True,
    pool: WorkerPool | None = None,
) -> Union[np.ndarray, PackedHV]:
    """Chunking-invariant whole-batch record encoding.

    Encodes ``(n, k)`` raw features through ``encoder``'s fused tables
    exactly like :meth:`~repro.runtime.batch.BatchEncoder.encode`, with
    one change: majority ties of the ``"random"`` policy draw
    position-keyed coins (see :func:`positional_tie_bits`) seeded by the
    integer ``seed`` and the row's absolute offset ``start + i``.  The
    result is therefore **bit-identical** however the rows are split —
    across encoder chunk sizes, worker counts, stream chunk boundaries
    or separate calls — which is the property the whole streaming
    subsystem is gated on.  For tie policies that never draw, the
    output equals ``encoder.encode`` bit for bit.

    >>> import numpy as np
    >>> from repro.basis import LevelBasis
    >>> from repro.hdc.hypervector import random_hypervectors
    >>> from repro.runtime import BatchEncoder
    >>> emb = LevelBasis(4, 32, seed=0).linear_embedding(0.0, 1.0)
    >>> enc = BatchEncoder(random_hypervectors(2, 32, seed=1), emb)
    >>> x = np.random.default_rng(2).random((6, 2))
    >>> whole = stream_encode(enc, x, seed=9)
    >>> parts = [stream_encode(enc, x[s:s + 2], start=s, seed=9) for s in (0, 2, 4)]
    >>> bool(np.array_equal(whole.unpack(),
    ...                     np.concatenate([p.unpack() for p in parts])))
    True
    """
    idx = encoder.indices(features)
    n = idx.shape[0]
    d = encoder.dim
    width = packed_width(d) if packed else d
    out = np.empty((n, width), dtype=np.uint8)
    bounds = iter_slices(n, encoder.chunk_size) if n else []

    def fill(lo: int, hi: int, counts: np.ndarray) -> None:
        bits = resolve_majority(
            counts, encoder.num_channels, encoder.tie_break, seed, start + lo
        )
        out[lo:hi] = np.packbits(bits, axis=-1) if packed else bits

    if pool is None or pool.serial:
        # One sub-chunk in flight at a time: the transient stays O(chunk).
        for lo, hi in bounds:
            fill(lo, hi, encoder.chunk_counts(idx[lo:hi]))
    else:
        blocks = pool.map(encoder.chunk_counts, [idx[lo:hi] for lo, hi in bounds])
        for (lo, hi), counts in zip(bounds, blocks):
            fill(lo, hi, counts)
    return PackedHV(out, d) if packed else out


#: Sentinel marking the end of a prefetched stream.
_PREFETCH_DONE = object()


def prefetch_chunks(source: ChunkSource, depth: int = 1) -> Iterator:
    """Iterate a chunk source with chunk generation one step ahead.

    A single background thread pulls chunks from ``source`` into a
    bounded queue (``depth`` slots — ``1`` is classic double buffering)
    while the consumer processes the current one, overlapping chunk
    *generation* (synthetic streams burn real CPU producing rows) with
    chunk *encoding*.  Chunks arrive in source order through a FIFO
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
    ingest: str | None = None,
) -> StreamStats:
    """Stream chunks through ``encode`` straight into ``model``.

    The fused out-of-core training stage: for every chunk of ``source``
    the raw features are encoded (``encode(chunk)``) and immediately
    reduced into the model via its canonical
    ``partial_fit([(encoded, targets)])`` — the encoded split is never
    materialised, so peak memory is O(chunk) regardless of the stream
    length.  ``on_chunk`` (if given) runs after every reduced chunk
    with the running :class:`StreamStats`; the ``train --stream`` CLI
    hooks its atomic checkpoints there.

    With ``prefetch`` ≥ 1 (default: 1, double buffering) the next chunk
    is generated on a background thread (:func:`prefetch_chunks`) while
    the current one encodes, overlapping the two stages; peak memory
    grows by at most ``prefetch`` raw chunks and the result stays
    bit-identical (chunks arrive in source order).  ``prefetch=0``
    iterates the source inline.

    ``stats`` (optional) is a pre-seeded :class:`StreamStats` to keep
    accounting — a resumed pass (``train --stream --resume``) continues
    from the checkpoint cursor's counts, so checkpoint cadence
    (``stats.chunks % every``) stays aligned with the uninterrupted run.

    ``model`` is anything with ``partial_fit`` — a
    :class:`~repro.learning.classifier.CentroidClassifier` or
    :class:`~repro.learning.regression.HDRegressor`.  Classifier label
    arrays are converted to plain Python labels so streamed models
    serialise exactly like in-memory ones.

    ``ingest`` selects the ingest path
    (:data:`repro.hdc.ingest.INGEST_BACKENDS`; ``None`` means
    ``"auto"``, ``"ref"`` forces this reference path).  When
    :func:`repro.hdc.ingest.ingest_chunk` recognises a classifier
    ``(model, encode)`` pair it reduces the chunk without materialising
    the encoded batch — bit-identical to this reference path — and the
    encode-then-``partial_fit`` body below is skipped for that chunk;
    otherwise (regressors included) the reference path runs unchanged.

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
    from ..hdc.ingest import ingest_chunk
    from ..learning.classifier import CentroidClassifier

    stats = stats if stats is not None else StreamStats()
    classify = isinstance(model, CentroidClassifier)
    chunks = prefetch_chunks(source, depth=prefetch) if prefetch else source
    for chunk in chunks:
        if chunk.targets is None:
            raise InvalidParameterError(
                "encode_reduce needs labelled chunks; this source yields "
                "targets=None"
            )
        if ingest_chunk(model, chunk, encode, backend=ingest):
            stats.absorb(chunk.rows)
            if on_chunk is not None:
                on_chunk(stats)
            continue
        encoded = encode(chunk)
        targets = chunk.targets
        if classify:
            targets = (
                targets.tolist() if isinstance(targets, np.ndarray) else list(targets)
            )
        else:
            targets = np.asarray(targets, dtype=np.float64)
        model.partial_fit([(encoded, targets)])
        stats.absorb(chunk.rows)
        if on_chunk is not None:
            on_chunk(stats)
    return stats
