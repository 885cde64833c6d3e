"""The chunk protocol: how out-of-core data flows through the pipeline.

A *chunk* is the unit of streamed work: a bounded slab of raw feature
records plus their targets, annotated with where in the logical split it
sits (``start``) and which split it belongs to (``split``).  A
*chunk source* is anything iterable that yields chunks in row order —
an adapter over an in-memory array or dataset container
(:func:`array_chunks`, :func:`split_chunks`), a seeded synthetic
generator (:mod:`repro.streaming.sources`), or a re-sliced view of
another source (:func:`rechunk`).

Two invariants make the whole subsystem deterministic:

* **row order** — concatenating a source's chunks always reproduces the
  logical split exactly, whatever the chunk size;
* **absolute positions** — ``chunk.start`` is the chunk's offset in the
  logical split, which is what lets the encode stage key its tie-break
  randomness by *row* rather than by stream position
  (:meth:`repro.runtime.batch.BatchEncoder.encode` with ``start``),
  making every downstream result independent of how the rows were
  chunked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol, runtime_checkable

import numpy as np

from ..exceptions import InvalidParameterError

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "Chunk",
    "ChunkSource",
    "array_chunks",
    "default_chunk_rows",
    "iter_slices",
    "rechunk",
    "skip_chunks",
    "split_chunks",
]

#: Default rows per streamed chunk.  Bounds the transient encode gather
#: at roughly ``rows × k × d`` bytes; lower it to shrink peak memory.
DEFAULT_CHUNK_ROWS = 1024

#: Environment variable overriding the default chunk size (see
#: :func:`default_chunk_rows`).
_ENV_CHUNK_ROWS = "REPRO_CHUNK_ROWS"


def default_chunk_rows(chunk_size: int | None = None) -> int:
    """The streamed-chunk row default.

    Resolution order (:func:`repro.tuning.calibration.resolve_knob`):
    the explicit ``chunk_size`` argument, then the ``REPRO_CHUNK_ROWS``
    environment variable, then :data:`DEFAULT_CHUNK_ROWS`.  Safe to
    tune: streamed encoding is chunking-invariant (ties are keyed by
    absolute row position), so the chunk size moves peak memory and
    throughput, never results.

    >>> default_chunk_rows(256)
    256
    >>> default_chunk_rows() >= 1
    True
    """
    from ..tuning.calibration import resolve_knob

    value = resolve_knob(
        builtin=DEFAULT_CHUNK_ROWS,
        arg=chunk_size,
        env_var=_ENV_CHUNK_ROWS,
        cast=int,
        minimum=1,
    )
    return int(value)


@dataclass(frozen=True)
class Chunk:
    """One slab of streamed training (or scoring) data.

    Attributes
    ----------
    features:
        ``(rows, k)`` raw feature records.
    targets:
        ``(rows,)`` labels / regression targets, or ``None`` for
        unlabelled prediction streams.
    start:
        Absolute offset of the first row in the logical split.
    split:
        Which split the rows belong to (``"train"``, ``"test"``, …).
    meta:
        Free-form provenance merged from the source (task name,
        generator parameters, …).
    """

    features: np.ndarray
    targets: np.ndarray | None = None
    start: int = 0
    split: str = "train"
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise InvalidParameterError(
                f"chunk features must be (rows, k), got shape {self.features.shape}"
            )
        if self.targets is not None and len(self.targets) != self.features.shape[0]:
            raise InvalidParameterError(
                f"chunk carries {self.features.shape[0]} rows but "
                f"{len(self.targets)} targets"
            )

    @property
    def rows(self) -> int:
        """Number of records in this chunk."""
        return int(self.features.shape[0])

    @property
    def stop(self) -> int:
        """Absolute offset one past the last row (``start + rows``)."""
        return self.start + self.rows


@runtime_checkable
class ChunkSource(Protocol):
    """Anything that yields :class:`Chunk` objects in row order.

    The minimal protocol is iteration; sources additionally expose
    ``num_features`` (record width) and, when the size is known up
    front, ``num_rows``.  Iterating a source twice must yield identical
    chunks (sources re-derive their RNG substreams per pass).
    """

    def __iter__(self) -> Iterator[Chunk]: ...  # pragma: no cover - protocol


def iter_slices(total: int, size: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` bounds covering ``range(total)``.

    The one chunk-partitioning rule every layer shares (the in-memory
    chunk views and the streaming sources all slice with this), so
    partitions can never drift apart.

    >>> iter_slices(7, 3)
    [(0, 3), (3, 6), (6, 7)]
    """
    if size < 1:
        raise InvalidParameterError(f"chunk size must be positive, got {size}")
    if total < 0:
        raise InvalidParameterError(f"total must be non-negative, got {total}")
    return [(s, min(total, s + size)) for s in range(0, total, size)]


class _ArrayChunks:
    """Chunk view over in-memory arrays (zero-copy row slices)."""

    def __init__(
        self,
        features: np.ndarray,
        targets: np.ndarray | None,
        chunk_size: int,
        split: str,
        start: int,
        meta: dict[str, Any],
    ) -> None:
        features = np.asarray(features)
        if features.ndim != 2:
            raise InvalidParameterError(
                f"expected (n, k) features, got shape {features.shape}"
            )
        if targets is not None:
            targets = np.asarray(targets)
            if targets.shape[:1] != (features.shape[0],):
                raise InvalidParameterError(
                    f"targets must match the {features.shape[0]} rows, "
                    f"got shape {targets.shape}"
                )
        self._features = features
        self._targets = targets
        self.chunk_size = int(chunk_size)
        self.split = split
        self.start = int(start)
        self.meta = dict(meta)
        iter_slices(features.shape[0], self.chunk_size)  # validate eagerly

    @property
    def num_rows(self) -> int:
        return int(self._features.shape[0])

    @property
    def num_features(self) -> int:
        return int(self._features.shape[1])

    def __iter__(self) -> Iterator[Chunk]:
        for lo, hi in iter_slices(self.num_rows, self.chunk_size):
            yield Chunk(
                features=self._features[lo:hi],
                targets=None if self._targets is None else self._targets[lo:hi],
                start=self.start + lo,
                split=self.split,
                meta=self.meta,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"array_chunks(rows={self.num_rows}, k={self.num_features}, "
            f"chunk_size={self.chunk_size}, split={self.split!r})"
        )


def array_chunks(
    features: np.ndarray,
    targets: np.ndarray | None = None,
    chunk_size: int = DEFAULT_CHUNK_ROWS,
    split: str = "train",
    start: int = 0,
    meta: dict[str, Any] | None = None,
) -> _ArrayChunks:
    """Chunk an in-memory ``(n, k)`` feature matrix (zero-copy slices).

    The adapter that lets every in-memory caller ride the streaming
    pipeline: chunks are views, so no data is copied, and any
    ``chunk_size`` reproduces the same logical split.

    >>> import numpy as np
    >>> src = array_chunks(np.arange(10.0).reshape(5, 2), np.arange(5), chunk_size=2)
    >>> [(c.start, c.rows) for c in src]
    [(0, 2), (2, 2), (4, 1)]
    """
    return _ArrayChunks(features, targets, chunk_size, split, start, meta or {})


def split_chunks(
    split,
    part: str = "train",
    chunk_size: int = DEFAULT_CHUNK_ROWS,
) -> _ArrayChunks:
    """Chunk one part of a dataset container.

    ``split`` is a :class:`~repro.datasets.ClassificationSplit` or
    :class:`~repro.datasets.RegressionSplit` (anything exposing
    ``{part}_features`` / ``{part}_labels`` and ``metadata``); ``part``
    is ``"train"`` or ``"test"``.  The container's metadata rides along
    on every chunk.

    >>> from repro.datasets import make_mars_express_like
    >>> src = split_chunks(make_mars_express_like(num_samples=64, seed=0),
    ...                    part="test", chunk_size=8)
    >>> src.num_features
    1
    >>> sum(c.rows for c in src) == src.num_rows
    True
    """
    try:
        features = getattr(split, f"{part}_features")
        targets = getattr(split, f"{part}_labels")
    except AttributeError:
        raise InvalidParameterError(
            f"part must be 'train' or 'test', got {part!r}"
        ) from None
    return _ArrayChunks(
        features, targets, chunk_size, part, 0, dict(getattr(split, "metadata", {}))
    )


class _Rechunked:
    """Re-slice another source's rows into a different chunk size."""

    def __init__(self, source: ChunkSource, chunk_size: int) -> None:
        iter_slices(0, chunk_size)  # validate chunk_size
        self.source = source
        self.chunk_size = int(chunk_size)

    def __getattr__(self, name: str):
        # num_rows / num_features / meta pass through from the source.
        return getattr(self.source, name)

    def __iter__(self) -> Iterator[Chunk]:
        pending: list[Chunk] = []
        buffered = 0

        def drain(chunks: list[Chunk], rows: int) -> Chunk:
            head = chunks[0]
            if len(chunks) == 1:
                # The emitted chunk sits inside one source slab: emit
                # zero-copy views (the whole chunk object when the
                # boundaries align exactly).
                if rows == head.rows:
                    return head
                return Chunk(
                    features=head.features[:rows],
                    targets=None
                    if head.targets is None
                    else np.asarray(head.targets)[:rows],
                    start=head.start,
                    split=head.split,
                    meta=head.meta,
                )
            # Straddling a slab boundary: copy exactly the rows emitted —
            # whole leading slabs plus only the needed head of the last.
            take = rows - sum(c.rows for c in chunks[:-1])
            features = np.concatenate(
                [c.features for c in chunks[:-1]] + [chunks[-1].features[:take]],
                axis=0,
            )
            targets = None
            if head.targets is not None:
                targets = np.concatenate(
                    [np.asarray(c.targets) for c in chunks[:-1]]
                    + [np.asarray(chunks[-1].targets)[:take]],
                    axis=0,
                )
            return Chunk(
                features=features,
                targets=targets,
                start=head.start,
                split=head.split,
                meta=head.meta,
            )

        for chunk in self.source:
            pending.append(chunk)
            buffered += chunk.rows
            while buffered >= self.chunk_size:
                emit = drain(pending, self.chunk_size)
                leftover = buffered - self.chunk_size
                if leftover:
                    tail = pending[-1]
                    keep = Chunk(
                        features=tail.features[tail.rows - leftover:],
                        targets=None
                        if tail.targets is None
                        else np.asarray(tail.targets)[tail.rows - leftover:],
                        start=tail.stop - leftover,
                        split=tail.split,
                        meta=tail.meta,
                    )
                    pending = [keep]
                else:
                    pending = []
                buffered = leftover
                yield emit
        if buffered:
            yield drain(pending, buffered)


class _SkipChunks:
    """Drop the first ``n`` chunks of another source, offsets intact."""

    def __init__(self, source: ChunkSource, skip: int) -> None:
        if not isinstance(skip, (int, np.integer)) or isinstance(skip, bool) or skip < 0:
            raise InvalidParameterError(
                f"skip must be a non-negative integer, got {skip!r}"
            )
        self.source = source
        self.skip = int(skip)

    def __getattr__(self, name: str):
        # num_rows / num_features / meta pass through from the source.
        return getattr(self.source, name)

    def __iter__(self) -> Iterator[Chunk]:
        for index, chunk in enumerate(self.source):
            if index >= self.skip:
                yield chunk


def skip_chunks(source: ChunkSource, skip: int) -> _SkipChunks:
    """A view of ``source`` without its first ``skip`` chunks.

    The replay primitive behind ``train --stream --resume`` and the
    ingest cluster's failover: a checkpoint cursor records how many
    chunks the saved model already absorbed, and the remaining pass is
    exactly the same stream minus that prefix.  The surviving chunks
    keep their absolute ``start`` offsets (they are yielded untouched),
    so position-keyed encoding stays bit-identical to the uninterrupted
    run.

    Deterministic sources are *iterated* from the beginning and the
    skipped prefix discarded — generation cost is paid, encode/reduce
    cost is not (the sources have no random chunk access; see
    ``docs/DISTRIBUTED.md``).

    >>> import numpy as np
    >>> src = array_chunks(np.arange(10.0).reshape(5, 2), chunk_size=2)
    >>> [(c.start, c.rows) for c in skip_chunks(src, 2)]
    [(4, 1)]
    >>> [(c.start, c.rows) for c in skip_chunks(src, 0)] == [
    ...     (c.start, c.rows) for c in src]
    True
    """
    return _SkipChunks(source, skip)


def rechunk(source: ChunkSource, chunk_size: int) -> _Rechunked:
    """Re-slice a chunk source into uniform ``chunk_size`` chunks.

    The rows, their order and their absolute ``start`` offsets are
    preserved exactly — only the slab boundaries move — so anything
    built on the positional guarantees (the streaming encoder, the
    reducers) produces bit-identical results on the re-chunked source.

    Chunks that fall inside a single source slab are emitted as
    **zero-copy views** (the source chunk itself when the boundaries
    align exactly); only a chunk straddling a slab boundary copies, and
    it copies exactly the rows it emits.

    >>> import numpy as np
    >>> src = array_chunks(np.arange(10.0).reshape(5, 2), chunk_size=2)
    >>> [(c.start, c.rows) for c in rechunk(src, 3)]
    [(0, 3), (3, 2)]
    """
    return _Rechunked(source, chunk_size)
