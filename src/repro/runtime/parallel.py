"""Sharded training and query execution with deterministic merge.

The learning models expose pure per-shard statistics
(:meth:`~repro.learning.classifier.CentroidClassifier.shard_counts`,
:meth:`~repro.learning.regression.HDRegressor.shard_bundle`) and
:class:`~repro.hdc.memory.ItemMemory` exposes row partitioning
(:meth:`~repro.hdc.memory.ItemMemory.shards`).  The functions here fan
that work out over a :class:`~repro.runtime.pool.WorkerPool` and merge
the pieces back **in shard order**, so every result is bit-identical to
the corresponding serial call:

* training — per-shard bundle counts are integer sums, which commute;
  absorbing shards in sample order reproduces one serial ``fit`` exactly;
* inference — per-chunk distance blocks are concatenated in chunk order,
  reproducing the full distance matrix before any ``argmin``;
* item-memory queries — per-row-shard distance columns are concatenated
  in insertion order before the winner is taken.

Example
-------
>>> import numpy as np
>>> from repro.learning import CentroidClassifier
>>> from repro.runtime import WorkerPool, fit_classifier_sharded
>>> x = np.random.default_rng(0).integers(0, 2, (64, 32)).astype(np.uint8)
>>> y = list(np.arange(64) % 4)
>>> serial = CentroidClassifier(dim=32, tie_break="zeros").fit(x, y)
>>> clf = CentroidClassifier(dim=32, tie_break="zeros")
>>> with WorkerPool(workers=2) as pool:
...     clf = fit_classifier_sharded(clf, x, y, pool, chunk_size=10)
>>> clf.predict(x) == serial.predict(x)
True

These helpers close over live model objects and in-memory batches, so
they require the (default) ``"thread"`` pool backend; the ``"process"``
backend is for self-contained experiment cells (see
:mod:`repro.experiments`), whose tasks are picklable.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from ..exceptions import InvalidParameterError
from ..hdc.coerce import EncodedBatch, batch_rows
from ..hdc.memory import ItemMemory
from ..hdc.packed import is_packed
from ..learning.classifier import CentroidClassifier
from ..learning.merge import absorb_delta
from ..learning.metrics import accuracy
from ..learning.regression import HDRegressor
from ..streaming.chunks import iter_slices
from .pool import WorkerPool

__all__ = [
    "fit_classifier_sharded",
    "predict_classifier_sharded",
    "score_classifier_sharded",
    "fit_regressor_sharded",
    "predict_regressor_sharded",
    "memory_distances_sharded",
    "memory_query_sharded",
    "memory_query_topk_sharded",
]

#: Default samples per training/inference shard.
DEFAULT_CHUNK_SIZE = 1024


# -- classifier ---------------------------------------------------------------

def fit_classifier_sharded(
    classifier: CentroidClassifier,
    encoded: EncodedBatch,
    labels: Sequence[Hashable],
    pool: WorkerPool,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> CentroidClassifier:
    """Train a centroid classifier with shard-parallel accumulation.

    Workers compute per-class bundle counts on disjoint sample shards;
    the parent absorbs them in shard order.  Bit-identical to
    ``classifier.fit(encoded, labels)`` for any worker count.

    >>> import numpy as np
    >>> x = np.eye(8, dtype=np.uint8)
    >>> clf = CentroidClassifier(dim=8, tie_break="zeros")
    >>> with WorkerPool(workers=2) as pool:
    ...     _ = fit_classifier_sharded(clf, x, [0, 1] * 4, pool, chunk_size=3)
    >>> clf.classes
    [0, 1]
    """
    labels = list(labels)
    n = batch_rows(encoded)
    if len(labels) != n:
        raise InvalidParameterError(f"got {n} samples but {len(labels)} labels")
    # A thin parallel wrapper over the canonical chunked reducer: the
    # pool runs the pure reduce step (shard_counts), the in-order merge
    # goes through the one shared entry point (absorb_delta) — the same
    # path partial_fit, OnlineLearner.absorb and the ingest cluster use.
    bounds = iter_slices(n, chunk_size)
    shards = pool.map(
        lambda b: classifier.shard_counts(encoded[b[0]:b[1]], labels[b[0]:b[1]]),
        bounds,
    )
    for shard in shards:
        absorb_delta(classifier, shard)
    return classifier


def predict_classifier_sharded(
    classifier: CentroidClassifier,
    encoded: EncodedBatch,
    pool: WorkerPool,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    backend: str | None = None,
) -> list[Hashable]:
    """Chunk-parallel :meth:`~repro.learning.classifier.CentroidClassifier.predict`.

    The prototype table is materialised once up front
    (:meth:`~repro.learning.classifier.CentroidClassifier.prepare`), then
    query chunks run on the pool and their label lists are concatenated
    in chunk order — identical to one serial ``predict`` call.
    ``backend`` forces the similarity kernel per chunk
    (:mod:`repro.hdc.kernels`; the default ``"auto"`` dispatches on the
    chunk size) — answers are bit-identical for every choice.

    >>> import numpy as np
    >>> x = np.eye(8, dtype=np.uint8)
    >>> clf = CentroidClassifier(dim=8, tie_break="zeros").fit(x, [0] * 4 + [1] * 4)
    >>> with WorkerPool(workers=2) as pool:
    ...     predict_classifier_sharded(clf, x, pool, chunk_size=3) == clf.predict(x)
    True
    """
    classifier.prepare()
    bounds = iter_slices(batch_rows(encoded), chunk_size)
    parts = pool.map(
        lambda b: classifier.predict(encoded[b[0]:b[1]], backend=backend), bounds
    )
    return [label for part in parts for label in part]


def score_classifier_sharded(
    classifier: CentroidClassifier,
    encoded: EncodedBatch,
    labels: Sequence[Hashable],
    pool: WorkerPool,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    backend: str | None = None,
) -> float:
    """Accuracy of :func:`predict_classifier_sharded` against ``labels``.

    Uses the same metric implementation as
    :meth:`~repro.learning.classifier.CentroidClassifier.score`, so the
    serial and sharded score paths can never diverge.

    >>> import numpy as np
    >>> x = np.eye(8, dtype=np.uint8)
    >>> y = [0] * 4 + [1] * 4
    >>> clf = CentroidClassifier(dim=8, tie_break="zeros").fit(x, y)
    >>> with WorkerPool(workers=2) as pool:
    ...     score_classifier_sharded(clf, x, y, pool) == clf.score(x, y)
    True
    """
    predictions = predict_classifier_sharded(
        classifier, encoded, pool, chunk_size, backend=backend
    )
    return accuracy(np.asarray(list(labels), dtype=object),
                    np.asarray(predictions, dtype=object))


# -- regressor ----------------------------------------------------------------

def fit_regressor_sharded(
    model: HDRegressor,
    encoded: EncodedBatch,
    y: np.ndarray,
    pool: WorkerPool,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> HDRegressor:
    """Train an HD regressor with shard-parallel accumulation.

    Bit-identical to ``model.fit(encoded, y)``: the shard bundles are
    integer count vectors merged by addition.

    >>> import numpy as np
    >>> from repro.basis import LevelBasis
    >>> from repro.learning import HDRegressor
    >>> emb = LevelBasis(4, 16, seed=0).linear_embedding(0.0, 1.0)
    >>> y = np.linspace(0.0, 1.0, 8)
    >>> model = HDRegressor(emb, tie_break="zeros")
    >>> with WorkerPool(workers=2) as pool:
    ...     _ = fit_regressor_sharded(model, emb.encode(y), y, pool, chunk_size=3)
    >>> model.num_samples
    8
    """
    y = np.asarray(y, dtype=np.float64)
    n = batch_rows(encoded)
    if y.shape != (n,):
        raise InvalidParameterError(f"y must have shape ({n},), got {y.shape}")
    # Thin parallel wrapper over the canonical reducer (see
    # fit_classifier_sharded): pool-mapped shard_bundle, in-order merge
    # through the shared absorb_delta entry point.
    bounds = iter_slices(n, chunk_size)
    shards = pool.map(
        lambda b: model.shard_bundle(encoded[b[0]:b[1]], y[b[0]:b[1]]), bounds
    )
    for shard in shards:
        absorb_delta(model, shard)
    return model


def predict_regressor_sharded(
    model: HDRegressor,
    encoded: EncodedBatch,
    pool: WorkerPool,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    backend: str | None = None,
) -> np.ndarray:
    """Chunk-parallel :meth:`~repro.learning.regression.HDRegressor.predict`.

    >>> import numpy as np
    >>> from repro.basis import LevelBasis
    >>> from repro.learning import HDRegressor
    >>> emb = LevelBasis(4, 16, seed=0).linear_embedding(0.0, 1.0)
    >>> y = np.linspace(0.0, 1.0, 8)
    >>> model = HDRegressor(emb, tie_break="zeros").fit(emb.encode(y), y)
    >>> with WorkerPool(workers=2) as pool:
    ...     sharded = predict_regressor_sharded(model, emb.encode(y), pool, chunk_size=3)
    >>> bool(np.array_equal(sharded, model.predict(emb.encode(y))))
    True
    """
    model.prepare()
    bounds = iter_slices(batch_rows(encoded), chunk_size)
    parts = pool.map(
        lambda b: model.predict(encoded[b[0]:b[1]], backend=backend), bounds
    )
    return np.concatenate(parts, axis=0)


# -- item memory --------------------------------------------------------------

def memory_distances_sharded(
    memory: ItemMemory,
    queries: EncodedBatch,
    pool: WorkerPool,
    num_shards: int | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Row-sharded :meth:`~repro.hdc.memory.ItemMemory.distances`.

    Partitions the stored rows into ``num_shards`` (default: the pool's
    worker count) contiguous sub-memories, scans them in parallel, and
    concatenates the distance columns in insertion order — the result
    equals ``memory.distances(queries)`` exactly, for any worker count
    and any similarity-kernel ``backend``.

    >>> import numpy as np
    >>> mem = ItemMemory(dim=8)
    >>> for i in range(4):
    ...     mem.add(i, np.full(8, i % 2, dtype=np.uint8))
    >>> q = np.zeros((2, 8), dtype=np.uint8)
    >>> with WorkerPool(workers=2) as pool:
    ...     sharded = memory_distances_sharded(mem, q, pool)
    >>> bool(np.array_equal(sharded, mem.distances(q)))
    True
    """
    shards = memory.shards(num_shards or pool.workers)
    if not shards:
        # Preserve the serial error contract (EmptyModelError on an
        # empty memory) instead of np.hstack's bare ValueError.
        return memory.distances(queries, backend=backend)
    blocks = pool.map(
        lambda m: np.atleast_2d(m.distances(queries, backend=backend)), shards
    )
    merged = np.hstack(blocks)
    single = (queries.ndim if is_packed(queries) else np.asarray(queries).ndim) == 1
    return merged[0] if single else merged


def memory_query_sharded(
    memory: ItemMemory,
    queries: EncodedBatch,
    pool: WorkerPool,
    num_shards: int | None = None,
    backend: str | None = None,
) -> list[Hashable]:
    """Row-sharded :meth:`~repro.hdc.memory.ItemMemory.query_batch`.

    The winner is taken on the merged distance matrix, so ties resolve
    toward the earliest-inserted item exactly as the serial scan does.

    >>> import numpy as np
    >>> mem = ItemMemory(dim=8)
    >>> for i in range(4):
    ...     mem.add(i, np.full(8, i % 2, dtype=np.uint8))
    >>> with WorkerPool(workers=2) as pool:
    ...     memory_query_sharded(mem, np.ones((1, 8), dtype=np.uint8), pool)
    [1]
    """
    distances = np.atleast_2d(
        memory_distances_sharded(memory, queries, pool, num_shards, backend=backend)
    )
    winners = np.argmin(distances, axis=-1)
    keys = memory.keys()
    return [keys[i] for i in winners]


def memory_query_topk_sharded(
    memory: ItemMemory,
    queries: EncodedBatch,
    k: int,
    pool: WorkerPool,
    num_shards: int | None = None,
    backend: str | None = None,
) -> list:
    """Row-sharded :meth:`~repro.hdc.memory.ItemMemory.query_topk`.

    Each shard retrieves its own top ``min(k, len(shard))`` candidates
    (fused, no full distance matrix); the merge re-ranks the candidate
    union by ``(distance, insertion index)``, which contains the global
    top-``k`` by construction.  Distances are exact multiples of
    ``1 / d``, so the float comparison in the merge is exact and the
    result is **bit-identical** to the serial ``query_topk`` for any
    shard count, worker count and backend.

    >>> import numpy as np
    >>> mem = ItemMemory(dim=8)
    >>> for i in range(6):
    ...     hv = np.zeros(8, dtype=np.uint8); hv[:i] = 1
    ...     mem.add(i, hv)
    >>> q = np.zeros(8, dtype=np.uint8)
    >>> with WorkerPool(workers=3) as pool:
    ...     memory_query_topk_sharded(mem, q, 2, pool) == mem.query_topk(q, 2)
    True
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise InvalidParameterError(f"k must be a positive integer, got {k!r}")
    shards = memory.shards(num_shards or pool.workers)
    if len(shards) <= 1:
        return memory.query_topk(queries, k, backend=backend)
    if k > len(memory):
        raise InvalidParameterError(
            f"k must be an integer in [1, {len(memory)}] (the table size), got {k!r}"
        )
    offsets = np.cumsum([0] + [len(s) for s in shards[:-1]])
    results = pool.map(
        lambda shard: shard.topk(queries, min(k, len(shard)), backend=backend), shards
    )
    cand_idx = np.concatenate(
        [np.atleast_2d(r.indices) + off for r, off in zip(results, offsets)], axis=1
    )
    cand_dist = np.concatenate(
        [np.atleast_2d(r.distances) for r in results], axis=1
    )
    # Merge on the same combined integer key as the fused kernel:
    # counts · m + index is ascending-lexicographic in (distance, index).
    # (Distances are exact multiples of 1/dim, so the rint round-trip
    # recovers the integer counts exactly.)
    m = len(memory)
    if (memory.dim + 1) * m >= 2**63:  # pragma: no cover - absurd sizes
        # Same guard as topk_hamming: per-shard keys fit (shard m is
        # smaller), but the merged key must not wrap either.
        raise InvalidParameterError(
            f"top-k merge keys would overflow int64 for dim={memory.dim}, m={m}"
        )
    counts = np.rint(cand_dist * memory.dim).astype(np.int64)
    keys_combined = counts * np.int64(m) + cand_idx
    order = np.argsort(keys_combined, axis=1)[:, :k]
    best = np.take_along_axis(keys_combined, order, axis=1)
    indices = best % m
    distances = (best // m) / memory.dim
    keys = memory.keys()
    out = [
        [(keys[int(i)], float(d)) for i, d in zip(row_i, row_d)]
        for row_i, row_d in zip(indices, distances)
    ]
    single = (queries.ndim if is_packed(queries) else np.asarray(queries).ndim) == 1
    return out[0] if single else out
