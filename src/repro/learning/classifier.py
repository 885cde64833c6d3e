"""HDC classification (Section 2.2) with optional online refinement.

The standard framework: encode every training sample, bundle the samples
of each class into a *class-vector* ``M_i`` (the class prototype), and
classify a query by nearest class-vector in Hamming distance:

``ℓ*(x̂) = arg min_i δ(φ(x̂), M_i)``

:class:`CentroidClassifier` implements exactly this.  :meth:`refine` adds
the widely used retraining extension (beyond the paper): misclassified
samples are added to their true class accumulator and subtracted from the
wrongly predicted one, in the spirit of perceptron updates — the paper's
single-pass training is the ``epochs = 0`` special case.

Each class is backed by a streaming
:class:`~repro.hdc.packed.BundleAccumulator` (O(d) memory regardless of
sample count) and the materialised prototypes are kept bit-packed, so
``decision_distances`` runs as XOR + popcount against a
``k × ceil(d / 8)``-byte table.  Training and inference accept encoded
samples in either representation — unpacked ``(n, d)`` bit arrays or a
packed :class:`~repro.hdc.packed.PackedHV` batch — with identical results.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence, Tuple

import numpy as np

from .._rng import SeedLike, ensure_rng
from ..exceptions import DimensionMismatchError, EmptyModelError, InvalidParameterError
from ..hdc.coerce import EncodedBatch, as_encoded_batch
from ..hdc.kernels import pairwise_hamming
from ..hdc.ops import TieBreak, majority_from_counts
from ..hdc.packed import (
    BundleAccumulator,
    PackedHV,
)
from .metrics import accuracy

__all__ = ["CentroidClassifier"]

#: One unit of streamed training work: an encoded batch plus its labels.
LabelledChunk = Tuple[EncodedBatch, Sequence[Hashable]]


class CentroidClassifier:
    """Nearest-class-vector HDC classifier.

    Parameters
    ----------
    dim:
        Hyperspace dimensionality of the encoded samples.
    tie_break:
        Majority tie policy for bundling class vectors (classes with an
        even number of samples can tie per-bit); see
        :func:`repro.hdc.ops.majority_from_counts`.
    seed:
        Randomness for the ``"random"`` tie policy (and nothing else —
        training itself is deterministic).

    The classifier consumes *already encoded* hypervectors; composing it
    with an encoding function is the caller's job (see
    :mod:`repro.experiments.classification` for the paper's pipelines).
    This keeps the learning core independent of any particular encoder.

    Example
    -------
    >>> import numpy as np
    >>> x = np.vstack([np.zeros((3, 16)), np.ones((3, 16))]).astype(np.uint8)
    >>> clf = CentroidClassifier(dim=16, tie_break="zeros")
    >>> _ = clf.fit(x, ["lo", "lo", "lo", "hi", "hi", "hi"])
    >>> noisy = np.zeros(16, dtype=np.uint8); noisy[0] = 1
    >>> clf.predict(noisy)
    ['lo']
    >>> clf.score(x, ["lo", "lo", "lo", "hi", "hi", "hi"])
    1.0
    """

    def __init__(
        self, dim: int, tie_break: TieBreak = "random", seed: SeedLike = None
    ) -> None:
        if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 1:
            raise InvalidParameterError(f"dim must be a positive integer, got {dim!r}")
        self._dim = int(dim)
        self._tie_break = tie_break
        self._rng = ensure_rng(seed)
        # One streaming majority accumulator per class.  Its ``signed``
        # view equals the classic Σ (2·bit − 1) accumulator exactly.
        self._accumulators: dict[Hashable, BundleAccumulator] = {}
        self._class_vectors: dict[Hashable, np.ndarray] | None = None
        self._packed_table: PackedHV | None = None
        self._class_order: list[Hashable] = []
        self._version = 0

    # -- properties -------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Hyperspace dimensionality the classifier was created for."""
        return self._dim

    @property
    def version(self) -> int:
        """Counter bumped by every mutation; derived caches key on it."""
        return self._version

    @property
    def classes(self) -> list[Hashable]:
        """Classes seen so far, in first-seen order."""
        return list(self._accumulators.keys())

    @property
    def num_samples(self) -> int:
        """Net training samples across all classes (adds minus forgets).

        >>> import numpy as np
        >>> clf = CentroidClassifier(dim=4, tie_break="zeros")
        >>> _ = clf.fit(np.eye(4, dtype=np.uint8), [0, 0, 1, 1])
        >>> clf.num_samples
        4
        """
        return sum(acc.total for acc in self._accumulators.values())

    def class_vector(self, label: Hashable) -> np.ndarray:
        """The binary prototype ``M_i`` of ``label`` (built on demand)."""
        self._materialise()
        assert self._class_vectors is not None
        if label not in self._class_vectors:
            raise KeyError(f"unknown class {label!r}")
        return self._class_vectors[label]

    def packed_class_vector(self, label: Hashable) -> PackedHV:
        """The prototype of ``label`` in bit-packed form."""
        self._materialise()
        assert self._packed_table is not None
        if label not in self._class_vectors:  # type: ignore[operator]
            raise KeyError(f"unknown class {label!r}")
        return self._packed_table[self._class_order.index(label)]

    # -- training ----------------------------------------------------------------
    def _check_batch(self, encoded: EncodedBatch) -> EncodedBatch:
        return as_encoded_batch(encoded, self._dim, "CentroidClassifier")

    @staticmethod
    def _label_masks(
        labels: Sequence[Hashable], count: int
    ) -> list[tuple[Hashable, np.ndarray]]:
        """``(label, row mask)`` pairs in first-seen order.

        First-seen order (not set order): class insertion order decides
        nearest-class tie resolution, so it must be deterministic and
        must not depend on how the samples are sharded.
        """
        labels = list(labels)
        if len(labels) != count:
            raise InvalidParameterError(
                f"got {count} samples but {len(labels)} labels"
            )
        # One dict pass assigns codes in first-seen order; each mask is
        # then a vectorised comparison against the code array.
        codes_of: dict = {}
        codes = np.fromiter(
            (codes_of.setdefault(label, len(codes_of)) for label in labels),
            dtype=np.intp,
            count=count,
        )
        return [(label, codes == code) for label, code in codes_of.items()]

    def _invalidate(self) -> None:
        self._class_vectors = None
        self._packed_table = None
        self._version += 1

    def partial_fit(self, chunks: Iterable[LabelledChunk]) -> "CentroidClassifier":
        """Canonical chunked reducer: stream labelled chunks into the model.

        ``chunks`` is any iterable of ``(encoded, labels)`` pairs — an
        in-memory list, a generator over a
        :class:`~repro.streaming.ChunkSource`, or a single-element list
        (which is exactly what :meth:`fit` passes).  Every chunk is
        reduced to per-class bundle statistics (:meth:`shard_counts`)
        and folded in with :meth:`absorb_counts`; because bundle counts
        are integer sums, the result is **bit-identical to one
        monolithic** :meth:`fit` over the concatenated samples for any
        chunking, and peak memory is O(chunk), not O(n).  Returns
        ``self`` for chaining.

        Example
        -------
        >>> import numpy as np
        >>> x = np.eye(8, dtype=np.uint8)
        >>> y = [0, 1] * 4
        >>> serial = CentroidClassifier(dim=8, tie_break="zeros").fit(x, y)
        >>> chunked = CentroidClassifier(dim=8, tie_break="zeros").partial_fit(
        ...     (x[s:s + 3], y[s:s + 3]) for s in range(0, 8, 3))
        >>> bool(np.array_equal(chunked.class_vector(0), serial.class_vector(0)))
        True
        """
        for encoded, labels in chunks:
            batch = self._check_batch(encoded)
            # Accumulate straight into the persistent per-class counts —
            # one pass, no transient accumulators on the online hot path.
            # shard_counts/absorb_counts are the pure/merge split of this
            # same reduction for workers that cannot share state.
            for label, mask in self._label_masks(labels, batch.shape[0]):
                if label not in self._accumulators:
                    self._accumulators[label] = BundleAccumulator(self._dim)
                self._accumulators[label].add(batch[mask])
            self._invalidate()
        return self

    def fit(self, encoded: EncodedBatch, labels: Sequence[Hashable]) -> "CentroidClassifier":
        """Single-pass training: bundle each class's samples (Section 2.2).

        A thin wrapper over :meth:`partial_fit` with one chunk.  May be
        called repeatedly; accumulators keep growing, which makes the
        classifier natively incremental (a property HDC is praised for).
        Returns ``self`` for chaining.
        """
        return self.partial_fit([(encoded, labels)])

    def shard_counts(
        self, encoded: EncodedBatch, labels: Sequence[Hashable]
    ) -> dict[Hashable, BundleAccumulator]:
        """Per-class bundle statistics of one training chunk (pure).

        The reduce step of the canonical chunked reducer: a mapping from
        label to a fresh :class:`~repro.hdc.packed.BundleAccumulator`,
        keyed in first-seen order, computed without touching the
        classifier's state.  :meth:`partial_fit` folds these in with
        :meth:`absorb_counts`; parallel trainers
        (:func:`repro.runtime.parallel.fit_classifier_sharded`) compute
        them on worker threads and absorb in shard order — both
        bit-identical to one serial :meth:`fit` over the concatenated
        samples.

        Example
        -------
        >>> import numpy as np
        >>> clf = CentroidClassifier(dim=8, tie_break="zeros")
        >>> x = np.eye(8, dtype=np.uint8)
        >>> y = [0, 0, 1, 1, 0, 1, 1, 0]
        >>> serial = CentroidClassifier(dim=8, tie_break="zeros").fit(x, y)
        >>> sharded = clf.absorb_counts(clf.shard_counts(x[:5], y[:5]))
        >>> sharded = clf.absorb_counts(clf.shard_counts(x[5:], y[5:]))
        >>> bool(np.array_equal(clf.class_vector(0), serial.class_vector(0)))
        True
        """
        batch = self._check_batch(encoded)
        shard: dict[Hashable, BundleAccumulator] = {}
        for label, mask in self._label_masks(labels, batch.shape[0]):
            acc = BundleAccumulator(self._dim)
            acc.add(batch[mask])
            shard[label] = acc
        return shard

    def absorb_counts(
        self, shard: dict[Hashable, BundleAccumulator]
    ) -> "CentroidClassifier":
        """Fold a :meth:`shard_counts` result into the classifier.

        Merging is integer addition of per-class counts, so absorbing
        shards in sample order reproduces a serial :meth:`fit` exactly
        (bundle counts commute; class insertion order is the shard-order
        first-seen order, matching the serial rule).  Returns ``self``.
        """
        for label, acc in shard.items():
            if acc.dim != self._dim:
                raise DimensionMismatchError(self._dim, acc.dim, "absorb_counts")
            if label not in self._accumulators:
                self._accumulators[label] = BundleAccumulator(self._dim)
            self._accumulators[label].merge(acc)
        self._invalidate()
        return self

    def forget(
        self, encoded: EncodedBatch, labels: Sequence[Hashable]
    ) -> "CentroidClassifier":
        """Remove previously fitted samples from their class accumulators.

        The exact inverse of :meth:`fit` on the same ``(encoded, labels)``
        pair: per-class bundle counts are integer sums, so subtracting a
        batch restores the accumulator state bit for bit.  This is the
        decremental half of online serving (expiring stale traffic from a
        live model); labels never seen by :meth:`fit` are rejected, as is
        forgetting more samples of a class than it currently holds (the
        likely double-expiry bug, which would silently corrupt counts).
        A class whose last sample is forgotten is removed entirely, so
        :meth:`predict` can never answer with an empty class.
        Returns ``self`` for chaining.

        Example
        -------
        >>> import numpy as np
        >>> x = np.eye(4, dtype=np.uint8)
        >>> clf = CentroidClassifier(dim=4, tie_break="zeros").fit(x, [0, 0, 1, 1])
        >>> before = clf.class_vector(0).copy()
        >>> noise = np.ones((1, 4), dtype=np.uint8)
        >>> _ = clf.fit(noise, [0]).forget(noise, [0])
        >>> bool(np.array_equal(clf.class_vector(0), before))
        True
        """
        batch = self._check_batch(encoded)
        masks = self._label_masks(labels, batch.shape[0])
        for label, mask in masks:
            if label not in self._accumulators:
                raise InvalidParameterError(
                    f"label {label!r} was never seen by fit()"
                )
            if int(mask.sum()) > self._accumulators[label].total:
                raise InvalidParameterError(
                    f"cannot forget {int(mask.sum())} sample(s) of class "
                    f"{label!r}: it only holds {self._accumulators[label].total}"
                )
        # Validate every class before mutating any, so a rejected call
        # leaves the model untouched.
        for label, mask in masks:
            acc = self._accumulators[label]
            acc.subtract(batch[mask])
            if acc.total == 0:
                # Fully expired: drop the class so predict can never
                # return a label backed by zero samples (and a full
                # fit/forget round trip restores the pre-fit model).
                del self._accumulators[label]
        self._invalidate()
        return self

    def refine(
        self, encoded: EncodedBatch, labels: Sequence[Hashable], epochs: int = 1
    ) -> int:
        """Perceptron-style retraining on misclassified samples (extension).

        For every misclassified sample, add its hypervector to the true
        class accumulator and subtract it from the predicted one.
        Returns the number of updates performed over all epochs.
        """
        if epochs < 0:
            raise InvalidParameterError(f"epochs must be non-negative, got {epochs}")
        batch = self._check_batch(encoded)
        labels = list(labels)
        if len(labels) != batch.shape[0]:
            raise InvalidParameterError(
                f"got {batch.shape[0]} samples but {len(labels)} labels"
            )
        updates = 0
        for _ in range(epochs):
            predictions = self.predict(batch)
            changed = False
            for row, (true, pred) in enumerate(zip(labels, predictions)):
                if true == pred:
                    continue
                if true not in self._accumulators:
                    raise InvalidParameterError(
                        f"label {true!r} was never seen by fit()"
                    )
                sample = batch[row]
                self._accumulators[true].add(sample)
                self._accumulators[pred].subtract(sample)
                updates += 1
                changed = True
            self._invalidate()
            if not changed:
                break
        return updates

    # -- inference ---------------------------------------------------------------
    def _materialise(self) -> None:
        if not self._accumulators:
            raise EmptyModelError("classifier has no training data")
        if self._class_vectors is not None and self._packed_table is not None:
            return
        vectors: dict[Hashable, np.ndarray] = {}
        for label, acc in self._accumulators.items():
            # Threshold the raw counts rather than acc.finalize(): refine()
            # may legitimately drive a class's net total to zero or below
            # (more subtractions than additions), and the majority rule
            # 2·counts > total is still well defined there — matching the
            # signed-accumulator formulation, which had no emptiness notion.
            vectors[label] = majority_from_counts(
                acc.counts, acc.total, tie_break=self._tie_break, seed=self._rng
            )
        self._class_vectors = vectors
        self._class_order = list(vectors.keys())
        self._packed_table = PackedHV.pack(
            np.stack([vectors[c] for c in self._class_order], axis=0)
        )

    def prepare(self) -> "CentroidClassifier":
        """Materialise the packed prototype table eagerly; returns ``self``.

        Prototypes are normally built lazily on the first prediction,
        which consumes the tie-break RNG.  Sharded inference calls
        ``prepare()`` once *before* fanning prediction chunks out to a
        worker pool, so the workers only ever read frozen state (and the
        RNG draw order matches a serial run exactly).
        """
        self._materialise()
        return self

    def decision_distances(
        self, encoded: EncodedBatch, backend: str | None = None
    ) -> tuple[np.ndarray, list[Hashable]]:
        """Distance of each sample to every class-vector.

        Returns ``(distances, class_order)`` with ``distances`` of shape
        ``(n, k)``, computed against the packed prototype table through
        the similarity-kernel subsystem (:mod:`repro.hdc.kernels`).
        ``backend`` forces ``"gemm"``/``"xor"``; the default ``"auto"``
        dispatches on the batch size, and every choice is bit-identical.
        """
        self._materialise()
        assert self._packed_table is not None
        batch = self._check_batch(encoded)
        distances = pairwise_hamming(batch, self._packed_table, backend=backend)
        return distances, list(self._class_order)

    def predict(self, encoded: EncodedBatch, backend: str | None = None) -> list[Hashable]:
        """Nearest class-vector labels for a batch of encoded samples."""
        distances, order = self.decision_distances(encoded, backend=backend)
        winners = np.argmin(distances, axis=-1)
        return [order[i] for i in winners]

    def score(
        self,
        encoded: EncodedBatch,
        labels: Sequence[Hashable],
        backend: str | None = None,
    ) -> float:
        """Accuracy of :meth:`predict` against the provided labels."""
        predictions = self.predict(encoded, backend=backend)
        return accuracy(np.asarray(list(labels), dtype=object),
                        np.asarray(predictions, dtype=object))
