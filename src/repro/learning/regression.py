"""HDC regression (Section 2.3): a single-hypervector memory model.

Training bundles the *bindings* of each encoded sample with its encoded
label into one model hypervector:

``M = ⊕_i φ(x_i) ⊗ φ_ℓ(ℓ(x_i))``

Inference exploits binding's self-inverse property: ``M ⊗ φ(x̂)`` is
approximately ``φ_ℓ(ℓ(x̂))`` plus noise from the non-matching terms, so a
cleanup against the label basis recovers the label hypervector, and the
invertible label encoding maps it back to a real number.

The label encoder is an :class:`~repro.basis.base.Embedding` over a
*level* basis (the paper always encodes labels with level-hypervectors so
that nearby labels have similar hypervectors and the bundle noise averages
out instead of scattering).

The memory is a streaming :class:`~repro.hdc.packed.BundleAccumulator`
(O(d) integers regardless of sample count), the materialised model and
the label table are kept bit-packed, and the binary decode runs as XOR +
popcount.  Encoded samples may arrive as unpacked ``(n, d)`` bit arrays
or as a packed :class:`~repro.hdc.packed.PackedHV` batch — results are
identical.

Beyond the paper, :class:`HDRegressor` supports:

* a similarity-weighted decode (``decode="weighted"``) that replaces the
  hard ``arg min`` cleanup with an above-chance-similarity-weighted
  average of the grid values, and
* an unquantised model (``model="integer"``) that skips the final
  majority threshold and scores label candidates against the signed
  accumulator ``Σ_i bipolar(φ(x_i) ⊗ φ_ℓ(y_i))`` directly — the common
  practice in HDC implementations, equivalent to keeping the bundle as an
  integer vector instead of a binary one.  The paper's formal model is
  the ``"binary"`` (majority) one; an ablation benchmark compares the
  two.  The integer model folds the accumulator into a ``(d, k)``
  scoring table once per model version (rebuilt after any mutation) and
  scores exactly against it: float32 while ``Σ_d |total − 2·counts_d|``
  stays below ``2**24``, float64 above, so a query's answer does not
  depend on the batch it arrives in.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from .._rng import SeedLike, ensure_rng
from ..basis.base import Embedding
from ..exceptions import EmptyModelError, InvalidParameterError
from ..hdc.coerce import EncodedBatch, as_encoded_batch
from ..hdc.hypervector import BIT_DTYPE
from ..hdc.kernels import pairwise_hamming
from ..hdc.ops import TieBreak
from ..hdc.packed import (
    BundleAccumulator,
    PackedHV,
    is_packed,
    packed_bind,
)
from .metrics import mean_squared_error

__all__ = ["HDRegressor"]

_DECODE_MODES = ("argmin", "weighted")
_MODEL_MODES = ("binary", "integer")

#: One unit of streamed training work: an encoded batch plus its targets.
TargetChunk = Tuple[EncodedBatch, np.ndarray]


class HDRegressor:
    """Bind–bundle–cleanup regression model.

    Parameters
    ----------
    label_embedding:
        Invertible label encoding ``φ_ℓ`` (an embedding over a level basis
        covering the label range).
    tie_break, seed:
        Majority tie policy for the final bundling.
    decode:
        ``"argmin"`` (the paper's cleanup) or ``"weighted"``
        (similarity-weighted average over the label grid; extension).

    Example
    -------
    >>> import numpy as np
    >>> from repro.basis import LevelBasis
    >>> emb = LevelBasis(32, 2048, seed=0).linear_embedding(0.0, 1.0)
    >>> x = emb.encode_packed(np.linspace(0.0, 1.0, 40))  # identity task
    >>> y = np.linspace(0.0, 1.0, 40)
    >>> model = HDRegressor(emb, seed=1).fit(x, y)
    >>> model.num_samples
    40
    >>> float(abs(model.predict(x[:1])[0] - y[0]) < 0.2)
    1.0
    """

    def __init__(
        self,
        label_embedding: Embedding,
        tie_break: TieBreak = "random",
        seed: SeedLike = None,
        decode: str = "argmin",
        model: str = "binary",
    ) -> None:
        if decode not in _DECODE_MODES:
            raise InvalidParameterError(
                f"decode must be one of {_DECODE_MODES}, got {decode!r}"
            )
        if model not in _MODEL_MODES:
            raise InvalidParameterError(
                f"model must be one of {_MODEL_MODES}, got {model!r}"
            )
        self.label_embedding = label_embedding
        self.decode_mode = decode
        self.model_mode = model
        self._tie_break = tie_break
        self._rng = ensure_rng(seed)
        self._dim = label_embedding.dim
        self._bundle = BundleAccumulator(self._dim)
        self._model: np.ndarray | None = None
        self._packed_model: PackedHV | None = None
        self._scoring: tuple[np.ndarray, np.ndarray, int] | None = None
        self._version = 0

    def _invalidate(self) -> None:
        self._model = None
        self._packed_model = None
        self._scoring = None
        self._version += 1

    @property
    def dim(self) -> int:
        """Hyperspace dimensionality."""
        return self._dim

    @property
    def version(self) -> int:
        """Counter bumped by every mutation; derived caches key on it."""
        return self._version

    @property
    def num_samples(self) -> int:
        """Number of training samples bundled into the model."""
        return self._bundle.total

    def _check_batch(self, encoded: EncodedBatch) -> EncodedBatch:
        return as_encoded_batch(encoded, self._dim, "HDRegressor")

    def _check_xy(self, encoded: EncodedBatch, y: np.ndarray) -> tuple[EncodedBatch, np.ndarray]:
        batch = self._check_batch(encoded)
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (batch.shape[0],):
            raise InvalidParameterError(
                f"y must have shape ({batch.shape[0]},), got {y.shape}"
            )
        return batch, y

    def _bind_labels(self, batch: EncodedBatch, y: np.ndarray) -> EncodedBatch:
        """The ``φ(x_i) ⊗ φ_ℓ(y_i)`` terms, in the batch's representation."""
        if is_packed(batch):
            return packed_bind(batch, self.label_embedding.encode_packed(y))
        return np.bitwise_xor(batch, self.label_embedding.encode(y))

    def partial_fit(self, chunks: Iterable[TargetChunk]) -> "HDRegressor":
        """Canonical chunked reducer: stream ``(encoded, y)`` chunks in.

        ``chunks`` is any iterable of ``(encoded, y)`` pairs — an
        in-memory list, a generator over a
        :class:`~repro.streaming.ChunkSource`, or the single-element
        list :meth:`fit` passes.  Every chunk is reduced to a fresh
        bundle (:meth:`shard_bundle`) and folded in with :meth:`absorb`;
        integer counts commute, so the result is **bit-identical to one
        monolithic** :meth:`fit` over the concatenated samples for any
        chunking, with O(chunk) peak memory.  Returns ``self``.

        Example
        -------
        >>> import numpy as np
        >>> from repro.basis import LevelBasis
        >>> emb = LevelBasis(4, 16, seed=0).linear_embedding(0.0, 1.0)
        >>> y = np.linspace(0.0, 1.0, 8)
        >>> x = emb.encode(y)
        >>> serial = HDRegressor(emb, tie_break="zeros").fit(x, y)
        >>> chunked = HDRegressor(emb, tie_break="zeros").partial_fit(
        ...     (x[s:s + 3], y[s:s + 3]) for s in range(0, 8, 3))
        >>> bool(np.array_equal(chunked.model, serial.model))
        True
        """
        for encoded, y in chunks:
            batch, targets = self._check_xy(encoded, y)
            # Accumulate straight into the persistent bundle — one pass,
            # no transient accumulator on the online hot path (the
            # shard_bundle/absorb pair is the stateless form for workers).
            self._bundle.add(self._bind_labels(batch, targets))
            self._invalidate()
        return self

    def fit(self, encoded: EncodedBatch, y: np.ndarray) -> "HDRegressor":
        """Accumulate ``φ(x_i) ⊗ φ_ℓ(y_i)`` terms into the model bundle.

        A thin wrapper over :meth:`partial_fit` with one chunk.
        Incremental: repeated calls keep extending the same memory.
        Returns ``self`` for chaining.
        """
        return self.partial_fit([(encoded, y)])

    def forget(self, encoded: EncodedBatch, y: np.ndarray) -> "HDRegressor":
        """Remove previously fitted ``(encoded, y)`` samples from the memory.

        The exact inverse of :meth:`fit` on the same batch: the bound
        terms ``φ(x_i) ⊗ φ_ℓ(y_i)`` are subtracted from the integer
        bundle, restoring its counts bit for bit — the decremental half
        of online serving.  Forgetting more samples than the memory
        holds is rejected (the likely double-expiry bug, which would
        silently corrupt the counts).  Returns ``self`` for chaining.

        Example
        -------
        >>> import numpy as np
        >>> from repro.basis import LevelBasis
        >>> emb = LevelBasis(4, 16, seed=0).linear_embedding(0.0, 1.0)
        >>> x = np.random.default_rng(1).integers(0, 2, (6, 16)).astype(np.uint8)
        >>> y = np.linspace(0.0, 1.0, 6)
        >>> model = HDRegressor(emb, tie_break="zeros").fit(x, y)
        >>> before = model.model.copy()
        >>> _ = model.fit(x[:2], y[:2]).forget(x[:2], y[:2])
        >>> bool(np.array_equal(model.model, before))
        True
        """
        batch, y = self._check_xy(encoded, y)
        if batch.shape[0] > self._bundle.total:
            raise InvalidParameterError(
                f"cannot forget {batch.shape[0]} sample(s): the model only "
                f"holds {self._bundle.total}"
            )
        self._bundle.subtract(self._bind_labels(batch, y))
        self._invalidate()
        return self

    def shard_bundle(self, encoded: EncodedBatch, y: np.ndarray) -> BundleAccumulator:
        """Bundle statistics of one training shard (pure).

        Computes the ``φ(x_i) ⊗ φ_ℓ(y_i)`` terms of these samples into a
        *fresh* :class:`~repro.hdc.packed.BundleAccumulator`, leaving the
        model untouched — the unit of parallel training work.  Folding
        the shards back with :meth:`absorb` (in any order; integer counts
        commute) reproduces a serial :meth:`fit` bit for bit.

        Example
        -------
        >>> import numpy as np
        >>> from repro.basis import LevelBasis
        >>> emb = LevelBasis(4, 16, seed=0).linear_embedding(0.0, 1.0)
        >>> x = np.random.default_rng(1).integers(0, 2, (6, 16)).astype(np.uint8)
        >>> y = np.linspace(0.0, 1.0, 6)
        >>> serial = HDRegressor(emb, tie_break="zeros").fit(x, y)
        >>> sharded = HDRegressor(emb, tie_break="zeros")
        >>> _ = sharded.absorb(sharded.shard_bundle(x[:3], y[:3]))
        >>> _ = sharded.absorb(sharded.shard_bundle(x[3:], y[3:]))
        >>> bool(np.array_equal(serial.model, sharded.model))
        True
        """
        batch, y = self._check_xy(encoded, y)
        acc = BundleAccumulator(self._dim)
        acc.add(self._bind_labels(batch, y))
        return acc

    def absorb(self, shard: BundleAccumulator) -> "HDRegressor":
        """Fold a :meth:`shard_bundle` result into the model; returns ``self``."""
        self._bundle.merge(shard)
        self._invalidate()
        return self

    def prepare(self) -> "HDRegressor":
        """Build the frozen scoring state eagerly; returns ``self``.

        The binary model is normally thresholded lazily on first use,
        consuming the tie-break RNG; the integer model builds its
        ``(d, k)`` scoring table (:meth:`_integer_table`) lazily on
        first use.  Sharded inference and the serving engine call
        ``prepare()`` before fanning chunks out to worker threads so the
        workers only read frozen state.  Every mutation drops that
        state again.
        """
        if self._bundle.total > 0:
            if self.model_mode == "binary":
                _ = self.packed_model
            else:
                self._integer_table()
        return self

    @property
    def model(self) -> np.ndarray:
        """The bundled model hypervector ``M`` (majority of all terms)."""
        if self._bundle.total == 0:
            raise EmptyModelError("regressor has no training data")
        if self._model is None:
            self._model = self._bundle.finalize(
                tie_break=self._tie_break, seed=self._rng
            ).astype(BIT_DTYPE)
        return self._model

    @property
    def packed_model(self) -> PackedHV:
        """The model hypervector ``M`` in bit-packed form."""
        if self._packed_model is None:
            self._packed_model = PackedHV.pack(self.model)
        return self._packed_model

    def _integer_table(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The integer model's frozen scoring state ``(colsum(A), A, d·total)``.

        ``A = signed ⊙ Lᵀ`` of shape ``(d, k)``, with ``signed = total −
        2·counts`` the signed accumulator and ``L`` the bipolar label
        table.  It depends only on the model version, so it is built
        once (here or in :meth:`prepare`) and dropped by every mutation;
        it is derived state and never persisted.  Every entry of
        ``bits @ A`` and ``colsum(A)`` is an integer whose partial sums
        are bounded by ``Σ_d |signed_d|``, so the table is float32 when
        that bound is below ``2**24`` and float64 otherwise: either way
        each score is exact, whatever the batch shape, BLAS blocking or
        thread count.
        """
        table = self._scoring
        if table is None:
            total = self._bundle.total
            signed = total - 2 * np.asarray(self._bundle.counts, dtype=np.int64)
            dtype = np.float32 if int(np.abs(signed).sum()) < 2**24 else np.float64
            label_bipolar = 1.0 - 2.0 * self.label_embedding.basis.vectors.astype(dtype)
            weighted = signed.astype(dtype)[:, None] * label_bipolar.T  # (d, k)
            colsum = weighted.sum(axis=0, dtype=np.float64).astype(dtype)
            table = (colsum, weighted, self._dim * max(total, 1))
            self._scoring = table
        return table

    def _label_scores(self, batch: EncodedBatch, backend: str | None = None) -> np.ndarray:
        """Alignment of each query with each label grid point, in ``[−1, 1]``.

        For the binary model this is ``1 − 2δ(M ⊗ φ(x̂), L_k)``, computed
        against the packed label table through the similarity-kernel
        subsystem (``backend`` selects GEMM/XOR; bit-identical); for the
        integer model it is the normalised inner product between the
        signed accumulator (sign-flipped by the query bits) and the
        bipolar label vectors — the same quantity without the majority
        quantisation in between.  ``score[q, k] = Σ_d signed_d ·
        (1 − 2·bits_qd) · L_kd = colsum(A)_k − 2 · (bits @ A)_qk`` is
        computed exactly against the cached table (:meth:`_integer_table`)
        and only then normalised, so every row's scores are the same
        bytes in any batch.
        """
        if self.model_mode == "binary":
            queries = batch if is_packed(batch) else PackedHV.pack(batch)
            unbound = packed_bind(queries, self.packed_model)
            distances = pairwise_hamming(
                unbound, self.label_embedding.basis.packed, backend=backend
            )
            return 1.0 - 2.0 * distances
        colsum, weighted, norm = self._integer_table()
        bits = batch.unpack() if is_packed(batch) else batch
        scores = colsum[None, :] - 2.0 * (bits.astype(weighted.dtype) @ weighted)
        return scores / norm

    def predict(self, encoded: EncodedBatch, backend: str | None = None) -> np.ndarray:
        """Decode predicted labels for a batch of encoded samples.

        ``backend`` selects the similarity kernel used by the cleanup
        scan (:mod:`repro.hdc.kernels`); predictions are bit-identical
        for every choice.
        """
        batch = self._check_batch(encoded)
        if self._bundle.total == 0:
            raise EmptyModelError("regressor has no training data")
        grid = self.label_embedding.discretizer.points
        scores = self._label_scores(batch, backend=backend)
        if self.decode_mode == "argmin":
            return grid[np.argmax(scores, axis=-1)]
        # Weighted decode: weight each label grid point by its positive
        # alignment; fall back to argmax when no point clears zero.
        weights = np.clip(scores, 0.0, None)
        totals = weights.sum(axis=-1)
        out = np.empty(batch.shape[0], dtype=np.float64)
        degenerate = totals <= 1e-12
        if np.any(degenerate):
            out[degenerate] = grid[np.argmax(scores[degenerate], axis=-1)]
        good = ~degenerate
        if np.any(good):
            out[good] = (weights[good] * grid[None, :]).sum(axis=-1) / totals[good]
        return out

    def score(self, encoded: EncodedBatch, y: np.ndarray, backend: str | None = None) -> float:
        """Mean squared error of :meth:`predict` against ``y``."""
        return mean_squared_error(
            np.asarray(y, dtype=np.float64), self.predict(encoded, backend=backend)
        )
