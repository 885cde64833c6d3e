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
  two.  The integer model scores exactly from its counts and the packed
  label table (float32 while ``Σ_d |total − 2·counts_d|`` stays below
  ``2**24``, float64 above), so a query's answer does not depend on the
  batch it arrives in.
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

#: Dimensions per block of the integer model's scoring pass, which
#: bounds its transient; a multiple of 8, so blocks start on a byte.
SCORE_BLOCK_BITS = 1024


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
        self._version = 0

    def _invalidate(self) -> None:
        self._model = None
        self._packed_model = None
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
        bundle (:meth:`shard`) and folded in with :meth:`absorb`;
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
            self.absorb(self.shard(encoded, y))
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

    def shard(self, encoded: EncodedBatch, y: np.ndarray) -> BundleAccumulator:
        """Bundle statistics of one training shard (pure).

        Computes the ``φ(x_i) ⊗ φ_ℓ(y_i)`` terms of these samples into a
        *fresh* :class:`~repro.hdc.packed.BundleAccumulator`, leaving the
        model untouched (only :attr:`dim` and the label embedding are
        read) — the unit of parallel training work.  Folding the shards
        back with :meth:`absorb` (in any order; integer counts commute)
        reproduces a serial :meth:`fit` bit for bit.

        Example
        -------
        >>> import numpy as np
        >>> from repro.basis import LevelBasis
        >>> emb = LevelBasis(4, 16, seed=0).linear_embedding(0.0, 1.0)
        >>> x = np.random.default_rng(1).integers(0, 2, (6, 16)).astype(np.uint8)
        >>> y = np.linspace(0.0, 1.0, 6)
        >>> serial = HDRegressor(emb, tie_break="zeros").fit(x, y)
        >>> sharded = HDRegressor(emb, tie_break="zeros")
        >>> _ = sharded.absorb(sharded.shard(x[:3], y[:3]))
        >>> _ = sharded.absorb(sharded.shard(x[3:], y[3:]))
        >>> bool(np.array_equal(serial.model, sharded.model))
        True
        """
        batch, y = self._check_xy(encoded, y)
        acc = BundleAccumulator(self._dim)
        acc.add(self._bind_labels(batch, y))
        return acc

    def absorb(self, shard: BundleAccumulator) -> "HDRegressor":
        """Fold a :meth:`shard` result into the model; returns ``self``."""
        if not isinstance(shard, BundleAccumulator):
            raise InvalidParameterError(
                "regression models absorb a BundleAccumulator delta, "
                f"got {type(shard).__name__}"
            )
        self._bundle.merge(shard)
        self._invalidate()
        return self

    def prepare(self) -> "HDRegressor":
        """Threshold the binary model eagerly; returns ``self``.

        The binary model is normally thresholded lazily on first use,
        consuming the tie-break RNG.  The serving engine and
        :func:`~repro.serve.persist.save_model` call ``prepare()`` up
        front, so predictions only ever read frozen state; every
        mutation drops it again.  The integer model scores straight
        from its counts, so there is nothing to prepare.
        """
        if self._bundle.total > 0 and self.model_mode == "binary":
            _ = self.packed_model
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

    def _label_scores(self, batch: EncodedBatch) -> np.ndarray:
        """Alignment of each query with each label grid point, in ``[−1, 1]``.

        For the binary model this is ``1 − 2δ(M ⊗ φ(x̂), L_k)``, computed
        against the packed label table through the similarity-kernel
        subsystem; for the
        integer model it is the normalised inner product between the
        signed accumulator (sign-flipped by the query bits) and the
        bipolar label vectors — the same quantity without the majority
        quantisation in between.  ``score[q, k] = Σ_d signed_d ·
        (1 − 2·bits_qd) · L_kd = colsum(A)_k − 2 · (bits @ A)_qk`` with
        ``A = signed ⊙ Lᵀ`` (``signed = total − 2·counts``, ``L`` the
        bipolar label table), built and summed in blocks of
        :data:`SCORE_BLOCK_BITS` dimensions.  Every partial sum is an
        integer bounded by ``Σ_d |signed_d|``, so float32 below ``2**24``
        and float64 above make each score exact before it is normalised:
        the same bytes in any batch, blocking or BLAS thread count.
        """
        if self.model_mode == "binary":
            queries = batch if is_packed(batch) else PackedHV.pack(batch)
            unbound = packed_bind(queries, self.packed_model)
            distances = pairwise_hamming(unbound, self.label_embedding.basis.packed)
            return 1.0 - 2.0 * distances
        total = self._bundle.total
        signed = total - 2 * np.asarray(self._bundle.counts, dtype=np.int64)
        dtype = np.float32 if int(np.abs(signed).sum()) < 2**24 else np.float64
        signed = signed.astype(dtype)
        labels = self.label_embedding.basis.packed.data
        queries = (batch if is_packed(batch) else PackedHV.pack(batch)).data
        colsum = np.zeros(labels.shape[0], dtype=dtype)
        product = np.zeros((queries.shape[0], labels.shape[0]), dtype=dtype)
        for lo in range(0, self._dim, SCORE_BLOCK_BITS):
            hi = min(self._dim, lo + SCORE_BLOCK_BITS)
            cols = slice(lo // 8, -(-hi // 8))
            # This block of A = signed ⊙ Lᵀ, built in place.
            block = np.unpackbits(labels[:, cols], axis=-1, count=hi - lo).T.astype(dtype)
            block *= -2
            block += 1
            block *= signed[lo:hi, None]
            colsum += block.sum(axis=0)
            bits = np.unpackbits(queries[:, cols], axis=-1, count=hi - lo)
            product += bits.astype(dtype) @ block
        scores = colsum[None, :] - 2.0 * product
        return scores / (self._dim * total)

    def predict(self, encoded: EncodedBatch) -> np.ndarray:
        """Decode predicted labels for a batch of encoded samples."""
        batch = self._check_batch(encoded)
        if self._bundle.total == 0:
            raise EmptyModelError("regressor has no training data")
        grid = self.label_embedding.discretizer.points
        scores = self._label_scores(batch)
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

    def score(self, encoded: EncodedBatch, y: np.ndarray) -> float:
        """Mean squared error of :meth:`predict` against ``y``."""
        return mean_squared_error(
            np.asarray(y, dtype=np.float64), self.predict(encoded)
        )
