"""Whole-split record encoding: the runtime's batched encode stage.

:class:`BatchEncoder` turns an ``(n, k)`` feature matrix into ``n``
record hypervectors ``⊕_{i=1}^{k} K_i ⊗ V_{idx(x_{t,i})}`` — the
key–value encoding used by the Table 1 classification pipeline — with
three properties the per-call encoders in :mod:`repro.hdc.encoders` do
not give on their own:

* **packed majority kernel** — the ``K_i ⊗ B_m`` bindings are
  precomputed once per encoder into a ``(k, m, ⌈d/64⌉)`` table of
  64-bit words.  A block of records gathers its ``k`` channel rows with
  one ``take`` and reduces them with a carry-save adder tree whose
  layers are a handful of bitwise ufuncs over stacked channel groups
  (O(log k) numpy calls per block).  The resulting count bit-planes are
  compared with ``⌊k/2⌋`` to give packed "above" and "tied" masks, and
  the tie policy is applied on those words.  No per-bit byte sum and no
  ``(rows, k, d)`` gather cube;
* **chunk-parallel counts** — the kernel is pure (no RNG), so chunks
  can run on a :class:`~repro.runtime.pool.WorkerPool` while the
  tie-breaking draws run serially over chunks in a fixed order.  The
  output is **bit-identical** for any worker count, and identical to
  :func:`repro.hdc.encoders.encode_keyvalue_records` with the same
  ``chunk_size``;
* **packed output** — ``packed=True`` lands the corpus directly as a
  :class:`~repro.hdc.packed.PackedHV` of ``n × ceil(d / 8)`` bytes.

:meth:`BatchEncoder.chunk_counts` keeps the byte-count reference (gather
cube + integer sum) for the streaming encoder and the ``"ref"`` ingest
path, which is what the kernel is checked against.

Example
-------
>>> import numpy as np
>>> from repro.basis import LevelBasis
>>> from repro.hdc.hypervector import random_hypervectors
>>> from repro.runtime import BatchEncoder
>>> basis = LevelBasis(8, 64, seed=0)
>>> emb = basis.linear_embedding(0.0, 1.0)
>>> keys = random_hypervectors(3, 64, seed=1)
>>> enc = BatchEncoder(keys, emb)
>>> hvs = enc.encode(np.random.default_rng(2).random((5, 3)), seed=3)
>>> hvs.shape
(5, 64)
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .._rng import SeedLike, ensure_rng
from ..basis.base import Embedding
from ..exceptions import DimensionMismatchError, InvalidParameterError
from ..hdc.encoders import DEFAULT_CHUNK_SIZE
from ..hdc.hypervector import BIT_DTYPE, as_hypervector
# majority_from_counts is the byte-count threshold the kernel reproduces;
# it stays importable here because perfbench/tracing.py wraps it by name.
from ..hdc.ops import _TIE_BREAKS, TieBreak, majority_from_counts  # noqa: F401
from ..hdc.packed import PackedHV, packed_width
from .pool import WorkerPool

__all__ = ["BatchEncoder"]

#: uint64 words per kernel block of gathered planes: the ``(k + 1, rows,
#: ⌈d/64⌉)`` stack of one block stays near 512 KiB, cache-resident.
_BLOCK_WORDS = 1 << 16

#: Tied bits under ``"alternate"`` take their dimension's parity; in the
#: MSB-first byte layout of ``np.packbits`` every odd dimension is one of
#: the bits ``0x55`` of its byte.
_ALTERNATE = np.uint64(0x5555555555555555)


def _csa_plan(k: int) -> tuple[list[tuple[np.ndarray, int]], list[tuple[int, int]]]:
    """Static carry-save schedule that sums ``k`` one-bit planes.

    Every layer works on a stack laid out as ``[X, Y, Z, rest, zero]``:
    ``G`` full adders add ``X[j] + Y[j] + Z[j]`` (all of one weight; a
    half adder uses the all-zero last plane as ``Z``) and leave
    ``[carry, sum, rest, zero]`` behind, which the next layer re-selects
    with one ``take``.  Returns ``(layers, compare)``: ``layers`` is the
    ``(selection, G)`` list (the first selection indexes the gathered
    channels, with ``k`` for the zero plane), ``compare`` the
    ``(plane, bit of ⌊k/2⌋)`` steps from the top count bit down.
    Planes of weight ``2**w > k`` are provably zero and are dropped.
    """
    weights: list = [0] * k
    layers = []
    while True:
        by_weight: dict[int, list[int]] = {}
        for i, w in enumerate(weights):
            if w is not None:
                by_weight.setdefault(w, []).append(i)
        if all(len(planes) == 1 for planes in by_weight.values()):
            break
        zero = len(weights)
        xs, ys, zs, added, rest, rest_w = [], [], [], [], [], []
        settled = True  # no carry can still arrive at this weight
        for w in sorted(by_weight):
            planes = by_weight[w]
            q, r = divmod(len(planes), 3)
            xs += planes[0:3 * q:3]
            ys += planes[1:3 * q:3]
            zs += planes[2:3 * q:3]
            added += [w] * q
            if r == 2 and (q or settled):
                xs.append(planes[-2])
                ys.append(planes[-1])
                zs.append(zero)
                added.append(w)
                r = 0
            rest += planes[len(planes) - r:]
            rest_w += [w] * r
            settled = settled and len(planes) == 1
        layers.append((np.array(xs + ys + zs + rest + [zero], dtype=np.intp), len(xs)))
        weights = (
            [w + 1 if 2 ** (w + 1) <= k else None for w in added] + added + rest_w
        )
    final = {w: i for i, w in enumerate(weights) if w is not None}
    zero = len(weights)
    half = k // 2
    compare = [
        (final.get(w, zero), (half >> w) & 1)
        for w in range(k.bit_length() - 1, -1, -1)
    ]
    return layers, compare


class BatchEncoder:
    """Vectorised key–value record encoder over whole splits.

    Encodes through a packed majority kernel: the ``k`` bound channel
    rows of a record are summed as 64-bit bit-planes by a carry-save
    adder tree and compared with ``k / 2`` on the words (see the module
    docstring), bit-identical to thresholding :meth:`chunk_counts`.

    Parameters
    ----------
    keys:
        ``(k, d)`` key hypervectors, one per feature channel (the ``K_i``
        of Section 6.1).
    embedding:
        The value embedding ``φ`` shared by all channels (discretizer +
        basis table).
    tie_break:
        Majority tie policy; see :func:`repro.hdc.ops.majority_from_counts`.
    chunk_size:
        Records per chunk: the unit of pool parallelism, and the RNG
        consumption pattern of the ``"random"`` tie policy — results
        depend on ``chunk_size`` (through tie draws) but **not** on the
        worker count.  The kernel's own transient is bounded separately,
        at about 512 KiB of gathered words per block.

    Example
    -------
    >>> import numpy as np
    >>> from repro.basis import LevelBasis
    >>> from repro.hdc.hypervector import random_hypervectors
    >>> emb = LevelBasis(4, 32, seed=0).linear_embedding(0.0, 1.0)
    >>> enc = BatchEncoder(random_hypervectors(2, 32, seed=1), emb, tie_break="zeros")
    >>> enc.encode(np.array([[0.1, 0.9]]), packed=True).shape
    (1, 32)
    """

    def __init__(
        self,
        keys: np.ndarray,
        embedding: Embedding,
        tie_break: TieBreak = "random",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        keys = as_hypervector(keys)
        if keys.ndim != 2:
            raise InvalidParameterError(f"keys must be a (k, d) table, got shape {keys.shape}")
        if keys.shape[1] != embedding.dim:
            raise DimensionMismatchError(keys.shape[1], embedding.dim, "BatchEncoder")
        if chunk_size < 1:
            raise InvalidParameterError(f"chunk_size must be positive, got {chunk_size}")
        self.embedding = embedding
        self.tie_break = tie_break
        self.chunk_size = int(chunk_size)
        self._keys = keys
        # Fused binding table: fused[i, m] = keys[i] ⊗ basis[m].  For the
        # paper's sizes (k=18, m≈12–720, d=10,000) this is a few MB and
        # removes the per-sample XOR from the encode hot loop.
        self._fused = np.bitwise_xor(
            keys[:, None, :], embedding.basis.vectors[None, :, :]
        )
        self._channel_index = np.arange(keys.shape[0])
        # The kernel's copy of the same table, packed into 64-bit words
        # (packbits byte order, zero-padded to whole words), followed by
        # m all-zero rows: the plane the adder tree's half adders read,
        # gathered like a (k+1)-th channel.
        k, m, d = self._fused.shape
        words = (d + 63) // 64
        table = np.zeros(((k + 1) * m, words * 8), dtype=np.uint8)
        table[: k * m, : packed_width(d)] = np.packbits(self._fused, axis=-1).reshape(k * m, -1)
        self._words = table.view(np.uint64)
        self._layers, self._compare = _csa_plan(k)
        first = self._layers[0][0] if self._layers else np.arange(k + 1)
        self._first_columns = np.minimum(first, k - 1)
        self._first_offsets = first * m
        valid = np.zeros(words * 8, dtype=np.uint8)
        valid[: packed_width(d)] = np.packbits(np.ones(d, dtype=np.uint8))
        self._valid = valid.view(np.uint64)
        self._block_rows = max(1, _BLOCK_WORDS // ((k + 1) * words))

    # -- introspection ---------------------------------------------------------
    @property
    def num_channels(self) -> int:
        """Number of feature channels ``k``."""
        return self._keys.shape[0]

    @property
    def dim(self) -> int:
        """Hyperspace dimensionality ``d``."""
        return self._keys.shape[1]

    @property
    def nbytes(self) -> int:
        """Bytes held by the fused ``(k, m, d)`` binding table."""
        return self._fused.nbytes

    @property
    def count_dtype(self) -> type:
        """Narrowest integer dtype that safely holds per-bit counts.

        Counts are bounded by the channel count ``k``, so int16 is exact
        for every realistic encoder.  The byte-count paths reduce in it:
        :meth:`chunk_counts` and the opt-in ``"numba"`` ingest backend
        (:mod:`repro.hdc.ingest`).  The packed kernel behind
        :meth:`encode` counts in bit-planes and needs no count dtype.
        """
        return np.int16 if self.num_channels <= 16_000 else np.int64

    # -- encoding --------------------------------------------------------------
    def indices(self, features: np.ndarray) -> np.ndarray:
        """Quantise an ``(n, k)`` feature matrix to basis indices.

        Exposed separately because the indices are independent of the
        basis *contents*: an r-sweep can quantise once and re-encode
        against many bases of the same grid size.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.num_channels:
            raise InvalidParameterError(
                f"expected (n, {self.num_channels}) features, got {features.shape}"
            )
        return self.embedding.indices(features.ravel()).reshape(features.shape)

    def chunk_counts(self, indices_chunk: np.ndarray) -> np.ndarray:
        """Per-dimension one-bit counts for one chunk of index rows.

        The byte-count reference: pure (no RNG, no state mutation),
        ``counts[t] = Σ_i bits(K_i ⊗ B[idx[t, i]])`` summed over the
        ``(rows, k, d)`` gather cube in the narrowest safe integer type.
        :func:`~repro.streaming.reduce.stream_encode` and the ``"ref"``
        ingest path encode through it; :meth:`encode` thresholds the
        same counts with the packed kernel instead.
        """
        gathered = self._fused[self._channel_index[None, :], indices_chunk]
        return gathered.sum(axis=1, dtype=self.count_dtype)

    def _majority_words(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Packed majority masks of index rows: ``(above, tied)``.

        ``above`` holds the bits whose count exceeds ``k / 2``; ``tied``
        the bits whose count equals it, or ``None`` when ``k`` is odd
        (no ties possible).  Both are ``(rows, ⌈d/64⌉)`` uint64 words in
        :func:`numpy.packbits` byte order with zero pad bits.  Pure, and
        allocates everything it writes, so concurrent calls are safe.
        """
        rows = idx.shape[0]
        k = self.num_channels
        above = np.empty((rows, self._words.shape[1]), dtype=np.uint64)
        tied = np.empty_like(above)
        step = self._block_rows
        for lo in range(0, rows, step):
            self._majority_block(idx[lo:lo + step], above[lo:lo + step], tied[lo:lo + step])
        return above, (tied if k % 2 == 0 else None)

    def _majority_block(self, idx: np.ndarray, above: np.ndarray, tied: np.ndarray) -> None:
        """One cache-sized block of :meth:`_majority_words`, written in place."""
        flat = idx.take(self._first_columns, axis=1) + self._first_offsets
        stack = self._words.take(flat.T, axis=0)
        for i, (select, g) in enumerate(self._layers):
            if i:
                stack = stack.take(select, axis=0)
            x, y, z = stack[:g], stack[g:2 * g], stack[2 * g:3 * g]
            xy = stack[:2 * g].reshape((2,) + z.shape)
            parity = np.bitwise_xor(x, y)
            np.bitwise_xor(xy, z, out=xy)  # x ^ z, y ^ z
            np.bitwise_and(x, y, out=x)
            np.bitwise_xor(z, x, out=y)  # carry = majority(x, y, z)
            np.bitwise_xor(z, parity, out=z)  # sum = x ^ y ^ z
            stack = stack[g:]
        # count > ⌊k/2⌋ and count == ⌊k/2⌋, bit-plane by bit-plane from
        # the top; the top bit of ⌊k/2⌋ is always 0.
        (top, _), *rest = self._compare
        np.copyto(above, stack[top])
        np.bitwise_xor(self._valid, above, out=tied)
        scratch = np.empty_like(above)
        for plane, bit in rest:
            if bit:
                np.bitwise_and(tied, stack[plane], out=tied)
            else:
                np.bitwise_and(tied, stack[plane], out=scratch)
                np.bitwise_or(above, scratch, out=above)
                np.bitwise_xor(tied, scratch, out=tied)

    def _settle(self, above: np.ndarray, tied: np.ndarray | None, rng) -> np.ndarray:
        """Resolve tied bits into ``above`` in place; returns it.

        Same policies and the same draws as
        :func:`~repro.hdc.ops.majority_from_counts` on the block's
        ``(rows, d)`` counts: ``"random"`` draws ``(rows, d)`` coins from
        ``rng`` only when the block has a tie.
        """
        policy = self.tie_break
        if policy not in _TIE_BREAKS:
            raise InvalidParameterError(
                f"tie_break must be one of {_TIE_BREAKS}, got {policy!r}"
            )
        if tied is None or policy == "zeros":
            return above
        if policy == "ones":
            above |= tied
        elif policy == "alternate":
            above |= tied & _ALTERNATE
        elif tied.any():
            coins = rng.integers(0, 2, size=(above.shape[0], self.dim), dtype=BIT_DTYPE)
            packed = np.zeros_like(above)
            packed.view(np.uint8)[:, : packed_width(self.dim)] = np.packbits(coins, axis=-1)
            above |= tied & packed
        return above

    def _tie_rng(self, seed: SeedLike):
        """The generator tie draws come from; only ``"random"`` draws."""
        return ensure_rng(seed) if self.tie_break == "random" else None

    def _emit(self, words: np.ndarray, packed: bool) -> np.ndarray:
        """Packed bytes or unpacked bits of kernel words."""
        raw = words.view(np.uint8)
        if packed:
            return raw[:, : packed_width(self.dim)]
        return np.unpackbits(raw, axis=-1, count=self.dim)

    def encode_one(
        self,
        features: np.ndarray,
        seed: SeedLike = None,
        packed: bool = False,
    ) -> Union[np.ndarray, PackedHV]:
        """Single-record fast path of :meth:`encode`.

        Skips the batch machinery (chunk partitioning, worker-pool
        dispatch, per-chunk bookkeeping) for the serving hot path where
        records arrive one at a time.  Takes one ``(k,)`` feature record
        and returns a ``(1, d)`` batch (packed when ``packed=True``) —
        **bit-identical** to ``encode(features[None, :], ...)`` with the
        same seed, including the RNG draws of the ``"random"`` tie
        policy (asserted in ``tests/runtime/test_batch.py``).

        >>> import numpy as np
        >>> from repro.basis import LevelBasis
        >>> from repro.hdc.hypervector import random_hypervectors
        >>> emb = LevelBasis(4, 32, seed=0).linear_embedding(0.0, 1.0)
        >>> enc = BatchEncoder(random_hypervectors(2, 32, seed=1), emb, tie_break="zeros")
        >>> one = enc.encode_one(np.array([0.1, 0.9]))
        >>> bool(np.array_equal(one, enc.encode(np.array([[0.1, 0.9]]))))
        True
        """
        features = np.asarray(features, dtype=np.float64)
        if features.shape != (self.num_channels,):
            raise InvalidParameterError(
                f"expected one ({self.num_channels},) record, got shape {features.shape}"
            )
        idx = self.embedding.indices(features).reshape(1, self.num_channels)
        above, tied = self._majority_words(idx)
        encoded = self._emit(self._settle(above, tied, self._tie_rng(seed)), packed)
        return PackedHV(encoded.copy(), self.dim) if packed else encoded

    def encode(
        self,
        features: np.ndarray,
        seed: SeedLike = None,
        packed: bool = False,
        pool: WorkerPool | None = None,
    ) -> Union[np.ndarray, PackedHV]:
        """Encode a whole ``(n, k)`` split.

        Parameters
        ----------
        features:
            ``(n, k)`` raw feature values; quantised by the embedding's
            discretizer.
        seed:
            Randomness for the ``"random"`` tie policy.  Consumed
            serially over chunks in a fixed order, so the result is
            independent of ``pool``.
        packed:
            Emit a bit-packed batch (``n × ceil(d / 8)`` bytes) instead
            of an unpacked ``(n, d)`` array.  The bits are identical.
        pool:
            Optional :class:`~repro.runtime.pool.WorkerPool` running the
            packed majority kernel chunk-parallel.  ``None`` runs
            serially.

        Returns
        -------
        numpy.ndarray or PackedHV
            The encoded records, bit-identical to
            :func:`repro.hdc.encoders.encode_keyvalue_records` with the
            same ``chunk_size`` and seed.
        """
        idx = self.indices(features)
        n = idx.shape[0]
        d = self.dim
        rng = self._tie_rng(seed)
        starts = range(0, n, self.chunk_size)
        chunks = [idx[s:s + self.chunk_size] for s in starts]
        if pool is None or pool.serial:
            masks = map(self._majority_words, chunks)
        else:
            masks = pool.map(self._majority_words, chunks)

        out = np.empty((n, packed_width(d) if packed else d), dtype=np.uint8)
        # Resolve ties serially, in chunk order, sharing one RNG stream:
        # exactly the consumption pattern of the serial encoder.
        for start, (above, tied) in zip(starts, masks):
            self._settle(above, tied, rng)
            out[start:start + above.shape[0]] = self._emit(above, packed)
        return PackedHV(out, d) if packed else out
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchEncoder(channels={self.num_channels}, "
            f"levels={len(self.embedding)}, dim={self.dim})"
        )
