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
* **one tie rule** — a tied bit of row ``i`` under the ``"random"``
  policy takes the position-keyed coin of
  :func:`~repro.hdc.ops.positional_tie_words` for ``(seed, start + i)``,
  so a record's bits never depend on its batch or its chunk, and the
  output is **bit-identical** to
  :func:`repro.hdc.encoders.encode_keyvalue_records` with the same
  seed;
* **packed output** — ``packed=True`` lands the corpus directly as a
  :class:`~repro.hdc.packed.PackedHV` of ``n × ceil(d / 8)`` bytes.

:meth:`BatchEncoder.chunk_counts` keeps the byte-count reference (gather
cube + integer sum), which is what the kernel is checked against.

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

from ..basis.base import Embedding
from ..exceptions import DimensionMismatchError, InvalidParameterError
from ..hdc.hypervector import as_hypervector
# majority_from_counts is the byte-count threshold the kernel reproduces;
# it stays importable here because perfbench/tracing.py wraps it by name.
from ..hdc.ops import (
    _TIE_BREAKS,
    TieBreak,
    _tie_seed,
    majority_from_counts,  # noqa: F401
    positional_tie_words,
)
from ..hdc.packed import PackedHV, packed_width

__all__ = ["BatchEncoder"]

#: Records per chunk of :meth:`BatchEncoder.encode`: bounds the
#: ``above``/``tied`` scratch words.  Any value is bit-identical: tie
#: coins are keyed by row position, not by chunk.
_CHUNK_ROWS = 256

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
        ``"random"`` ties take position-keyed coins (see :meth:`encode`).
        The kernel's transient is bounded at about 512 KiB of gathered
        words per block.

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
    ) -> None:
        keys = as_hypervector(keys)
        if keys.ndim != 2:
            raise InvalidParameterError(f"keys must be a (k, d) table, got shape {keys.shape}")
        if keys.shape[1] != embedding.dim:
            raise DimensionMismatchError(keys.shape[1], embedding.dim, "BatchEncoder")
        if tie_break not in _TIE_BREAKS:
            raise InvalidParameterError(
                f"tie_break must be one of {_TIE_BREAKS}, got {tie_break!r}"
            )
        self.embedding = embedding
        self.tie_break = tie_break
        self._keys = keys
        # The kernel's binding table: row i·m + j holds keys[i] ⊗ basis[j]
        # packed into 64-bit words (packbits byte order, zero-padded to
        # whole words), built from the packed keys and basis because XOR
        # commutes with packing.  m all-zero rows follow: the plane the
        # adder tree's half adders read, gathered like a (k+1)-th channel.
        k, d = keys.shape
        basis = embedding.basis.packed.data
        m = basis.shape[0]
        words = (d + 63) // 64
        table = np.zeros(((k + 1) * m, words * 8), dtype=np.uint8)
        bound = table[: k * m].reshape(k, m, -1)[..., : packed_width(d)]
        np.bitwise_xor(np.packbits(keys, axis=-1)[:, None, :], basis[None, :, :], out=bound)
        self._words = table.view(np.uint64)
        self._channel_offsets = np.arange(k) * m
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
        """Bytes held by the packed ``((k + 1)·m, ⌈d/64⌉)`` binding table."""
        return self._words.nbytes

    @property
    def count_dtype(self) -> type:
        """Narrowest integer dtype that safely holds per-bit counts.

        Counts are bounded by the channel count ``k``, so int16 is exact
        for every realistic encoder.  The byte-count reference
        :meth:`chunk_counts` reduces in it; the packed kernel behind
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
        ``(rows, k, d)`` gather cube in the narrowest safe integer type;
        the cube's rows are gathered from the packed binding table and
        unpacked here.  Thresholded by
        :func:`~repro.hdc.ops.resolve_majority` it gives exactly what
        :meth:`encode` computes with the packed kernel.
        """
        rows = self._words.take(indices_chunk + self._channel_offsets, axis=0)
        gathered = np.unpackbits(rows.view(np.uint8), axis=-1, count=self.dim)
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

    def _settled_words(self, idx: np.ndarray, seed, start: int) -> np.ndarray:
        """Majority words of index rows whose first row is ``start``.

        The one tie rule of record encoding: ``"random"`` ORs in the
        tied bits of :func:`~repro.hdc.ops.positional_tie_words` for the
        absolute rows ``start + i`` under ``seed`` — the bits
        :func:`~repro.hdc.ops.resolve_majority` gives on the byte counts.
        """
        above, tied = self._majority_words(idx)
        policy = self.tie_break
        if tied is None or policy == "zeros":
            return above
        if policy == "ones":
            above |= tied
        elif policy == "alternate":
            above |= tied & _ALTERNATE
        else:
            rows = np.flatnonzero(tied.any(axis=1))
            if rows.size:
                above[rows] |= tied[rows] & positional_tie_words(seed, start + rows, self.dim)
        return above

    def _emit(self, words: np.ndarray, packed: bool) -> np.ndarray:
        """Packed bytes or unpacked bits of kernel words."""
        raw = words.view(np.uint8)
        if packed:
            return raw[:, : packed_width(self.dim)]
        return np.unpackbits(raw, axis=-1, count=self.dim)

    def encode(
        self,
        features: np.ndarray,
        seed: Union[int, None] = 0,
        start: int = 0,
        packed: bool = False,
    ) -> Union[np.ndarray, PackedHV]:
        """Encode an ``(n, k)`` batch of records.

        Parameters
        ----------
        features:
            ``(n, k)`` raw feature values; quantised by the embedding's
            discretizer.
        seed:
            Integer key of the ``"random"`` tie coins (``None`` means
            ``0``).  Row ``i`` takes the coins of ``(seed, start + i)``,
            so the output is deterministic and the same however a split
            is cut into calls: encoding ``features[a:b]`` with
            ``start=a`` gives rows ``a:b`` of the whole encode.
        start:
            Absolute position of the first row.
        packed:
            Emit a bit-packed batch (``n × ceil(d / 8)`` bytes) instead
            of an unpacked ``(n, d)`` array.  The bits are identical.

        Returns
        -------
        numpy.ndarray or PackedHV
            The encoded records, bit-identical to
            :func:`repro.hdc.encoders.encode_keyvalue_records` with the
            same seed.
        """
        _tie_seed(seed)  # an invalid key fails even when no tie is drawn
        idx = self.indices(features)
        n = idx.shape[0]
        d = self.dim
        out = np.empty((n, packed_width(d) if packed else d), dtype=np.uint8)
        for lo in range(0, n, _CHUNK_ROWS):
            words = self._settled_words(idx[lo:lo + _CHUNK_ROWS], seed, start + lo)
            out[lo:lo + words.shape[0]] = self._emit(words, packed)
        return PackedHV(out, d) if packed else out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchEncoder(channels={self.num_channels}, "
            f"levels={len(self.embedding)}, dim={self.dim})"
        )
