"""Whole-split record encoding: the runtime's batched encode stage.

:class:`BatchEncoder` turns an ``(n, k)`` feature matrix into ``n``
record hypervectors ``⊕_{i=1}^{k} K_i ⊗ V_{idx(x_{t,i})}`` — the
key–value encoding used by the Table 1 classification pipeline — with
three properties the per-call encoders in :mod:`repro.hdc.encoders` do
not give on their own:

* **packed majority kernel** — the ``K_i ⊗ B_m`` bindings are
  precomputed once per encoder into a ``(k, m, ⌈d/64⌉)`` table of
  64-bit words.  A block of records gathers its ``k`` channel rows with
  one ``take`` into ``k`` slots, then a static schedule of single-plane
  full and half adders sums them: each adder writes its sum and carry
  over its own input slots (five ufunc calls and one scratch plane per
  full adder), so nothing is re-stacked and nothing is allocated per
  block.  The ``k.bit_length()`` count planes left are compared with
  ``⌊k/2⌋`` to give a packed "above" mask, plus a "tied" mask only when
  the tie policy reads it, and the policy is applied on those words.  No
  per-bit byte sum and no ``(rows, k, d)`` gather cube;
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

#: uint64 words per kernel block: the ``(k, rows, ⌈d/64⌉)`` slots that
#: the adders rewrite in place stay near 1 MiB (46 rows at k = 18,
#: d = 10,000), resident in a 2 MiB L2.  Any value is bit-identical.
_BLOCK_WORDS = 1 << 17

#: Tied bits under ``"alternate"`` take their dimension's parity; in the
#: MSB-first byte layout of ``np.packbits`` every odd dimension is one of
#: the bits ``0x55`` of its byte.
_ALTERNATE = np.uint64(0x5555555555555555)


def _csa_plan(k: int) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Static single-plane adder schedule that sums ``k`` one-bit planes.

    Works weight by weight from the bottom: while a weight holds three
    planes a full adder ``(a, b, c)`` adds them, leaving the sum in slot
    ``a`` and the carry, one weight up, in slot ``b``; two left over take
    a half adder ``(a, b, -1)``.  Weight ``w`` receives ``⌊k/2**w⌋``
    planes and ends with one, so the count's ``k.bit_length()`` bits are
    one slot each and no carry ever reaches a weight above ``k``.
    Returns ``(adders, final)``: ``final[w]`` is the slot of count bit
    ``w``.
    """
    planes = list(range(k))
    adders = []
    final = []
    while planes:
        carries = []
        while len(planes) > 1:
            a, b, *c = planes[:3]
            del planes[1:3]
            adders.append((a, b, c[0] if c else -1))
            carries.append(b)
        final.append(planes[0])
        planes = carries
    return adders, final


def _greater_plan(final: list[int], h: int) -> list[tuple[np.ufunc | None, int]]:
    """Steps that leave ``count > h`` from the count bit slots ``final``.

    ``count > h`` is the carry out of ``count + ~h`` over the count's
    bits, formed from the bottom: a 1 bit of ``~h`` ORs its plane into
    the carry, a 0 bit ANDs it.  The first step (``None`` ufunc) names
    the plane the carry starts from; ``h < 2**(len(final) - 1)`` keeps
    the list non-empty.
    """
    steps: list = []
    for w, plane in enumerate(final):
        if not (h >> w) & 1:
            steps.append((np.bitwise_or, plane) if steps else (None, plane))
        elif steps:
            steps.append((np.bitwise_and, plane))
    return steps


def _greater(slots: np.ndarray, steps: list, out: np.ndarray) -> None:
    """Run a :func:`_greater_plan` over count slots into ``out``."""
    (_, first), *rest = steps
    src = slots[first]
    if not rest:
        np.copyto(out, src)
    for op, plane in rest:
        op(src, slots[plane], out=out)
        src = out


class BatchEncoder:
    """Vectorised key–value record encoder over whole splits.

    Encodes through a packed majority kernel: the ``k`` bound channel
    rows of a record are summed as 64-bit bit-planes by in-place
    carry-save adders and compared with ``k / 2`` on the words (see the
    module docstring), bit-identical to thresholding :meth:`chunk_counts`.

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
        The kernel's transient is bounded at about 1 MiB of slots per
        block.

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
        # commutes with packing.
        k, d = keys.shape
        basis = embedding.basis.packed.data
        m = basis.shape[0]
        words = (d + 63) // 64
        table = np.zeros((k, m, words * 8), dtype=np.uint8)
        np.bitwise_xor(
            np.packbits(keys, axis=-1)[:, None, :], basis[None, :, :],
            out=table[..., : packed_width(d)],
        )
        self._words = table.reshape(k * m, -1).view(np.uint64)
        self._channel_offsets = np.arange(k) * m
        self._adders, final = _csa_plan(k)
        half = k // 2
        self._above_steps = _greater_plan(final, half)
        # count == k/2 is count > k/2 - 1 minus count > k/2.
        self._tied_steps = _greater_plan(final, half - 1) if k % 2 == 0 else None
        self._block_rows = max(1, _BLOCK_WORDS // (k * words))

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
        """Bytes held by the packed ``(k·m, ⌈d/64⌉)`` word table: ``k·m·⌈d/64⌉·8``."""
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

    def _majority_words(
        self, idx: np.ndarray, ties: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Packed majority masks of index rows: ``(above, tied)``.

        ``above`` holds the bits whose count exceeds ``k / 2``; ``tied``
        the bits whose count equals it, or ``None`` when ``k`` is odd
        (no ties possible) or ``ties`` is false (the caller reads only
        ``above``).  Both are ``(rows, ⌈d/64⌉)`` uint64 words in
        :func:`numpy.packbits` byte order with zero pad bits.  Pure, and
        allocates everything it writes (the slots and scratch plane the
        blocks reuse included), so concurrent calls are safe.
        """
        rows = idx.shape[0]
        k, width = self.num_channels, self._words.shape[1]
        above = np.empty((rows, width), dtype=np.uint64)
        tied = np.empty_like(above) if ties and self._tied_steps else None
        step = max(1, min(self._block_rows, rows))
        slots = np.empty(k * step * width, dtype=np.uint64)
        scratch = np.empty(step * width, dtype=np.uint64)
        flat = (idx + self._channel_offsets).T
        for lo in range(0, rows, step):
            n = min(step, rows - lo)
            self._majority_block(
                flat[:, lo:lo + n],
                slots[: k * n * width].reshape(k, n, width),
                scratch[: n * width].reshape(n, width),
                above[lo:lo + n],
                None if tied is None else tied[lo:lo + n],
            )
        return above, tied

    def _majority_block(
        self,
        flat: np.ndarray,
        slots: np.ndarray,
        scratch: np.ndarray,
        above: np.ndarray,
        tied: np.ndarray | None,
    ) -> None:
        """One cache-sized block of :meth:`_majority_words`, written in place.

        ``flat`` holds the ``(k, rows)`` table rows to gather into
        ``slots``; every adder then rewrites its own input slots.
        """
        # The rows come from the discretizer, so they are in range; "clip"
        # writes straight into ``slots``, where "raise" would buffer ``out``.
        np.take(self._words, flat, axis=0, out=slots, mode="clip")
        for a, b, c in self._adders:
            x, y = slots[a], slots[b]
            if c < 0:  # x, y = x ^ y, x & y
                np.bitwise_xor(x, y, out=x)
                np.bitwise_and(x, y, out=scratch)  # y & ~x
                np.bitwise_xor(y, scratch, out=y)
            else:  # x, y = x ^ y ^ z, majority(x, y, z)
                z = slots[c]
                np.bitwise_xor(x, y, out=scratch)
                np.bitwise_and(x, y, out=y)
                np.bitwise_xor(scratch, z, out=x)
                np.bitwise_and(scratch, z, out=scratch)
                np.bitwise_or(y, scratch, out=y)
        _greater(slots, self._above_steps, above)
        if tied is not None:
            _greater(slots, self._tied_steps, tied)
            np.bitwise_xor(tied, above, out=tied)

    def _settled_words(self, idx: np.ndarray, seed, start: int) -> np.ndarray:
        """Majority words of index rows whose first row is ``start``.

        The one tie rule of record encoding: ``"random"`` ORs in the
        tied bits of :func:`~repro.hdc.ops.positional_tie_words` for the
        absolute rows ``start + i`` under ``seed`` — the bits
        :func:`~repro.hdc.ops.resolve_majority` gives on the byte counts.
        """
        policy = self.tie_break
        above, tied = self._majority_words(idx, ties=policy != "zeros")
        if tied is None:
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
