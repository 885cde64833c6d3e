"""The three HDC operations: binding, bundling and permutation (Figure 1).

All functions are element-wise along the trailing (dimension) axis and
broadcast over leading axes, so they work identically on single
hypervectors ``(d,)`` and batches ``(n, d)``.

Semantics (binary spatter codes, as used in the paper):

* **bind** — element-wise XOR.  Associates two pieces of information; the
  output is dissimilar to both operands; commutative; distributive over
  bundling; self-inverse (``bind(a, bind(a, b)) == b``).
* **bundle** — element-wise majority.  Represents a set; the output is the
  mean-vector, similar to each operand.  Ties (possible only for an even
  number of operands) are resolved by an explicit, configurable policy.
  Record encodings (:func:`resolve_majority`) draw the coins of the
  ``"random"`` policy from :func:`positional_tie_bits`, keyed by the
  record's absolute row, so a record's bits never depend on its batch.
* **permute** — cyclic shift.  Encodes order; the output is dissimilar to
  the input; exactly invertible by the opposite shift.

Distances:

* **hamming_distance** — the normalized Hamming distance
  ``δ : H × H → [0, 1]`` of Section 2.
* **similarity** — ``1 − δ`` as defined in the paper.
* **pairwise_hamming** — the all-pairs ``δ`` matrix, re-exported from
  the similarity-kernel subsystem (:mod:`repro.hdc.kernels`), which
  picks its own exact backend from the input size.  It is the
  computation behind the Figure 3 heatmaps and every nearest-neighbour
  query in the item memory and the models.

Representation dispatch: every operation accepts both the unpacked
byte-per-bit arrays and the bit-packed :class:`~repro.hdc.packed.PackedHV`
backend.  Packed operands are routed to the packed kernels (packed in →
packed out for bind/bundle/permute) and the distance functions always run
on packed words.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .._rng import SeedLike, ensure_rng
from ..exceptions import DimensionMismatchError, InvalidParameterError
from . import packed as _packed
from .coerce import any_packed
from .hypervector import BIT_DTYPE, as_hypervector
from .kernels import pairwise_hamming

__all__ = [
    "TieBreak",
    "bind",
    "bind_all",
    "bundle",
    "majority_from_counts",
    "positional_tie_bits",
    "positional_tie_words",
    "resolve_majority",
    "permute",
    "inverse_permute",
    "hamming_distance",
    "similarity",
    "pairwise_hamming",
    "pairwise_similarity",
]

#: Valid tie-breaking policies for :func:`bundle`.
TieBreak = str

_TIE_BREAKS = ("random", "zeros", "ones", "alternate")


def _check_same_dim(a: np.ndarray, b: np.ndarray, context: str) -> None:
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(a.shape[-1], b.shape[-1], context)


def bind(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bind two hypervectors (element-wise XOR), ``⊗`` in the paper.

    Properties (all tested in ``tests/hdc/test_ops.py``):

    * ``bind(a, b) == bind(b, a)`` (commutative),
    * ``bind(a, bind(a, b)) == b`` (self-inverse),
    * ``hamming_distance(bind(a, b), a) ≈ 1/2`` for random ``b``
      (output dissimilar to operands),
    * distance-preserving: binding both sides with the same vector leaves
      the distance unchanged.

    Packed operands stay packed: if either input is a
    :class:`~repro.hdc.packed.PackedHV` the XOR runs on packed words and
    a packed result is returned.
    """
    if _packed.is_packed(a) or _packed.is_packed(b):
        return _packed.packed_bind(a, b)
    a = as_hypervector(a)
    b = as_hypervector(b)
    _check_same_dim(a, b, "bind")
    return np.bitwise_xor(a, b)


def bind_all(hvs: Union[np.ndarray, Sequence[np.ndarray]]) -> np.ndarray:
    """Bind a stack of hypervectors together: ``h_1 ⊗ h_2 ⊗ … ⊗ h_n``.

    ``hvs`` may be an ``(n, …, d)`` array or a sequence of equally shaped
    hypervectors.  Because XOR is associative and commutative the result is
    order-independent.  Used for multi-feature record encodings such as the
    ``Y ⊗ D ⊗ H`` encoding of the Beijing experiment (Section 6.2).
    Packed stacks (or sequences containing packed members) reduce on
    packed words and return a packed result.
    """
    if _packed.is_packed(hvs):
        return _packed.packed_bind_all(hvs)
    if not isinstance(hvs, np.ndarray):
        hvs = list(hvs)
        if any_packed(hvs):
            return _packed.packed_bind_all(hvs)
    stack = _as_stack(hvs)
    return np.bitwise_xor.reduce(stack, axis=0)


def _as_stack(hvs: Union[np.ndarray, Sequence[np.ndarray]]) -> np.ndarray:
    if isinstance(hvs, np.ndarray):
        stack = as_hypervector(hvs)
        if stack.ndim < 2:
            raise InvalidParameterError(
                "expected a stack of hypervectors with shape (n, ..., d); "
                f"got shape {stack.shape}"
            )
        return stack
    items = [as_hypervector(h) for h in hvs]
    if not items:
        raise InvalidParameterError("cannot combine an empty collection of hypervectors")
    dim = items[0].shape[-1]
    for item in items[1:]:
        _check_same_dim(items[0], item, "stack")
    del dim
    return np.stack(items, axis=0)


def majority_from_counts(
    counts: np.ndarray,
    total: Union[int, np.ndarray],
    tie_break: TieBreak = "random",
    seed: SeedLike = None,
) -> np.ndarray:
    """Threshold per-bit one-counts into a majority vote.

    This is the primitive behind :func:`bundle` and behind the streaming
    accumulators used by the learning models: they keep an integer count of
    ones per dimension and call this function once at the end, which gives
    exact majority semantics regardless of how many vectors were bundled.

    Parameters
    ----------
    counts:
        Integer array of per-dimension counts of one-bits.
    total:
        Number of bundled hypervectors (scalar, or array broadcastable to
        ``counts`` for per-row totals).
    tie_break:
        Policy used when ``2 * counts == total`` (only possible for even
        totals):

        * ``"random"``   — i.i.d. fair coin per tied bit (paper-faithful:
          keeps every bit uniform and independent),
        * ``"zeros"``    — tied bits become 0,
        * ``"ones"``     — tied bits become 1,
        * ``"alternate"``— tied bits take the parity of their dimension
          index (deterministic and unbiased across dimensions).
    seed:
        Randomness for the ``"random"`` policy.
    """
    if tie_break not in _TIE_BREAKS:
        raise InvalidParameterError(
            f"tie_break must be one of {_TIE_BREAKS}, got {tie_break!r}"
        )
    counts = np.asarray(counts)
    total_arr = np.asarray(total, dtype=np.int64)
    # Fast path for small scalar totals (the batched encoders): the whole
    # comparison fits int16, which quarters the memory traffic of the
    # threshold.  |counts| ≤ total ≤ 16000 keeps 2·counts within int16.
    if (
        counts.dtype.kind in "iu"
        and counts.dtype.itemsize <= 2
        and total_arr.ndim == 0
        and 0 <= int(total_arr) <= 16_000
    ):
        doubled = counts.astype(np.int16, copy=False) * np.int16(2)
        t16 = np.int16(int(total_arr))
        out = (doubled > t16).astype(BIT_DTYPE)
        ties = doubled == t16
    else:
        doubled = 2 * counts.astype(np.int64)
        out = (doubled > total_arr).astype(BIT_DTYPE)
        ties = doubled == total_arr
    if np.any(ties):
        if tie_break == "random":
            rng = ensure_rng(seed)
            coin = rng.integers(0, 2, size=counts.shape, dtype=BIT_DTYPE)
            out[ties] = coin[ties]
        elif tie_break == "ones":
            out[ties] = 1
        elif tie_break == "alternate":
            parity = (np.arange(counts.shape[-1], dtype=np.int64) % 2).astype(BIT_DTYPE)
            parity = np.broadcast_to(parity, counts.shape)
            out[ties] = parity[ties]
        # "zeros": nothing to do, out already holds 0 at ties.
    return out


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
        f"positional tie seed must be an int or None, got {seed!r}"
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
    tie_break: TieBreak,
    seed,
    start: int,
) -> np.ndarray:
    """Threshold per-row one-counts with position-keyed tie handling.

    The record-encoding form of :func:`majority_from_counts` for 2-D
    ``(rows, d)`` count blocks whose first row sits at absolute offset
    ``start``.  Non-``"random"`` policies delegate to
    :func:`majority_from_counts` unchanged (they are position-free);
    ``"random"`` resolves each tied row with its
    :func:`positional_tie_bits` coins under the integer ``seed``.

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


def bundle(
    hvs: Union[np.ndarray, Sequence[np.ndarray]],
    tie_break: TieBreak = "random",
    seed: SeedLike = None,
) -> np.ndarray:
    """Bundle hypervectors with an element-wise majority vote, ``⊕``.

    ``hvs`` is a stack ``(n, …, d)`` or a sequence of hypervectors; the
    reduction runs over the first axis.  The output is the *mean-vector*:
    it is closer to every operand than two random vectors would be, which
    is what makes class prototypes (Section 2.2) work.

    For an even number of operands ties are possible; see
    :func:`majority_from_counts` for the tie-breaking policies.  Packed
    stacks bundle through the same counts-then-threshold route (identical
    bits and identical RNG draws) and return a packed result.
    """
    if _packed.is_packed(hvs):
        return _packed.packed_bundle(hvs, tie_break=tie_break, seed=seed)
    if not isinstance(hvs, np.ndarray):
        hvs = list(hvs)
        if any_packed(hvs):
            return _packed.packed_bundle(hvs, tie_break=tie_break, seed=seed)
    stack = _as_stack(hvs)
    counts = stack.sum(axis=0, dtype=np.int64)
    return majority_from_counts(counts, stack.shape[0], tie_break=tie_break, seed=seed)


def permute(hv: np.ndarray, shifts: int = 1) -> np.ndarray:
    """Cyclically shift hypervector coordinates, ``Π^shifts`` in the paper.

    A positive shift moves bits toward higher indices.  Permutation
    decorrelates: ``permute(h)`` is quasi-orthogonal to ``h`` for random
    ``h``.  It distributes over both bind and bundle, and
    :func:`inverse_permute` undoes it exactly.  Packed input rotates on
    packed words and returns a packed result.
    """
    if _packed.is_packed(hv):
        return _packed.packed_permute(hv, shifts)
    arr = as_hypervector(hv)
    if not isinstance(shifts, (int, np.integer)) or isinstance(shifts, bool):
        raise InvalidParameterError(f"shifts must be an integer, got {shifts!r}")
    return np.roll(arr, int(shifts), axis=-1)


def inverse_permute(hv: np.ndarray, shifts: int = 1) -> np.ndarray:
    """Exact inverse of :func:`permute` with the same ``shifts`` value."""
    return permute(hv, -shifts)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normalized Hamming distance ``δ(a, b) ∈ [0, 1]`` (Section 2).

    Broadcasts over leading axes: comparing ``(n, d)`` against ``(d,)``
    yields ``(n,)``; comparing ``(n, 1, d)`` against ``(m, d)`` yields
    ``(n, m)``.  Returns a scalar array for two single hypervectors.
    Packed operands are compared by XOR + popcount without unpacking.
    """
    if _packed.is_packed(a) or _packed.is_packed(b):
        return _packed.packed_hamming(a, b)
    a = as_hypervector(a)
    b = as_hypervector(b)
    _check_same_dim(a, b, "hamming_distance")
    return np.not_equal(a, b).mean(axis=-1)


def similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hypervector similarity ``1 − δ(a, b)`` as defined in the paper."""
    return 1.0 - hamming_distance(a, b)


def pairwise_similarity(
    vectors: np.ndarray,
    others: np.ndarray | None = None,
) -> np.ndarray:
    """All-pairs similarity ``1 − δ``; see :func:`pairwise_hamming`."""
    return 1.0 - pairwise_hamming(vectors, others)
