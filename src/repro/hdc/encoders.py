"""Compound encoders: building complex hypervectors from atomic ones.

Every HDC application encodes a structured object by combining the
basis-hypervectors of its atomic parts with bind/bundle/permute.  This
module provides the combination patterns used in the paper, fully batched:

* **key–value records** — ``⊕_i K_i ⊗ V_i`` (the JIGSAWS sample encoding of
  Section 6.1, and the generic "record" of the HDC literature),
* **bound records** — ``F_1 ⊗ F_2 ⊗ … ⊗ F_k`` (the ``Y ⊗ D ⊗ H`` Beijing
  encoding of Section 6.2),
* **position-permuted sequences** — ``⊕_i Π^i φ(α_i)`` (the word encoding
  of Section 3.1),
* **n-gram statistics** — the classic text encoding built from the same
  primitives.

The batched functions take *index* arrays into a basis matrix instead of
materialised value hypervectors, and chunk their intermediates, so encoding
tens of thousands of samples at ``d = 10,000`` stays within a laptop's
memory budget.

The batched encoders can emit bit-packed batches directly
(``packed=True``): the encoded corpus then lands as a
:class:`~repro.hdc.packed.PackedHV` of ``n × ceil(d / 8)`` bytes — an 8×
smaller training set that the packed learning models consume without any
conversion.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .._rng import SeedLike
from ..exceptions import DimensionMismatchError, InvalidParameterError
from .hypervector import as_hypervector
from .ops import TieBreak, _tie_seed, bind_all, bundle, permute, resolve_majority
from .packed import PackedHV, packed_width

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "encode_keyvalue_record",
    "encode_keyvalue_records",
    "encode_bound_records",
    "encode_sequence",
    "encode_ngrams",
]

#: Default records-per-chunk of the batched encoders; bounds their
#: ``(chunk, k, d)`` intermediate.  The output does not depend on it.
DEFAULT_CHUNK_SIZE = 256


def encode_keyvalue_record(
    keys: np.ndarray,
    values: np.ndarray,
    tie_break: TieBreak = "random",
    seed: SeedLike = None,
) -> np.ndarray:
    """Encode one record as ``⊕_i keys[i] ⊗ values[i]``.

    Parameters
    ----------
    keys:
        ``(k, d)`` key hypervectors (typically random-hypervectors, one per
        feature index — the ``K_i`` of Section 6.1).
    values:
        ``(k, d)`` value hypervectors (the ``V_i``; drawn from a random,
        level or circular basis set depending on the experiment).
    tie_break, seed:
        Majority tie handling; see :func:`repro.hdc.ops.majority_from_counts`.
    """
    keys = as_hypervector(keys)
    values = as_hypervector(values)
    if keys.shape != values.shape:
        raise InvalidParameterError(
            f"keys and values must have matching shapes, got {keys.shape} vs {values.shape}"
        )
    if keys.ndim != 2:
        raise InvalidParameterError(f"expected (k, d) arrays, got shape {keys.shape}")
    return bundle(np.bitwise_xor(keys, values), tie_break=tie_break, seed=seed)


def encode_keyvalue_records(
    keys: np.ndarray,
    value_indices: np.ndarray,
    basis_vectors: np.ndarray,
    tie_break: TieBreak = "random",
    seed: Union[int, None] = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    packed: bool = False,
) -> Union[np.ndarray, PackedHV]:
    """Batched key–value record encoding from basis indices.

    Encodes ``n`` records at once: record ``t`` is
    ``⊕_i keys[i] ⊗ basis_vectors[value_indices[t, i]]``.  The per-call
    reference of :meth:`repro.runtime.batch.BatchEncoder.encode`: same
    bits for the same ``seed``.

    Parameters
    ----------
    keys:
        ``(k, d)`` key hypervectors shared by all records.
    value_indices:
        ``(n, k)`` integer indices into ``basis_vectors`` — the quantised
        feature values of each record.
    basis_vectors:
        ``(m, d)`` basis-hypervector table (random / level / circular set).
    tie_break:
        Majority tie policy; see :func:`repro.hdc.ops.majority_from_counts`.
    seed:
        Integer key of the ``"random"`` tie coins (``None`` means ``0``):
        record ``t`` takes the :func:`~repro.hdc.ops.positional_tie_bits`
        of ``(seed, t)``.
    chunk_size:
        Number of records encoded per chunk; bounds the ``(chunk, k, d)``
        intermediate at roughly ``chunk * k * d`` bytes.
    packed:
        When ``True``, pack each encoded chunk as it is produced and
        return a :class:`~repro.hdc.packed.PackedHV` batch of
        ``n × ceil(d / 8)`` bytes (the unpacked ``(n, d)`` corpus is
        never materialised in full).

    Returns
    -------
    numpy.ndarray or PackedHV
        ``(n, d)`` encoded records (packed when ``packed=True``).
    """
    keys = as_hypervector(keys)
    basis_vectors = as_hypervector(basis_vectors)
    value_indices = np.asarray(value_indices)
    if keys.ndim != 2 or basis_vectors.ndim != 2:
        raise InvalidParameterError("keys and basis_vectors must be 2-D (rows of hypervectors)")
    if keys.shape[-1] != basis_vectors.shape[-1]:
        raise DimensionMismatchError(
            keys.shape[-1], basis_vectors.shape[-1], "encode_keyvalue_records"
        )
    if value_indices.ndim != 2 or value_indices.shape[1] != keys.shape[0]:
        raise InvalidParameterError(
            f"value_indices must have shape (n, {keys.shape[0]}), got {value_indices.shape}"
        )
    if value_indices.size and (
        value_indices.min() < 0 or value_indices.max() >= basis_vectors.shape[0]
    ):
        raise InvalidParameterError("value_indices out of range for the basis table")
    if chunk_size < 1:
        raise InvalidParameterError(f"chunk_size must be positive, got {chunk_size}")
    _tie_seed(seed)

    n, k = value_indices.shape
    d = keys.shape[-1]
    if packed:
        out = np.empty((n, packed_width(d)), dtype=np.uint8)
    else:
        out = np.empty((n, d), dtype=np.uint8)
    count_dtype = np.int16 if k <= 16_000 else np.int64
    for start in range(0, n, chunk_size):
        stop = min(n, start + chunk_size)
        vals = basis_vectors[value_indices[start:stop]]  # (c, k, d)
        bound = np.bitwise_xor(vals, keys[None, :, :])
        counts = bound.sum(axis=1, dtype=count_dtype)  # (c, d)
        encoded = resolve_majority(counts, k, tie_break, seed, start)
        out[start:stop] = np.packbits(encoded, axis=-1) if packed else encoded
    return PackedHV(out, d) if packed else out


def encode_bound_records(
    feature_hvs: Sequence[Union[np.ndarray, PackedHV]],
    packed: bool = False,
) -> Union[np.ndarray, PackedHV]:
    """Encode records as the pure binding of their feature hypervectors.

    Each element of ``feature_hvs`` is an ``(n, d)`` array holding one
    feature's hypervector per record; the result is their element-wise XOR
    — e.g. the Beijing encoding ``Y ⊗ D ⊗ H`` (Section 6.2) with
    ``feature_hvs = [year_hvs, day_hvs, hour_hvs]``.

    With ``packed=True`` (or when any feature batch is already a
    :class:`~repro.hdc.packed.PackedHV`) the XOR runs on packed words and
    the result is returned packed.
    """
    features = list(feature_hvs)
    if not features:
        raise InvalidParameterError("need at least one feature array")
    if packed or any(getattr(f, "__packed_hv__", False) for f in features):
        packed_features = [PackedHV.pack(f) for f in features]
        shape = packed_features[0].shape
        for hv in packed_features[1:]:
            if hv.shape != shape:
                raise InvalidParameterError(
                    f"all feature arrays must share a shape; got {shape} and {hv.shape}"
                )
        return bind_all(packed_features)
    arrays = [as_hypervector(f) for f in features]
    shape = arrays[0].shape
    for arr in arrays[1:]:
        if arr.shape != shape:
            raise InvalidParameterError(
                f"all feature arrays must share a shape; got {shape} and {arr.shape}"
            )
    return bind_all(np.stack(arrays, axis=0))


def encode_sequence(
    item_hvs: np.ndarray,
    tie_break: TieBreak = "random",
    seed: SeedLike = None,
) -> np.ndarray:
    """Encode an ordered sequence as ``⊕_i Π^i(item_hvs[i])``.

    This is the word encoding of Section 3.1: the cyclic-shift permutation
    ``Π^i`` tags each symbol with its position, so anagrams map to distinct
    hypervectors while the bundle keeps the result similar to each tagged
    symbol.  Positions are 1-based as in the paper (the first symbol is
    shifted once).
    """
    items = as_hypervector(item_hvs)
    if items.ndim != 2:
        raise InvalidParameterError(f"expected (n, d) sequence of items, got {items.shape}")
    n, d = items.shape
    shifted = np.empty_like(items)
    for i in range(n):
        shifted[i] = permute(items[i], i + 1)
    if n == 1:
        return shifted[0]
    return bundle(shifted, tie_break=tie_break, seed=seed)


def encode_ngrams(
    item_hvs: np.ndarray,
    n: int = 3,
    tie_break: TieBreak = "random",
    seed: SeedLike = None,
) -> np.ndarray:
    """Encode a sequence by bundling its bound, position-permuted n-grams.

    The classic HDC text encoding (Rahimi et al. [35] in the paper): each
    window of ``n`` consecutive symbols is bound together after per-offset
    permutation, and all windows are bundled.  Requires the sequence to be
    at least ``n`` symbols long.
    """
    items = as_hypervector(item_hvs)
    if items.ndim != 2:
        raise InvalidParameterError(f"expected (n, d) sequence of items, got {items.shape}")
    length = items.shape[0]
    if n < 1:
        raise InvalidParameterError(f"n-gram size must be positive, got {n}")
    if length < n:
        raise InvalidParameterError(
            f"sequence of length {length} is shorter than the n-gram size {n}"
        )
    windows = []
    for start in range(length - n + 1):
        parts = [permute(items[start + offset], n - offset - 1) for offset in range(n)]
        windows.append(bind_all(np.stack(parts, axis=0)))
    if len(windows) == 1:
        return windows[0]
    return bundle(np.stack(windows, axis=0), tie_break=tie_break, seed=seed)
