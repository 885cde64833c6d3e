"""Shared packed/unpacked coercion: one place to normalise batch inputs.

Every layer that consumes encoded hypervectors historically re-implemented
the same three-branch dance — "is it packed? promote 1-D to a batch,
check the dimensionality, keep the native representation" — in slightly
different shapes (``CentroidClassifier._check_batch``,
``HDRegressor._check_batch``, ``ItemMemory._coerce_query``,
``Embedding.decode``, …).  This module is
the single implementation those call sites now delegate to:

* :func:`as_encoded_batch` — normalise either representation to a 2-D
  ``(n, d)`` batch **without converting** between representations (a
  packed batch stays packed, an unpacked one stays unpacked);
* :func:`as_packed_batch` — normalise to a packed 2-D batch (packing
  unpacked input once), also reporting whether the caller passed a
  single hypervector;
* :func:`batch_rows` — the row count of either representation;
* :func:`any_packed` — packed-membership test over a sequence, used by
  the ops-layer dispatch.

All helpers validate dimensionality when ``dim`` is given and raise the
same exceptions the scattered branches used to raise, so behaviour (and
error text) is unchanged for callers.
"""

from __future__ import annotations

from typing import Iterable, Tuple, Union

import numpy as np

from ..exceptions import DimensionMismatchError, InvalidParameterError
from .hypervector import as_hypervector
from .packed import PackedHV, is_packed

__all__ = [
    "EncodedBatch",
    "any_packed",
    "as_encoded_batch",
    "as_packed_batch",
    "batch_rows",
]

#: Either hypervector representation accepted by the learning layers.
EncodedBatch = Union[np.ndarray, PackedHV]


def as_encoded_batch(
    encoded: EncodedBatch, dim: int | None = None, context: str = "batch"
) -> EncodedBatch:
    """Normalise encoded sample(s) to a 2-D batch in their native form.

    A single hypervector ``(d,)`` is promoted to ``(1, d)``; packed input
    stays packed and unpacked input stays unpacked (no conversion, no
    copy of the underlying bits).  ``dim`` optionally asserts the
    expected dimensionality; ``context`` names the caller in errors.

    >>> import numpy as np
    >>> as_encoded_batch(np.zeros(8, dtype=np.uint8)).shape
    (1, 8)
    >>> from repro.hdc.packed import PackedHV
    >>> as_encoded_batch(PackedHV.pack(np.zeros((3, 8), dtype=np.uint8))).shape
    (3, 8)
    """
    if is_packed(encoded):
        packed: PackedHV = encoded
        if packed.ndim == 1:
            packed = PackedHV(packed.data[None, :], packed.dim)
        if packed.ndim != 2:
            raise InvalidParameterError(
                f"expected encoded samples of shape (n, d), got {packed.shape}"
            )
        if dim is not None and packed.dim != dim:
            raise DimensionMismatchError(dim, packed.dim, context)
        return packed
    arr = as_hypervector(encoded)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise InvalidParameterError(
            f"expected encoded samples of shape (n, d), got {arr.shape}"
        )
    if dim is not None and arr.shape[1] != dim:
        raise DimensionMismatchError(dim, arr.shape[1], context)
    return arr


def as_packed_batch(
    hv: EncodedBatch, dim: int | None = None, context: str = "query"
) -> Tuple[PackedHV, bool]:
    """Normalise to a packed 2-D batch, reporting single-vector input.

    Returns ``(batch, single)`` where ``batch`` is always a 2-D
    :class:`~repro.hdc.packed.PackedHV` and ``single`` is ``True`` when
    the caller passed one hypervector ``(d,)`` — the flag every query
    path uses to unwrap its answer again.  Unpacked input is packed once.

    >>> import numpy as np
    >>> batch, single = as_packed_batch(np.zeros(8, dtype=np.uint8))
    >>> batch.shape, single
    ((1, 8), True)
    """
    packed = hv if is_packed(hv) else PackedHV.pack(as_hypervector(hv))
    if dim is not None and packed.dim != dim:
        raise DimensionMismatchError(dim, packed.dim, context)
    single = packed.ndim == 1
    if single:
        packed = PackedHV(packed.data[None, :], packed.dim)
    if packed.ndim != 2:
        raise InvalidParameterError(
            f"{context} expects a single hypervector or an (n, d) batch, "
            f"got shape {packed.shape}"
        )
    return packed, single


def batch_rows(encoded: EncodedBatch, context: str = "batch") -> int:
    """Number of rows in an ``(n, d)`` batch of either representation.

    >>> import numpy as np
    >>> batch_rows(np.zeros((5, 8), dtype=np.uint8))
    5
    """
    if is_packed(encoded):
        if encoded.ndim != 2:
            raise InvalidParameterError(
                f"{context} expects an (n, d) batch, got shape {encoded.shape}"
            )
        return len(encoded)
    arr = np.asarray(encoded)
    if arr.ndim != 2:
        raise InvalidParameterError(
            f"{context} expects an (n, d) batch, got shape {arr.shape}"
        )
    return int(arr.shape[0])


def any_packed(hvs: Iterable[object]) -> bool:
    """True when any member of a sequence is a packed hypervector.

    The ops-layer dispatch test for mixed packed/unpacked collections.

    >>> import numpy as np
    >>> from repro.hdc.packed import PackedHV
    >>> any_packed([np.zeros(8, dtype=np.uint8)])
    False
    >>> any_packed([PackedHV.pack(np.zeros(8, dtype=np.uint8))])
    True
    """
    return any(is_packed(h) for h in hvs)
