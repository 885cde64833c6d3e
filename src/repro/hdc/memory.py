"""Item (cleanup) memory: nearest-neighbour retrieval over hypervectors.

An *item memory* stores a table of labelled hypervectors and answers
similarity queries.  It is the retrieval half of every HDC pipeline:

* classification (Section 2.2) queries the class-vector table,
* regression (Section 2.3) "cleans up" the noisy unbound label vector by
  snapping it to the nearest label hypervector ``L_l``,
* the consistent-hashing system (:mod:`repro.hashing`) routes requests to
  the most similar server hypervector.

Storage is bit-packed (:mod:`repro.hdc.packed`): every row occupies
``ceil(d / 8)`` bytes and queries run through the similarity-kernel
subsystem (:mod:`repro.hdc.kernels`) against the packed table — the
kernel picks GEMM for large scans and XOR + popcount for small ones,
with identical results.  True top-k retrieval (:meth:`ItemMemory.query_topk`)
never materialises the full distance matrix.  The public API still
speaks unpacked arrays — ``add``/``query`` accept either representation
and :meth:`ItemMemory.get` returns unpacked bits — so callers written
against the byte-per-bit representation work unchanged while paying an
eighth of the memory.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

from ..exceptions import DimensionMismatchError, EmptyModelError, InvalidParameterError
from .coerce import as_packed_batch
from .kernels import TopK, pairwise_hamming, topk_hamming
from .packed import PackedHV, coerce_packed, is_packed, packed_width

__all__ = ["ItemMemory"]


class ItemMemory:
    """Associative memory mapping keys to hypervectors.

    Keys may be any hashable label (class ids, server names, level
    indices).  Lookup is an exact nearest-neighbour scan by normalized
    Hamming distance — for the table sizes in HDC applications (tens to a
    few thousand entries) a vectorised popcount scan is both exact and
    fast.

    Example
    -------
    >>> import numpy as np
    >>> from repro.hdc import ItemMemory
    >>> mem = ItemMemory(dim=16)
    >>> mem.add("a", np.zeros(16, dtype=np.uint8))
    >>> mem.add("b", np.ones(16, dtype=np.uint8))
    >>> noisy = np.zeros(16, dtype=np.uint8); noisy[0] = 1
    >>> mem.query(noisy)
    'a'
    """

    def __init__(self, dim: int) -> None:
        if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 1:
            raise InvalidParameterError(f"dimension must be a positive integer, got {dim!r}")
        self._dim = int(dim)
        self._width = packed_width(self._dim)
        self._keys: list[Hashable] = []
        self._index: dict[Hashable, int] = {}
        self._rows: list[np.ndarray] = []  # packed (width,) rows
        self._matrix: np.ndarray | None = None  # lazily rebuilt packed cache

    # -- container protocol ---------------------------------------------------
    @property
    def dim(self) -> int:
        """Dimensionality every stored hypervector must have."""
        return self._dim

    @property
    def nbytes(self) -> int:
        """Packed bytes held by the table (``len(self) * ceil(dim / 8)``)."""
        return len(self._rows) * self._width

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    def keys(self) -> list[Hashable]:
        """Stored keys in insertion order."""
        return list(self._keys)

    # -- mutation ---------------------------------------------------------------
    def _coerce_row(self, hv: np.ndarray | PackedHV, context: str) -> np.ndarray:
        if is_packed(hv) and hv.ndim != 1:
            raise InvalidParameterError(
                f"ItemMemory stores single hypervectors, got shape {hv.shape}"
            )
        if not is_packed(hv):
            arr = np.asarray(hv)
            if arr.ndim != 1:
                raise InvalidParameterError(
                    f"ItemMemory stores single hypervectors, got shape {arr.shape}"
                )
        packed = coerce_packed(hv)
        if packed.dim != self._dim:
            raise DimensionMismatchError(self._dim, packed.dim, context)
        return packed.data

    def add(self, key: Hashable, hv: np.ndarray | PackedHV) -> None:
        """Insert or replace the hypervector stored under ``key``.

        Accepts an unpacked ``(d,)`` bit array or a packed
        :class:`~repro.hdc.packed.PackedHV`; storage is packed either way.
        """
        row = self._coerce_row(hv, "ItemMemory.add")
        if key in self._index:
            self._rows[self._index[key]] = row
        else:
            self._index[key] = len(self._keys)
            self._keys.append(key)
            self._rows.append(row)
        self._matrix = None

    def add_many(self, items: Iterable[tuple[Hashable, np.ndarray]]) -> None:
        """Insert several ``(key, hypervector)`` pairs."""
        for key, hv in items:
            self.add(key, hv)

    def remove(self, key: Hashable) -> None:
        """Delete ``key`` from the memory (raises ``KeyError`` if absent)."""
        pos = self._index.pop(key)
        self._keys.pop(pos)
        self._rows.pop(pos)
        for other, idx in self._index.items():
            if idx > pos:
                self._index[other] = idx - 1
        self._matrix = None

    def get(self, key: Hashable) -> np.ndarray:
        """Return the stored hypervector for ``key`` as unpacked bits."""
        return self.get_packed(key).unpack()

    def get_packed(self, key: Hashable) -> PackedHV:
        """Return the stored hypervector for ``key`` in packed form."""
        return PackedHV(self._rows[self._index[key]], self._dim)

    # -- retrieval ---------------------------------------------------------------
    def _table(self) -> PackedHV:
        if not self._rows:
            raise EmptyModelError("ItemMemory is empty; nothing to query")
        if self._matrix is None or self._matrix.shape[0] != len(self._rows):
            self._matrix = np.stack(self._rows, axis=0)
        return PackedHV(self._matrix, self._dim)

    def _coerce_query(self, query: np.ndarray | PackedHV, context: str) -> tuple[PackedHV, bool]:
        return as_packed_batch(query, self._dim, context)

    def distances(self, query: np.ndarray | PackedHV) -> np.ndarray:
        """Normalized Hamming distance from ``query`` to every stored item.

        ``query`` may be a single hypervector ``(d,)`` (returns ``(k,)``)
        or a batch ``(n, d)`` (returns ``(n, k)``), where ``k`` is the
        number of stored items, ordered as :meth:`keys`; packed queries
        are compared without unpacking anything.
        """
        table = self._table()
        batch, single = self._coerce_query(query, "ItemMemory.distances")
        dist = pairwise_hamming(batch, table)
        return dist[0] if single else dist

    def query(self, hv: np.ndarray | PackedHV) -> Hashable:
        """Return the key of the most similar stored hypervector.

        Takes exactly one hypervector; use :meth:`query_batch` for a
        batch (a batch here would silently answer for its first row).
        """
        batch, single = self._coerce_query(hv, "ItemMemory.query")
        if not single:
            raise InvalidParameterError(
                f"ItemMemory.query takes a single hypervector, got shape "
                f"{batch.shape}; use query_batch for batches"
            )
        return self.query_batch(batch)[0]

    def query_batch(self, hvs: np.ndarray | PackedHV) -> list[Hashable]:
        """Vectorised :meth:`query` over a batch ``(n, d)``.

        Ties are resolved toward the earliest-inserted item, matching
        ``numpy.argmin`` semantics; deterministic and documented so that
        experiments are reproducible.
        """
        dist = self.distances(hvs)
        if dist.ndim == 1:
            dist = dist[None, :]
        winners = np.argmin(dist, axis=-1)
        return [self._keys[i] for i in winners]

    def topk(self, hvs: np.ndarray | PackedHV, k: int) -> TopK:
        """Raw top-``k`` retrieval: row indices + distances, fused kernel.

        The low-level form of :meth:`query_topk` — returns a
        :class:`~repro.hdc.kernels.TopK` of ``(indices, distances)``
        ordered ascending by ``(distance, insertion index)``, computed by
        :func:`~repro.hdc.kernels.topk_hamming` without materialising
        the full distance matrix when ``k`` is much smaller than the
        table.  Single queries yield ``(k,)`` arrays, batches ``(n, k)``.
        """
        table = self._table()
        batch, single = self._coerce_query(hvs, "ItemMemory.topk")
        result = topk_hamming(batch, table, k)
        if single:
            return TopK(result.indices[0], result.distances[0])
        return result

    def query_topk(self, hvs: np.ndarray | PackedHV, k: int) -> list:
        """The ``k`` most similar stored items with their distances.

        For a single query ``(d,)`` returns a list of ``(key, distance)``
        pairs, nearest first; for a batch ``(n, d)`` returns one such
        list per query row.  Ties break toward the earliest-inserted
        item — the same deterministic rule as :meth:`query_batch`, which
        equals ``query_topk(..., k=1)``.

        Example
        -------
        >>> import numpy as np
        >>> mem = ItemMemory(dim=8)
        >>> for i in range(4):
        ...     hv = np.zeros(8, dtype=np.uint8); hv[:i] = 1
        ...     mem.add(i, hv)
        >>> mem.query_topk(np.zeros(8, dtype=np.uint8), k=2)
        [(0, 0.0), (1, 0.125)]
        """
        result = self.topk(hvs, k)
        single = result.indices.ndim == 1
        out = [
            [(self._keys[int(i)], float(d)) for i, d in zip(row_i, row_d)]
            for row_i, row_d in zip(
                np.atleast_2d(result.indices), np.atleast_2d(result.distances)
            )
        ]
        return out[0] if single else out

    def cleanup(self, hv: np.ndarray | PackedHV) -> np.ndarray:
        """Snap a noisy hypervector to the nearest stored one.

        This is the "cleanup memory" role used by the regression decode
        (Section 2.3): the unbound vector ``M ⊗ φ(x̂)`` is approximately a
        label hypervector plus noise; cleanup recovers the exact ``L_l``.
        Returns unpacked bits regardless of the query representation.
        """
        key = self.query(hv)
        return self.get(key)
