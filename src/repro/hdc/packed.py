"""Bit-packed hypervector backend: 8 bits per byte, hardware popcount.

The paper's pipeline runs entirely in the binary spatter-code space
``{0, 1}^d`` with ``d ≈ 10,000``.  The plain representation in
:mod:`repro.hdc.hypervector` spends one **byte** per bit, which keeps the
code simple but costs 8× the memory and forces every distance computation
to stream 8× the data.  This module provides the production
representation: :class:`PackedHV` stores ``ceil(d / 8)`` bytes per
hypervector (``numpy.packbits`` layout, big-endian bit order within each
byte) and the kernels below operate on the packed words directly:

* **XOR-bind** — byte-wise XOR on the packed words,
* **Hamming distance** — XOR + popcount (``numpy.bitwise_count`` when the
  running numpy provides it, a 256-entry lookup table otherwise),
* **cyclic permute** — byte roll plus cross-byte bit shifts when ``d`` is
  a multiple of 8, with an exact unpack–roll–repack fallback otherwise,
* **bundling** — a streaming :class:`BundleAccumulator` keeping one
  integer count per dimension, so prototypes bundle in O(d) memory no
  matter how many samples contribute.

Invariant: the padding bits of the final byte (present when ``d`` is not
a multiple of 8) are always zero.  Every constructor enforces or
preserves this, which lets the distance kernels skip per-call masking.

Every kernel is bit-for-bit equivalent to its unpacked counterpart in
:mod:`repro.hdc.ops` (property-tested in ``tests/hdc/test_packed.py``),
so the two representations can be mixed freely: the unpacked API coerces
:class:`PackedHV` arguments automatically, and the packed API coerces
unpacked bit arrays.
"""

from __future__ import annotations

import os
from typing import Sequence, Union

import numpy as np

from .._rng import SeedLike
from ..exceptions import (
    CalibrationError,
    DimensionMismatchError,
    EmptyModelError,
    InvalidHypervectorError,
    InvalidParameterError,
)
from .hypervector import BIT_DTYPE, as_hypervector

__all__ = [
    "BYTE_BITS",
    "DEFAULT_CELL_BUDGET",
    "cell_budget",
    "PackedHV",
    "BundleAccumulator",
    "is_packed",
    "packed_width",
    "coerce_packed",
    "popcount",
    "packed_bind",
    "packed_bind_all",
    "packed_bundle",
    "packed_permute",
    "packed_hamming",
    "packed_pairwise_hamming",
]

#: Bits stored per byte of packed storage.
BYTE_BITS = 8

#: Allocation budget, in array cells, for the transient intermediates of
#: the similarity kernels: the ``(chunk, m, width)`` XOR cube here and
#: the unpacked float operand blocks of the GEMM backend in
#: :mod:`repro.hdc.kernels`.  Shared so that every distance path answers
#: to one memory knob.
DEFAULT_CELL_BUDGET = 64_000_000

#: Environment variable overriding :data:`DEFAULT_CELL_BUDGET`
#: (for low-memory CI runners, or to force the blocked code paths).
_ENV_BUDGET = "REPRO_KERNEL_BUDGET"


def cell_budget() -> int:
    """The current kernel allocation budget, in cells.

    Reads ``REPRO_KERNEL_BUDGET`` on every call (so tests and
    constrained runners can adjust it without re-importing), falling
    back to :data:`DEFAULT_CELL_BUDGET` when it is unset or empty.  A
    value that is not an integer ``>= 1`` raises
    :class:`~repro.exceptions.CalibrationError` naming the variable.
    The value bounds transient allocations only — results are
    bit-identical for any budget.

    >>> cell_budget() >= 1
    True
    """
    raw = os.environ.get(_ENV_BUDGET)
    if not raw:
        return DEFAULT_CELL_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise CalibrationError(f"{_ENV_BUDGET} must be an integer, got {raw!r}") from None
    if value < 1:
        raise CalibrationError(f"{_ENV_BUDGET} must be >= 1, got {raw!r}")
    return value

#: Whether the running numpy exposes the hardware popcount ufunc.
#: Module-level so tests can force the lookup-table fallback.
_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Per-byte-value popcount lookup table (the portable fallback).
_POPCOUNT_TABLE = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1, dtype=np.uint8)


def packed_width(dim: int) -> int:
    """Bytes needed to store ``dim`` bits: ``ceil(dim / 8)``."""
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 1:
        raise InvalidParameterError(f"dimension must be a positive integer, got {dim!r}")
    return (int(dim) + BYTE_BITS - 1) // BYTE_BITS


def _tail_mask(dim: int) -> int:
    """Byte mask keeping only the valid (high) bits of the final byte."""
    rem = dim % BYTE_BITS
    if rem == 0:
        return 0xFF
    return (0xFF << (BYTE_BITS - rem)) & 0xFF


def popcount(array: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Count set bits in a ``uint8`` array, summed over ``axis``.

    Uses ``numpy.bitwise_count`` when available (vectorised hardware
    POPCNT) and a 256-entry lookup table otherwise; the two paths return
    identical results.
    """
    array = np.asarray(array, dtype=np.uint8)
    if _HAVE_BITWISE_COUNT:
        counts = np.bitwise_count(array)
    else:
        counts = _POPCOUNT_TABLE[array]
    if axis is None:
        return counts.sum(dtype=np.int64)
    return counts.sum(axis=axis, dtype=np.int64)


def is_packed(obj: object) -> bool:
    """Return ``True`` if ``obj`` is a packed hypervector (batch)."""
    return bool(getattr(obj, "__packed_hv__", False))


class PackedHV:
    """A hypervector (or batch) stored 8 bits per byte.

    The trailing axis of :attr:`data` holds ``ceil(dim / 8)`` bytes in
    ``numpy.packbits`` order; leading axes are batch axes, mirroring the
    unpacked convention (``(width,)`` single, ``(n, width)`` batch).

    Construct with :meth:`pack` (from a bit array), :meth:`from_bytes`
    (from raw packed bytes, padding is masked), or receive one from the
    packed kernels / :class:`~repro.hdc.spaces.PackedBSCSpace`.
    """

    #: Duck-typing marker so lower layers can detect packed inputs
    #: without importing this module (avoids circular imports).
    __packed_hv__ = True

    __slots__ = ("_data", "_dim")

    def __init__(self, data: np.ndarray, dim: int) -> None:
        arr = np.asarray(data)
        if arr.dtype != np.uint8:
            raise InvalidHypervectorError(
                f"packed storage must be uint8, got dtype {arr.dtype}"
            )
        width = packed_width(dim)
        if arr.ndim < 1 or arr.shape[-1] != width:
            raise InvalidHypervectorError(
                f"packed storage for dim={dim} needs a trailing axis of "
                f"{width} bytes, got shape {arr.shape}"
            )
        self._data = arr
        self._dim = int(dim)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def pack(cls, bits: Union[np.ndarray, "PackedHV"]) -> "PackedHV":
        """Pack an unpacked bit array (``numpy.packbits`` zero-pads the tail)."""
        if is_packed(bits):
            return bits  # type: ignore[return-value]
        arr = as_hypervector(bits)
        return cls(np.packbits(arr, axis=-1), arr.shape[-1])

    @classmethod
    def from_bytes(cls, data: np.ndarray, dim: int) -> "PackedHV":
        """Wrap raw packed bytes, masking any non-zero padding bits."""
        arr = np.array(data, dtype=np.uint8, copy=True)
        hv = cls(arr, dim)
        mask = _tail_mask(hv._dim)
        if mask != 0xFF:
            arr[..., -1] &= mask
        return hv

    # -- shape protocol -------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The packed byte storage (trailing axis = ``ceil(dim / 8)``)."""
        return self._data

    @property
    def dim(self) -> int:
        """Logical hyperspace dimensionality ``d`` (in bits)."""
        return self._dim

    @property
    def shape(self) -> tuple[int, ...]:
        """Logical shape: the data shape with the trailing axis as bits."""
        return self._data.shape[:-1] + (self._dim,)

    @property
    def ndim(self) -> int:
        """Logical number of axes (1 for a single hypervector)."""
        return self._data.ndim

    @property
    def nbytes(self) -> int:
        """Bytes of packed storage actually held."""
        return self._data.nbytes

    def __len__(self) -> int:
        if self._data.ndim < 2:
            raise TypeError("a single packed hypervector has no length")
        return self._data.shape[0]

    def __getitem__(self, index) -> "PackedHV":
        """Index/slice over leading (batch) axes; the bit axis is opaque."""
        if self._data.ndim < 2:
            raise InvalidParameterError(
                "cannot index into a single packed hypervector; unpack() first"
            )
        return PackedHV(self._data[index], self._dim)

    def reshape_batch(self, *leading: int) -> "PackedHV":
        """Reshape the leading (batch) axes, keeping the byte axis last."""
        return PackedHV(self._data.reshape(*leading, self._data.shape[-1]), self._dim)

    def copy(self) -> "PackedHV":
        return PackedHV(self._data.copy(), self._dim)

    # -- conversion -----------------------------------------------------------
    def unpack(self) -> np.ndarray:
        """Return the unpacked ``uint8`` bit array (trailing axis = ``dim``)."""
        return np.unpackbits(self._data, axis=-1, count=self._dim).astype(
            BIT_DTYPE, copy=False
        )

    # -- arithmetic (used by the ops-layer dispatch) -------------------------
    def bind(self, other: Union["PackedHV", np.ndarray]) -> "PackedHV":
        """XOR-bind; broadcasts over leading axes like the unpacked op."""
        return packed_bind(self, other)

    def permute(self, shifts: int = 1) -> "PackedHV":
        """Cyclic shift of the logical bits by ``shifts`` positions."""
        return packed_permute(self, shifts)

    def hamming(self, other: Union["PackedHV", np.ndarray]) -> np.ndarray:
        """Normalized Hamming distance; broadcasts over leading axes."""
        return packed_hamming(self, other)

    def count_ones(self) -> np.ndarray:
        """Per-hypervector population count (number of set bits)."""
        return popcount(self._data, axis=-1)

    def __xor__(self, other: Union["PackedHV", np.ndarray]) -> "PackedHV":
        return packed_bind(self, other)

    def __eq__(self, other: object) -> bool:
        if not is_packed(other):
            return NotImplemented
        return self._dim == other.dim and np.array_equal(self._data, other.data)

    def __hash__(self) -> None:  # pragma: no cover - mirrors ndarray
        raise TypeError("PackedHV is unhashable (mutable storage)")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PackedHV(shape={self.shape}, dim={self._dim})"


def coerce_packed(hv: Union[PackedHV, np.ndarray], dim: int | None = None) -> PackedHV:
    """Coerce a packed or unpacked hypervector (batch) to :class:`PackedHV`.

    ``dim`` optionally asserts the expected dimensionality, raising
    :class:`~repro.exceptions.DimensionMismatchError` on disagreement.
    """
    packed = hv if is_packed(hv) else PackedHV.pack(hv)
    if dim is not None and packed.dim != dim:
        raise DimensionMismatchError(dim, packed.dim, "coerce_packed")
    return packed


def _as_packed_rows(hv: Union[PackedHV, np.ndarray], context: str) -> PackedHV:
    packed = coerce_packed(hv)
    if packed.ndim != 2:
        raise InvalidParameterError(
            f"{context} expects a (n, d) batch, got shape {packed.shape}"
        )
    return packed


# -- kernels -----------------------------------------------------------------

def packed_bind(a: Union[PackedHV, np.ndarray], b: Union[PackedHV, np.ndarray]) -> PackedHV:
    """XOR-bind on packed words: ``⊗`` without ever unpacking.

    Padding stays zero (XOR of two zero pads), so the result upholds the
    packed invariant for free.
    """
    pa = coerce_packed(a)
    pb = coerce_packed(b)
    if pa.dim != pb.dim:
        raise DimensionMismatchError(pa.dim, pb.dim, "bind")
    return PackedHV(np.bitwise_xor(pa.data, pb.data), pa.dim)


def packed_bind_all(hvs: Union[PackedHV, Sequence[Union[PackedHV, np.ndarray]]]) -> PackedHV:
    """Reduce a stack ``(n, …, d)`` of packed hypervectors with XOR."""
    stacked = _stack_packed(hvs, "bind_all")
    if stacked.ndim < 2:
        raise InvalidParameterError(
            f"expected a stack of hypervectors, got shape {stacked.shape}"
        )
    return PackedHV(np.bitwise_xor.reduce(stacked.data, axis=0), stacked.dim)


def _stack_packed(
    hvs: Union[PackedHV, Sequence[Union[PackedHV, np.ndarray]]], context: str
) -> PackedHV:
    if is_packed(hvs):
        return hvs  # type: ignore[return-value]
    if isinstance(hvs, np.ndarray):
        return PackedHV.pack(hvs)
    items = [coerce_packed(h) for h in hvs]
    if not items:
        raise InvalidParameterError("cannot combine an empty collection of hypervectors")
    dim = items[0].dim
    for item in items[1:]:
        if item.dim != dim:
            raise DimensionMismatchError(dim, item.dim, context)
    return PackedHV(np.stack([i.data for i in items], axis=0), dim)


def packed_bundle(
    hvs: Union[PackedHV, Sequence[Union[PackedHV, np.ndarray]]],
    tie_break: str = "random",
    seed: SeedLike = None,
) -> PackedHV:
    """Majority-bundle a packed stack, returning a packed result.

    Per-dimension counts require the individual bits, so this unpacks the
    stack once into an accumulator — the counts themselves stay O(d) and
    the tie-break semantics (including the RNG draw order of the
    ``"random"`` policy) are identical to :func:`repro.hdc.ops.bundle`.
    """
    stacked = _stack_packed(hvs, "bundle")
    if stacked.ndim < 2:
        raise InvalidParameterError(
            f"expected a stack of hypervectors, got shape {stacked.shape}"
        )
    from .ops import majority_from_counts

    bits = stacked.unpack()
    counts = bits.sum(axis=0, dtype=np.int64)
    out = majority_from_counts(counts, bits.shape[0], tie_break=tie_break, seed=seed)
    return PackedHV.pack(out)


def packed_permute(hv: Union[PackedHV, np.ndarray], shifts: int = 1) -> PackedHV:
    """Cyclic shift of the logical bit string, on packed words.

    For ``dim`` divisible by 8 the rotation runs entirely in packed
    space: a byte-level roll for whole-byte shifts plus a cross-byte
    carry for the residual 1–7 bits (``numpy.packbits`` stores the bit at
    logical index ``i`` at the MSB-first position of byte ``i // 8``, so
    shifting bits toward higher indices is a right shift within bytes
    with the outgoing LSB entering the next byte's MSB).  Dimensions not
    divisible by 8 take the exact unpack–roll–repack path, because the
    padding bits sit mid-rotation there.
    """
    packed = coerce_packed(hv)
    if not isinstance(shifts, (int, np.integer)) or isinstance(shifts, bool):
        raise InvalidParameterError(f"shifts must be an integer, got {shifts!r}")
    dim = packed.dim
    shift = int(shifts) % dim
    if shift == 0:
        return packed.copy()
    if dim % BYTE_BITS != 0:
        return PackedHV.pack(np.roll(packed.unpack(), shift, axis=-1))
    byte_shift, bit_shift = divmod(shift, BYTE_BITS)
    rolled = np.roll(packed.data, byte_shift, axis=-1)
    if bit_shift:
        carry = np.roll(rolled, 1, axis=-1)
        rolled = np.bitwise_or(
            np.right_shift(rolled, bit_shift),
            np.left_shift(carry, BYTE_BITS - bit_shift),
        ).astype(np.uint8)
    return PackedHV(rolled, dim)


def packed_hamming(
    a: Union[PackedHV, np.ndarray], b: Union[PackedHV, np.ndarray]
) -> np.ndarray:
    """Normalized Hamming distance via XOR + popcount on packed words.

    Broadcasts over leading axes exactly like the unpacked
    :func:`repro.hdc.ops.hamming_distance`.
    """
    pa = coerce_packed(a)
    pb = coerce_packed(b)
    if pa.dim != pb.dim:
        raise DimensionMismatchError(pa.dim, pb.dim, "hamming_distance")
    xor = np.bitwise_xor(pa.data, pb.data)
    return popcount(xor, axis=-1) / pa.dim


def _chunked_xor_counts(
    data_a: np.ndarray, data_b: np.ndarray, dim: int | None = None
) -> np.ndarray:
    """All-pairs Hamming counts on packed rows, chunked XOR + popcount.

    The byte-wise reference loop behind :func:`packed_pairwise_hamming`:
    the ``(chunk, m, width)`` XOR intermediate is chunked to stay within
    :func:`cell_budget`.  Returns raw ``int64`` counts, or — when
    ``dim`` is given — ``float64`` normalized distances filled
    chunk-wise, so only one full ``(n, m)`` matrix ever exists.
    """
    n, width = data_a.shape
    m = data_b.shape[0]
    out = np.empty((n, m), dtype=np.int64 if dim is None else np.float64)
    chunk = max(1, min(max(n, 1), cell_budget() // max(1, m * width)))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        xor = np.bitwise_xor(data_a[start:stop, None, :], data_b[None, :, :])
        counts = popcount(xor, axis=-1)
        out[start:stop] = counts if dim is None else counts / dim
    return out


def packed_pairwise_hamming(
    vectors: Union[PackedHV, np.ndarray],
    others: Union[PackedHV, np.ndarray, None] = None,
) -> np.ndarray:
    """All-pairs normalized Hamming distance on packed rows.

    The byte-wise XOR + popcount reference kernel: both backends of
    :mod:`repro.hdc.kernels` (which every distance consumer runs) are
    tested for bitwise agreement with it.  Compares an ``(n, d)``
    batch against an ``(m, d)`` batch (default: itself) and returns an
    ``(n, m)`` float matrix.
    """
    pa = _as_packed_rows(vectors, "pairwise_hamming")
    if others is None:
        pb = pa
    else:
        pb = _as_packed_rows(others, "pairwise_hamming")
        if pa.dim != pb.dim:
            raise DimensionMismatchError(pa.dim, pb.dim, "pairwise_hamming")
    return _chunked_xor_counts(pa.data, pb.data, dim=pa.dim)


class BundleAccumulator:
    """Streaming majority bundle: O(d) memory for any number of operands.

    Keeps one ``int64`` count of one-bits per dimension plus the running
    total, which is exactly the sufficient statistic of the majority
    bundle.  Class prototypes, regression memories and any map-reduce
    style bundling (accumulate shards, :meth:`merge`, finalize once) are
    built on this.

    ``add`` / ``subtract`` accept packed or unpacked input, single
    hypervectors or batches.  Subtraction enables perceptron-style
    refinement: the invariant ``signed = 2 * counts − total`` matches the
    signed-accumulator formulation used in the HDC literature bit for
    bit.
    """

    __slots__ = ("_dim", "_counts", "_total")

    def __init__(self, dim: int) -> None:
        width = packed_width(dim)  # validates dim
        del width
        self._dim = int(dim)
        self._counts = np.zeros(self._dim, dtype=np.int64)
        self._total = 0

    # -- state ----------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Hyperspace dimensionality."""
        return self._dim

    @property
    def counts(self) -> np.ndarray:
        """Per-dimension one-bit counts (a live view; treat as read-only)."""
        return self._counts

    @property
    def total(self) -> int:
        """Net number of hypervectors accumulated (adds minus subtracts)."""
        return self._total

    @property
    def signed(self) -> np.ndarray:
        """The bipolar accumulator ``Σ (2·bit − 1) = 2·counts − total``."""
        return 2 * self._counts - self._total

    def __len__(self) -> int:
        return self._total

    # -- accumulation ---------------------------------------------------------
    #: Budget (in unpacked bytes) for the transient bit chunk when
    #: accumulating a packed batch; keeps fit() on a packed corpus from
    #: materialising the full 8x-larger unpacked array.
    _CHUNK_BYTES = 32_000_000

    def _fold(self, bits: np.ndarray, sign: int) -> None:
        # uint16 column sums are exact up to 65,535 rows and several
        # times faster than int64 ones; the int64 counts absorb them.
        dtype = np.uint16 if bits.shape[0] <= 0xFFFF else np.int64
        sums = bits.sum(axis=0, dtype=dtype)
        if sign > 0:
            self._counts += sums
        else:
            self._counts -= sums
        self._total += sign * bits.shape[0]

    def _accumulate(self, hvs: Union[PackedHV, np.ndarray], sign: int) -> None:
        if is_packed(hvs):
            if hvs.dim != self._dim:
                raise DimensionMismatchError(self._dim, hvs.dim, "BundleAccumulator")
            data = hvs.data
            if data.ndim == 1:
                data = data[None, :]
            rows = data.reshape(-1, data.shape[-1])
            packed = PackedHV(rows, self._dim)
            chunk = max(1, self._CHUNK_BYTES // self._dim)
            for start in range(0, rows.shape[0], chunk):
                self._fold(packed[start:start + chunk].unpack(), sign)
            return
        bits = as_hypervector(hvs)
        if bits.ndim == 1:
            bits = bits[None, :]
        if bits.shape[-1] != self._dim:
            raise DimensionMismatchError(self._dim, bits.shape[-1], "BundleAccumulator")
        self._fold(bits.reshape(-1, self._dim), sign)

    def add(self, hvs: Union[PackedHV, np.ndarray]) -> "BundleAccumulator":
        """Accumulate hypervector(s) into the bundle; returns ``self``.

        Packed batches are unpacked chunk-by-chunk, so the full unpacked
        corpus is never materialised.
        """
        self._accumulate(hvs, 1)
        return self

    def subtract(self, hvs: Union[PackedHV, np.ndarray]) -> "BundleAccumulator":
        """Remove previously accumulated hypervector(s); returns ``self``."""
        self._accumulate(hvs, -1)
        return self

    def add_counts(
        self, counts: np.ndarray, total: int
    ) -> "BundleAccumulator":
        """Fold pre-reduced per-dimension one-bit counts in; returns ``self``.

        For a caller that already holds the integers — a saved model's
        counts (:func:`repro.serve.load_model`), say.  Equivalent to
        ``add`` on the ``total`` hypervectors the counts summarise:
        integer addition is exact and order-free.
        """
        delta = np.asarray(counts)
        if delta.shape != (self._dim,):
            raise DimensionMismatchError(
                self._dim,
                delta.shape[-1] if delta.ndim else 0,
                "BundleAccumulator.add_counts",
            )
        if not np.issubdtype(delta.dtype, np.integer):
            raise InvalidParameterError(
                f"count deltas must be integers, got dtype {delta.dtype}"
            )
        self._counts += delta
        self._total += int(total)
        return self

    def merge(self, other: "BundleAccumulator") -> "BundleAccumulator":
        """Fold another accumulator in (shard-and-merge bundling)."""
        if not isinstance(other, BundleAccumulator):
            raise InvalidParameterError(
                f"can only merge another BundleAccumulator, got {type(other).__name__}"
            )
        if other.dim != self._dim:
            raise DimensionMismatchError(self._dim, other.dim, "BundleAccumulator.merge")
        self._counts += other._counts
        self._total += other._total
        return self

    def reset(self) -> None:
        """Clear all accumulated state."""
        self._counts[:] = 0
        self._total = 0

    # -- finalisation ---------------------------------------------------------
    def finalize(self, tie_break: str = "random", seed: SeedLike = None) -> np.ndarray:
        """Threshold the counts into the unpacked majority hypervector."""
        if self._total <= 0:
            raise EmptyModelError("BundleAccumulator holds no hypervectors")
        from .ops import majority_from_counts

        return majority_from_counts(
            self._counts, self._total, tie_break=tie_break, seed=seed
        )

    def finalize_packed(self, tie_break: str = "random", seed: SeedLike = None) -> PackedHV:
        """Threshold the counts into a packed majority hypervector."""
        return PackedHV.pack(self.finalize(tie_break=tie_break, seed=seed))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BundleAccumulator(dim={self._dim}, total={self._total})"
