"""Creation and validation of binary hypervectors.

The paper operates in the binary spatter-code (BSC) hyperspace
``H = {0, 1}^d`` with ``d ≈ 10,000``.  We represent hypervectors as numpy
``uint8`` arrays whose trailing axis is the hyperspace dimension.  A single
hypervector has shape ``(d,)``; a batch of ``n`` hypervectors has shape
``(n, d)``; higher-dimensional batches are allowed everywhere (all
operations broadcast over leading axes).

Using one byte per bit keeps the code simple and fully vectorised.  For
memory-sensitive deployments the bit-packed backend in
:mod:`repro.hdc.packed` stores 8 bits per byte behind the same operations;
:func:`as_hypervector` transparently unpacks a
:class:`~repro.hdc.packed.PackedHV` so packed values are accepted anywhere
an unpacked hypervector is.  :func:`pack_bits` / :func:`unpack_bits` remain
as the low-level raw-array conversions.
"""

from __future__ import annotations

import numpy as np

from .._rng import SeedLike, ensure_rng
from ..exceptions import InvalidHypervectorError, InvalidParameterError

__all__ = [
    "BIT_DTYPE",
    "DEFAULT_DIMENSION",
    "random_hypervector",
    "random_hypervectors",
    "zeros",
    "ones",
    "as_hypervector",
    "is_hypervector",
    "pack_bits",
    "unpack_bits",
]

#: dtype used to store one bit of a hypervector.
BIT_DTYPE = np.uint8

#: The dimensionality used throughout the paper ("typically 10,000-bit words").
DEFAULT_DIMENSION = 10_000


def _validate_dimension(dim: int) -> int:
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool):
        raise InvalidParameterError(f"dimension must be an integer, got {dim!r}")
    if dim < 1:
        raise InvalidParameterError(f"dimension must be positive, got {dim}")
    return int(dim)


def random_hypervector(dim: int = DEFAULT_DIMENSION, seed: SeedLike = None) -> np.ndarray:
    """Sample one hypervector uniformly from ``{0, 1}^dim``.

    Each bit is an independent fair coin flip, which is the i.i.d.
    ("holographic") representation at the heart of HDC: every bit carries
    the same amount of information.

    Parameters
    ----------
    dim:
        Hyperspace dimensionality ``d``.
    seed:
        ``None``, integer seed, or an existing generator.

    Returns
    -------
    numpy.ndarray
        Shape ``(dim,)``, dtype ``uint8``, values in ``{0, 1}``.
    """
    return random_hypervectors(1, dim, seed)[0]


def random_hypervectors(
    count: int, dim: int = DEFAULT_DIMENSION, seed: SeedLike = None
) -> np.ndarray:
    """Sample ``count`` hypervectors uniformly and independently.

    This is the generator of *random-hypervector* basis sets (Section 3.1
    of the paper): with overwhelming probability every pair of outputs is
    quasi-orthogonal, i.e. their normalized Hamming distance concentrates
    around ``1/2`` with standard deviation ``1 / (2 sqrt(d))``.

    Returns
    -------
    numpy.ndarray
        Shape ``(count, dim)``, dtype ``uint8``.
    """
    dim = _validate_dimension(dim)
    if not isinstance(count, (int, np.integer)) or isinstance(count, bool):
        raise InvalidParameterError(f"count must be an integer, got {count!r}")
    if count < 0:
        raise InvalidParameterError(f"count must be non-negative, got {count}")
    rng = ensure_rng(seed)
    return rng.integers(0, 2, size=(int(count), dim), dtype=BIT_DTYPE)


def zeros(dim: int = DEFAULT_DIMENSION) -> np.ndarray:
    """Return the all-zeros hypervector (identity element of binding)."""
    return np.zeros(_validate_dimension(dim), dtype=BIT_DTYPE)


def ones(dim: int = DEFAULT_DIMENSION) -> np.ndarray:
    """Return the all-ones hypervector (binding with it flips every bit)."""
    return np.ones(_validate_dimension(dim), dtype=BIT_DTYPE)


def _is_bit_dtype(dtype: np.dtype) -> bool:
    """Booleans and integers can hold bits; floats and objects cannot."""
    return dtype == np.bool_ or np.issubdtype(dtype, np.integer)


def _holds_bits(arr: np.ndarray) -> bool:
    """True if every entry of a non-empty bool or integer array is 0 or 1.

    The one bit check behind :func:`is_hypervector` and
    :func:`as_hypervector`: at most two reductions and no temporaries
    (``np.isin`` would sort a copy, several times the table's size), and
    an unsigned array needs only its ``max``.
    """
    if arr.dtype == np.bool_:
        return True
    if int(arr.max()) > 1:
        return False
    return arr.dtype.kind == "u" or int(arr.min()) >= 0


def is_hypervector(array: object) -> bool:
    """Return ``True`` if ``array`` is a valid binary hypervector (batch).

    Valid means: a numpy array of at least one dimension whose entries are
    all ``0`` or ``1`` (any integer or boolean dtype is accepted).
    """
    if getattr(array, "__packed_hv__", False):
        return True
    if not isinstance(array, np.ndarray) or array.ndim < 1 or array.size == 0:
        return False
    return _is_bit_dtype(array.dtype) and _holds_bits(array)


def as_hypervector(array: object) -> np.ndarray:
    """Validate ``array`` and return it as a ``uint8`` bit array.

    Accepts lists, boolean arrays, any integer array with values in
    ``{0, 1}``, and bit-packed :class:`~repro.hdc.packed.PackedHV` values
    (which are unpacked — this is the coercion boundary that lets packed
    hypervectors flow through the unpacked API unchanged).  Raises
    :class:`InvalidHypervectorError` otherwise.  The returned array is a
    copy only when a conversion is required.
    """
    if getattr(array, "__packed_hv__", False):
        return array.unpack()
    arr = np.asarray(array)
    if arr.ndim < 1 or arr.size == 0:
        raise InvalidHypervectorError(
            f"hypervector must be a non-empty array, got shape {arr.shape}"
        )
    if not _is_bit_dtype(arr.dtype):
        raise InvalidHypervectorError(
            f"hypervector entries must be integers in {{0, 1}}, got dtype {arr.dtype}"
        )
    if not _holds_bits(arr):
        raise InvalidHypervectorError("hypervector entries must be 0 or 1")
    return arr.astype(BIT_DTYPE, copy=False)


def pack_bits(hv: np.ndarray) -> np.ndarray:
    """Pack a bit-per-byte hypervector into 8-bits-per-byte storage.

    The packed form uses ``ceil(d / 8)`` bytes per hypervector.  Packing is
    lossless together with :func:`unpack_bits` as long as the original
    dimension is supplied when unpacking (numpy pads the final byte).
    """
    arr = as_hypervector(hv)
    return np.packbits(arr, axis=-1)


def unpack_bits(packed: np.ndarray, dim: int) -> np.ndarray:
    """Invert :func:`pack_bits`, trimming the padding to ``dim`` bits."""
    dim = _validate_dimension(dim)
    unpacked = np.unpackbits(np.asarray(packed, dtype=np.uint8), axis=-1)
    if unpacked.shape[-1] < dim:
        raise InvalidParameterError(
            f"packed array holds only {unpacked.shape[-1]} bits, "
            f"cannot unpack to dimension {dim}"
        )
    return unpacked[..., :dim].astype(BIT_DTYPE, copy=False)
