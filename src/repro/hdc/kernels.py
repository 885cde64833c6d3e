"""The similarity-kernel subsystem: exact backends with size-aware dispatch.

Every prediction, retrieval and figure in this reproduction bottoms out
in one computation — the all-pairs normalized Hamming distance between
two batches of packed hypervectors.  This module computes it with two
**exact, bit-identical** private backends, picks between them from the
input size, and adds a fused top-k retrieval kernel:

* ``_xor_counts`` — the XOR + popcount scan, widened to ``uint64``
  words: the packed rows are zero-padded to a whole number of words
  (the padding bits are zero, so popcount is unchanged — exact), and
  the larger operand is streamed in cache-sized blocks through per-call
  scratch (in-place ``bitwise_xor`` + ``bitwise_count``), so no
  per-block numpy temporaries materialise.  It runs on the calling
  thread.  Unbeatable when one side is small (a single query, or a
  batch against a handful of class vectors).
* ``_gemm_counts`` — the classic HDC identity
  ``popcount(a XOR b) = |a| + |b| − 2·(a · b)`` turns all-pairs distance
  into one BLAS matrix product over the unpacked operands.  Cache-blocked
  and SIMD-vectorised by BLAS, it is many times faster than the XOR scan
  once both batches are non-trivial.  The product runs in ``float32``
  for ``d ≤ 2²⁴`` (where every intermediate is an exactly representable
  integer, so the result is **exact**, not approximate) and ``float64``
  beyond; the unpacked operand blocks never exceed the allocation budget
  (:func:`repro.hdc.packed.cell_budget`, ``REPRO_KERNEL_BUDGET``).

Selection is this module's own decision: every call runs ``gemm`` if
:func:`use_gemm` says so, else ``xor``.  The cost model: the XOR scan is
``O(n·m·d)`` word traffic, while GEMM pays an ``O((n+m)·d)`` unpack toll
plus ``O(n·m·d)`` FLOPs at a far higher throughput.  Equating the two,
the ``d`` terms roughly cancel and the crossover becomes the harmonic
size ``n·m / (n+m)``: GEMM wins once *both* batches are big enough.  The
cancellation is not exact for the word scan: the measured surface
(``benchmarks/bench_kernels_similarity.py``, 2 CPUs) puts break-even
between harmonic sizes 16 and 32 at ``d = 1,000`` and between 32 and 50
at ``d = 10,000``.  :data:`AUTO_CROSSOVER` stays at 16: the serving and
training paths run shapes far below it (a batch against a handful of
class vectors) or far above it (all-pairs figures).  Since both backends
return the same bits, the choice moves time only, so no caller gets to
override it.

:func:`topk_hamming` fuses retrieval with the distance computation: it
scans the table in budget-bounded blocks, keeping only the running best
``k`` per query, so the full ``(n, m)`` matrix is never materialised
when ``k ≪ m``.  Ties break toward the lower table index — deterministic
and identical to a stable full-matrix ``argsort``.

All of this is property-tested for bitwise agreement with the packed
layer's byte-wise reference
(:func:`~repro.hdc.packed.packed_pairwise_hamming`) across both
backends, the dispatch on either side of the crossover, odd dimensions
(tail-mask and word-padding edges), both operand orientations, the
lookup-table popcount fallback and budget settings in
``tests/hdc/test_kernels.py``.
"""

from __future__ import annotations

from typing import NamedTuple, Union

import numpy as np

from ..exceptions import DimensionMismatchError, InvalidParameterError
from . import packed as _packed
from .packed import (
    DEFAULT_CELL_BUDGET,
    PackedHV,
    cell_budget,
    coerce_packed,
    popcount,
)

__all__ = [
    "AUTO_CROSSOVER",
    "DEFAULT_CELL_BUDGET",
    "TopK",
    "cell_budget",
    "use_gemm",
    "pairwise_hamming",
    "topk_hamming",
]

#: The dispatch uses GEMM when ``n·m / (n + m)`` is at least this.  Below
#: it the unpack toll dominates and the XOR scan wins.  Recorded with
#: ``benchmarks/bench_kernels_similarity.py`` (see the module docstring
#: for the measured surface).
AUTO_CROSSOVER = 16.0

#: Cache-sized cap, in ``uint64`` cells, on the XOR scan's per-call
#: scratch block (512 KiB of ``uint64`` + 64 KiB of counts) — small
#: enough to stay cache-resident, large enough to amortise dispatch.
_XOR_BLOCK_CELLS = 1 << 16

#: Largest ``d`` for which float32 dot products of {0,1} vectors are
#: exact (every partial sum is an integer ≤ d < 2^24).
_EXACT_FLOAT32_MAX_DIM = 1 << 24


class TopK(NamedTuple):
    """Result of :func:`topk_hamming`: ascending by ``(distance, index)``."""

    #: Table-row indices of the ``k`` nearest entries, per query.
    indices: np.ndarray
    #: The matching normalized Hamming distances.
    distances: np.ndarray


def use_gemm(n: int, m: int) -> bool:
    """Whether an ``(n, d) × (m, d)`` distance matrix runs on GEMM.

    The cost model's ``d`` factors roughly cancel (see the module
    docstring), so only the harmonic size ``n·m / (n+m)`` decides,
    against :data:`AUTO_CROSSOVER`.

    >>> use_gemm(1, 1000)   # single query: unpack toll dominates
    False
    >>> use_gemm(100, 100)  # both sides big: BLAS wins
    True
    """
    if n <= 0 or m <= 0:
        return False
    return n * m >= AUTO_CROSSOVER * (n + m)


def _as_rows(hv: Union[PackedHV, np.ndarray], context: str) -> PackedHV:
    packed = coerce_packed(hv)
    if packed.ndim != 2:
        raise InvalidParameterError(
            f"{context} expects a (n, d) batch, got shape {packed.shape}"
        )
    return packed


def _unpack_block(data: np.ndarray, dim: int, dtype: type) -> np.ndarray:
    return np.unpackbits(data, axis=-1, count=dim).astype(dtype)


def _gemm_counts(
    data_a: np.ndarray, data_b: np.ndarray, dim: int, normalize: bool = False
) -> np.ndarray:
    """Hamming counts via ``|a| + |b| − 2·a·b`` (one BLAS GEMM).

    The unpacked ``float32``/``float64`` operands are produced in row
    blocks of at most :func:`cell_budget` cells each, so peak transient
    memory is bounded no matter how large the batches are.  Exactness:
    with 0/1 operands every partial sum of a dot product is an integer
    bounded by ``dim``, exactly representable in ``float32`` for
    ``dim ≤ 2²⁴`` (``float64`` is used beyond), so truncating the
    product back to ``int64`` loses nothing and the counts equal the
    XOR-popcount counts bit for bit.  ``normalize=True`` divides each
    block as it is written (one full ``(n, m)`` float matrix, never an
    extra counts matrix).
    """
    n = data_a.shape[0]
    m = data_b.shape[0]
    dtype = np.float32 if dim <= _EXACT_FLOAT32_MAX_DIM else np.float64
    pop_a = popcount(data_a, axis=-1)
    pop_b = pop_a if data_b is data_a else popcount(data_b, axis=-1)
    out = np.empty((n, m), dtype=np.float64 if normalize else np.int64)
    budget = cell_budget()
    block = max(1, budget // max(1, dim))

    def fill(a_lo: int, a_hi: int, fa: np.ndarray, b_lo: int, b_hi: int, fb: np.ndarray) -> None:
        prod = fa @ fb.T
        counts = (
            pop_a[a_lo:a_hi, None] + pop_b[None, b_lo:b_hi] - 2 * prod.astype(np.int64)
        )
        out[a_lo:a_hi, b_lo:b_hi] = counts / dim if normalize else counts

    if data_b is data_a and n <= block:
        fa = _unpack_block(data_a, dim, dtype)
        fill(0, n, fa, 0, m, fa)
    elif m <= block:
        fb = _unpack_block(data_b, dim, dtype)
        for a_lo in range(0, n, block):
            a_hi = min(n, a_lo + block)
            fill(a_lo, a_hi, _unpack_block(data_a[a_lo:a_hi], dim, dtype), 0, m, fb)
    elif n <= block:
        fa = _unpack_block(data_a, dim, dtype)
        for b_lo in range(0, m, block):
            b_hi = min(m, b_lo + block)
            fill(0, n, fa, b_lo, b_hi, _unpack_block(data_b[b_lo:b_hi], dim, dtype))
    else:
        for a_lo in range(0, n, block):
            a_hi = min(n, a_lo + block)
            fa = _unpack_block(data_a[a_lo:a_hi], dim, dtype)
            for b_lo in range(0, m, block):
                b_hi = min(m, b_lo + block)
                fill(a_lo, a_hi, fa, b_lo, b_hi, _unpack_block(data_b[b_lo:b_hi], dim, dtype))
    return out


def _widen_u64(data: np.ndarray) -> np.ndarray:
    """View packed ``uint8`` rows as ``uint64`` words, zero-padding the tail.

    The pad bytes are zero, so XOR + popcount over the widened words is
    exactly the byte-wise result — this is what lets the ``xor`` scan
    process 8 bytes per word without any masking.
    """
    rows, width = data.shape
    w64 = (width + 7) // 8
    if width == w64 * 8:
        return np.ascontiguousarray(data).view(np.uint64)
    wide = np.zeros((rows, w64 * 8), dtype=np.uint8)
    wide[:, :width] = data
    return wide.view(np.uint64)


def _popcount_block(buf: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Per-pair popcounts of a ``uint64`` XOR block, into scratch ``cnt``.

    Sums the trailing word axis into ``int64``.  Honours the packed
    layer's ``bitwise_count`` availability flag so the lookup-table
    fallback stays exact (the ``uint64`` words are just reinterpreted as
    bytes there).
    """
    if _packed._HAVE_BITWISE_COUNT:
        np.bitwise_count(buf, out=cnt)
        return cnt.sum(axis=-1, dtype=np.int64)
    table = _packed._POPCOUNT_TABLE
    return table[buf.view(np.uint8)].sum(axis=-1, dtype=np.int64)


def _xor_counts(
    data_a: np.ndarray, data_b: np.ndarray, dim: int, normalize: bool = False
) -> np.ndarray:
    """Hamming counts via the blocked ``uint64`` XOR + popcount scan.

    The packed rows are widened to ``uint64`` (exact — pad bytes are
    zero), and blocks of the larger operand stream through XOR/count
    scratch allocated once per call (in-place ``bitwise_xor`` +
    ``bitwise_count``), so no per-block temporaries materialise.  The
    scratch is per call, never module-level, so concurrent callers on
    different threads never share it.  Block size only schedules work:
    the result is bit-identical to the byte-wise reference for any
    budget.  ``normalize=True`` divides each block as it is written.
    """
    n = data_a.shape[0]
    m = data_b.shape[0]
    out = np.empty((n, m), dtype=np.float64 if normalize else np.int64)
    if n == 0 or m == 0:
        return out
    # Block over the larger side; the smaller one is the resident cube axis.
    swap = n > m
    lhs, rhs = (data_b, data_a) if swap else (data_a, data_b)
    wa = _widen_u64(lhs)
    wb = wa if rhs is lhs else _widen_u64(rhs)
    rows_a, w64 = wa.shape
    rows_b = wb.shape[0]
    # The scratch is a (rows_a, block, w64) cube, capped by the
    # cache-sized block constant and the shared allocation budget
    # (uint64 cells are 8 byte cells of budget).
    limit = min(_XOR_BLOCK_CELLS, max(1, cell_budget() // 8))
    block = max(1, min(rows_b, limit // max(1, rows_a * w64)))
    buf = np.empty((rows_a, block, w64), dtype=np.uint64)
    cnt = np.empty((rows_a, block, w64), dtype=np.uint8)
    for lo in range(0, rows_b, block):
        hi = min(rows_b, lo + block)
        blk = hi - lo
        np.bitwise_xor(wa[:, None, :], wb[None, lo:hi, :], out=buf[:, :blk])
        counts = _popcount_block(buf[:, :blk], cnt[:, :blk])
        target = counts / dim if normalize else counts
        if swap:
            out[lo:hi, :] = target.T
        else:
            out[:, lo:hi] = target
    return out


def _counts(pa: PackedHV, pb: PackedHV, normalize: bool = False) -> np.ndarray:
    """Counts (or, ``normalize``-d, distances) on the :func:`use_gemm` backend.

    Both backends fill one output matrix block-wise; normalization
    happens per block so the distance form never materialises a counts
    matrix too.
    """
    if use_gemm(pa.data.shape[0], pb.data.shape[0]):
        return _gemm_counts(pa.data, pb.data, pa.dim, normalize=normalize)
    return _xor_counts(pa.data, pb.data, pa.dim, normalize=normalize)


def _as_pair(
    vectors: Union[PackedHV, np.ndarray],
    others: Union[PackedHV, np.ndarray, None],
) -> tuple[PackedHV, PackedHV]:
    """Coerce the all-pairs operands, defaulting ``others`` to ``vectors``."""
    pa = _as_rows(vectors, "pairwise_hamming")
    if others is None:
        return pa, pa
    pb = _as_rows(others, "pairwise_hamming")
    if pa.dim != pb.dim:
        raise DimensionMismatchError(pa.dim, pb.dim, "pairwise_hamming")
    return pa, pb


def pairwise_hamming(
    vectors: Union[PackedHV, np.ndarray],
    others: Union[PackedHV, np.ndarray, None] = None,
) -> np.ndarray:
    """All-pairs normalized Hamming distance.

    Compares an ``(n, d)`` batch against an ``(m, d)`` batch (default:
    itself) and returns the ``(n, m)`` float matrix.  Accepts packed or
    unpacked rows.  The backend is the one :func:`use_gemm` picks for
    ``(n, m)``; both return the same bits.

    >>> import numpy as np
    >>> a = np.array([[0, 1, 1, 0], [1, 1, 1, 1]], dtype=np.uint8)
    >>> pairwise_hamming(a).tolist()
    [[0.0, 0.5], [0.5, 0.0]]
    """
    pa, pb = _as_pair(vectors, others)
    return _counts(pa, pb, normalize=True)


def topk_hamming(
    queries: Union[PackedHV, np.ndarray],
    table: Union[PackedHV, np.ndarray],
    k: int,
) -> TopK:
    """The ``k`` nearest table rows per query, without the full matrix.

    The table is scanned in blocks sized by the allocation budget; each
    block's distances (on the backend :func:`use_gemm` picks for the
    block) are merged into a running best-``k`` per query, so at most
    ``n × (block + k)`` candidate cells ever exist — for ``k ≪ m`` the
    full ``(n, m)`` matrix is never materialised.

    Results are sorted ascending by ``(distance, table index)``: ties
    break toward the **lower index**, deterministically, matching a
    stable full-matrix argsort and independent of the backend and the
    budget (property-tested).

    ``queries`` may be a single hypervector ``(d,)`` (returns ``(k,)``
    arrays) or a batch ``(n, d)`` (returns ``(n, k)`` arrays).

    >>> import numpy as np
    >>> table = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 1]], dtype=np.uint8)
    >>> hit = topk_hamming(np.zeros(4, dtype=np.uint8), table, k=2)
    >>> hit.indices.tolist(), hit.distances.tolist()
    ([0, 2], [0.0, 0.25])
    """
    pq = coerce_packed(queries)
    single = pq.ndim == 1
    if single:
        pq = PackedHV(pq.data[None, :], pq.dim)
    if pq.ndim != 2:
        raise InvalidParameterError(
            f"topk_hamming expects a single hypervector or an (n, d) batch "
            f"of queries, got shape {pq.shape}"
        )
    pt = _as_rows(table, "topk_hamming")
    if pq.dim != pt.dim:
        raise DimensionMismatchError(pq.dim, pt.dim, "topk_hamming")
    m = pt.data.shape[0]
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or not 1 <= k <= m:
        raise InvalidParameterError(
            f"k must be an integer in [1, {m}] (the table size), got {k!r}"
        )
    n = pq.data.shape[0]
    dim = pq.dim
    if (dim + 1) * m >= 2**63:  # pragma: no cover - absurd sizes
        raise InvalidParameterError(
            f"top-k merge keys would overflow int64 for dim={dim}, m={m}"
        )
    block = int(min(m, max(k, cell_budget() // max(1, n))))
    best: np.ndarray | None = None  # (n, ≤k) combined keys, each row sorted
    for lo in range(0, m, block):
        hi = min(m, lo + block)
        counts = _counts(pq, pt[lo:hi])
        # Combined sort key: counts·m + index is ascending-lexicographic
        # in (count, index), so one integer sort gives the deterministic
        # lower-index tie-break.
        keys = counts * np.int64(m) + np.arange(lo, hi, dtype=np.int64)[None, :]
        cand = keys if best is None else np.concatenate([best, keys], axis=1)
        keep = min(k, cand.shape[1])
        if cand.shape[1] > keep:
            part = np.argpartition(cand, keep - 1, axis=1)[:, :keep]
            cand = np.take_along_axis(cand, part, axis=1)
        best = np.sort(cand, axis=1)
    assert best is not None  # m >= 1 guarantees one block ran
    indices = best % m
    distances = (best // m) / dim
    if single:
        return TopK(indices[0], distances[0])
    return TopK(indices, distances)
