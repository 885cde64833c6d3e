"""The ingest kernel tier: fused encode+accumulate for streaming training.

Streaming training (``encode_reduce`` → ``partial_fit``) is one logical
computation — *gather fused-table bits, threshold to a hypervector,
count one-bits per class* — but the reference path pays the numpy
temporary tax three times per chunk: the ``(rows, k, d)`` gather cube
inside :meth:`~repro.runtime.batch.BatchEncoder.chunk_counts`, the
packed encoded batch materialised by ``stream_encode``, and the
chunked *unpack* of that same batch inside
:meth:`~repro.hdc.packed.BundleAccumulator.add`.  This module provides
pluggable, bit-identity-tested backends for the whole pipeline stage,
mirroring the similarity-kernel tier of :mod:`repro.hdc.kernels`:

* ``"ref"`` — the reference path: encode the chunk, hand the encoded
  batch to the model's canonical ``partial_fit``.  Selecting it makes
  every dispatch site fall back to exactly the code that ran before
  this tier existed.
* ``"fused"`` — stream row blocks through the encoder's **packed
  majority kernel** (the one :meth:`~repro.runtime.batch.BatchEncoder.encode`
  serves with): each block's ``k`` channel rows are gathered as 64-bit
  words and reduced by a carry-save adder tree to packed "above" and
  "tied" masks, ties are resolved on those words with the same tie
  coins as the reference, and the block is unpacked once and its
  one-bits are summed per class (in uint16, exact up to 65,535 rows
  per block) straight into the model's
  :class:`~repro.hdc.packed.BundleAccumulator` integers via
  :meth:`~repro.hdc.packed.BundleAccumulator.add_counts`.  No gather
  cube, no per-bit byte sum and no encoded batch.
* ``"numba"`` — a byte-count gather+accumulate inner loop compiled by
  numba, when numba is importable (:data:`HAVE_NUMBA`).  Detected at
  import, never selected by ``"auto"``, never required by the test
  suite: requesting it without numba raises
  :class:`~repro.exceptions.InvalidParameterError`, and the exactness
  tests skip cleanly.  Thresholding and class accumulation stay in
  numpy so the JIT surface is the provably order-free integer sum.

Every backend is **bit-identical** to a monolithic ``fit`` — including
the positional tie-bit RNG draws of the ``"random"`` policy and the
model's untouched tie-break RNG — for any chunk size, block size,
thread count, and packed or unpacked encode, enforced by the property
tests in ``tests/hdc/test_ingest.py`` (the kernel itself is checked
against the byte counts in ``tests/runtime/test_batch.py``).

Backend selection follows the kernel tier's precedence: an explicit
``backend=``/``ingest=`` argument wins, then the
``REPRO_INGEST_KERNEL`` environment variable, then ``"auto"``.
``"auto"`` takes the fused path once the chunk holds at least
``ingest.fused_min_rows`` rows (below it, per-block dispatch overhead
can exceed the temporary tax) and the block size streams
``ingest.block_rows`` rows at a time; both knobs resolve through
:func:`repro.tuning.calibration.resolve_knob` (env var >
``REPRO_CALIBRATION`` artifact > built-in) and are measured by
``repro calibrate``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ..exceptions import DimensionMismatchError, InvalidParameterError
from ..tuning.calibration import ENV_CALIBRATION, register_cache, resolve_knob
from .ops import majority_from_counts
from .packed import BundleAccumulator

__all__ = [
    "INGEST_BACKENDS",
    "DEFAULT_BLOCK_ROWS",
    "DEFAULT_FUSED_MIN_ROWS",
    "HAVE_NUMBA",
    "EngineEncode",
    "ingest_block_rows",
    "ingest_chunk",
    "ingest_fused_min_rows",
    "learn_fused",
    "resolve_ingest_backend",
    "shard_ingest",
    "use_fused",
]

#: The selectable ingest backends (``"auto"`` picks ``ref``/``fused``
#: on the measured row crossover; ``"numba"`` is strictly opt-in).
INGEST_BACKENDS = ("auto", "ref", "fused", "numba")

#: Environment variable selecting the default ingest backend.
_ENV_BACKEND = "REPRO_INGEST_KERNEL"

#: Environment variables overriding the fused path's knobs (each also
#: has a calibration knob in the ``ingest`` section).
_ENV_BLOCK_ROWS = "REPRO_INGEST_BLOCK_ROWS"
_ENV_MIN_ROWS = "REPRO_INGEST_FUSED_MIN_ROWS"

#: Rows per fused block.  Bounds the transient unpacked block at
#: ``block · d`` bytes (plus its packed words); the per-class sums run
#: once per block.  Calibration knob: ``ingest.block_rows``.
DEFAULT_BLOCK_ROWS = 256

#: ``"auto"`` takes the fused path once a chunk holds at least this
#: many rows; tinier chunks stay on ``ref`` (per-block python dispatch
#: dominates below it).  Calibration knob:
#: ``ingest.fused_min_rows``.
DEFAULT_FUSED_MIN_ROWS = 32

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except Exception:  # ImportError, or a broken install
    _numba = None

#: True when the optional numba JIT backend is importable on this host.
HAVE_NUMBA = _numba is not None

#: Lazily compiled numba kernel (compile on first use, not at import).
_numba_counts = None


def resolve_ingest_backend(backend: Union[str, None] = None) -> str:
    """Normalise an ingest-backend request to a canonical name.

    ``None`` falls back to the ``REPRO_INGEST_KERNEL`` environment
    variable and then to ``"auto"``.  Unknown names raise
    :class:`~repro.exceptions.InvalidParameterError`, as does requesting
    ``"numba"`` on a host where numba is not importable — a forced
    backend must never silently degrade.

    >>> resolve_ingest_backend("fused")
    'fused'
    >>> resolve_ingest_backend("auto")
    'auto'
    """
    if backend is None:
        backend = os.environ.get(_ENV_BACKEND) or "auto"
    if backend not in INGEST_BACKENDS:
        raise InvalidParameterError(
            f"ingest backend must be one of {INGEST_BACKENDS}, got {backend!r}"
        )
    if backend == "numba" and not HAVE_NUMBA:
        raise InvalidParameterError(
            "ingest backend 'numba' was requested but numba is not "
            "importable on this host"
        )
    return backend


#: Memo of resolved ingest knobs, keyed on the raw environment strings
#: the precedence chain depends on (including the calibration artifact
#: path).  Registered with the calibration module, so
#: ``invalidate_cache()`` and every ``save_calibration()`` clear it —
#: an in-process re-calibration or a mid-process ``REPRO_CALIBRATION``
#: switch is picked up immediately.
_knob_memo: dict = {}
register_cache(_knob_memo)


def _ingest_knobs() -> tuple[int, int]:
    """The active ``(block_rows, fused_min_rows)`` pair, memoised."""
    env = os.environ
    key = (env.get(_ENV_BLOCK_ROWS), env.get(_ENV_MIN_ROWS), env.get(ENV_CALIBRATION))
    hit = _knob_memo.get(key)
    if hit is None:
        hit = (
            int(
                resolve_knob(
                    "ingest",
                    "block_rows",
                    builtin=DEFAULT_BLOCK_ROWS,
                    env_var=_ENV_BLOCK_ROWS,
                    cast=int,
                    minimum=1,
                )
            ),
            int(
                resolve_knob(
                    "ingest",
                    "fused_min_rows",
                    builtin=DEFAULT_FUSED_MIN_ROWS,
                    env_var=_ENV_MIN_ROWS,
                    cast=int,
                    minimum=1,
                )
            ),
        )
        if len(_knob_memo) > 64:
            _knob_memo.clear()
        _knob_memo[key] = hit
    return hit


def ingest_block_rows(block_rows: Union[int, None] = None) -> int:
    """Rows per fused threshold block (arg > env > artifact > built-in).

    >>> ingest_block_rows(128)
    128
    >>> ingest_block_rows() >= 1
    True
    """
    if block_rows is not None:
        return max(1, int(block_rows))
    return _ingest_knobs()[0]


def ingest_fused_min_rows(min_rows: Union[int, None] = None) -> int:
    """The fused-vs-ref row crossover (arg > env > artifact > built-in)."""
    if min_rows is not None:
        return max(1, int(min_rows))
    return _ingest_knobs()[1]


def use_fused(rows: int) -> bool:
    """The ``"auto"`` decision: fuse once the chunk is big enough.

    >>> use_fused(10_000)
    True
    >>> use_fused(0)
    False
    """
    return rows >= ingest_fused_min_rows()


@dataclass
class EngineEncode:
    """Picklable per-chunk encode with serving-engine tie semantics.

    The serving engine (:class:`repro.serve.engine.InferenceEngine`)
    encodes each call through
    :meth:`~repro.runtime.batch.BatchEncoder.encode` with a stream
    freshly seeded by the pipeline's ``encode_seed`` — per-*call*
    sequential draws, not the position-keyed coins of
    :class:`~repro.streaming.train.RecordEncode`.  This adapter carries
    that contract into :func:`~repro.streaming.reduce.encode_reduce`
    (used by :meth:`~repro.serve.online.OnlineLearner.learn_stream`),
    and its ``tie_semantics`` marker lets the fused backend reproduce
    the exact same draws (per-``chunk_size`` sub-block thresholds over
    one shared RNG stream).
    """

    encoder: object
    seed: object = None
    pool: object = field(default=None, compare=False)

    #: Tie-coin contract the fused path must reproduce (see module doc).
    tie_semantics = "engine"

    def __call__(self, chunk):
        return self.encoder.encode(
            np.asarray(chunk.features, dtype=np.float64),
            seed=self.seed,
            packed=True,
            pool=self.pool,
        )

    def __getstate__(self):
        # The thread pool is a per-process resource; workers encode
        # serially, which is bit-identical.
        state = self.__dict__.copy()
        state["pool"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


# ---------------------------------------------------------------------------
# Encoded bits of one block, without the (rows, k, d) gather cube.
# ---------------------------------------------------------------------------


def _numba_kernel():
    """Compile (once) and return the numba gather+accumulate loop."""
    global _numba_counts
    if _numba_counts is None:  # pragma: no cover - needs numba installed
        @_numba.njit(cache=False)
        def kernel(fused, idx, out):
            rows, k = idx.shape
            d = fused.shape[2]
            for r in range(rows):
                for c in range(k):
                    row = fused[c, idx[r, c]]
                    for j in range(d):
                        out[r, j] += row[j]

        _numba_counts = kernel
    return _numba_counts


def _block_bits(encoder, idx, semantics, rng, seed, start: int, jit: bool) -> np.ndarray:
    """Encoded ``(rows, d)`` bits of one block of index rows.

    Bit-identical to thresholding ``encoder.chunk_counts(idx)`` under
    the block's tie semantics: ``"engine"`` draws from the shared
    ``rng`` like :func:`~repro.hdc.ops.majority_from_counts`;
    ``"positional"`` resolves ``"random"`` ties with the coins of
    :func:`~repro.streaming.reduce.positional_tie_bits` for the absolute
    rows ``start + i``.  The default path runs the encoder's packed
    majority kernel and unpacks its words once; ``jit`` counts with the
    numba loop and thresholds those counts.
    """
    from ..streaming.reduce import positional_tie_words, resolve_majority

    if jit:
        counts = np.zeros((idx.shape[0], encoder.dim), dtype=encoder.count_dtype)
        _numba_kernel()(encoder._fused, np.ascontiguousarray(idx), counts)
        if semantics == "engine":
            return majority_from_counts(
                counts, encoder.num_channels, tie_break=encoder.tie_break, seed=rng
            )
        return resolve_majority(
            counts, encoder.num_channels, encoder.tie_break, seed, start
        )
    above, tied = encoder._majority_words(idx)
    if semantics == "positional" and tied is not None and encoder.tie_break == "random":
        rows = np.flatnonzero(tied.any(axis=1))
        if rows.size:
            above[rows] |= tied[rows] & positional_tie_words(seed, start + rows, encoder.dim)
    else:
        encoder._settle(above, tied, rng)
    return np.unpackbits(above.view(np.uint8), axis=-1, count=encoder.dim)


# ---------------------------------------------------------------------------
# Model-facing ingest drivers (classifier and regressor).
# ---------------------------------------------------------------------------


def _normalise_labels(targets) -> list:
    """The label normalisation of ``encode_reduce``/``worker_main``."""
    if isinstance(targets, np.ndarray):
        return targets.tolist()
    return list(targets)


def _classifier_blocks(model, encoder, features, labels, semantics, seed, start, jit):
    """Yield ``(label, counts, total)`` deltas block by block, in order.

    The shared core of the in-place model ingest and the pure cluster
    shard: encode-equivalent bits are produced per block and reduced to
    per-class integer count deltas immediately, so neither the encoded
    batch nor the gather cube ever exists.  Blocks are yielded serially
    in row order — first-seen label order over ordered blocks equals
    the monolithic first-seen order, which pins class insertion order.
    """
    if model.dim != encoder.dim:
        raise DimensionMismatchError(model.dim, encoder.dim, "ingest")
    idx = encoder.indices(np.asarray(features, dtype=np.float64))
    n = idx.shape[0]
    if len(labels) != n:
        raise InvalidParameterError(f"got {n} samples but {len(labels)} labels")
    if semantics == "engine":
        # The engine thresholds per encoder.chunk_size sub-chunk over one
        # shared RNG stream; the block boundary *is* the draw boundary.
        block = encoder.chunk_size
        rng = encoder._tie_rng(seed)
    else:
        block = ingest_block_rows()
        rng = None
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        bits = _block_bits(encoder, idx[lo:hi], semantics, rng, seed, start + lo, jit)
        # uint16 per-class sums are exact up to 65,535 rows.
        dtype = np.uint16 if hi - lo <= 0xFFFF else np.int64
        yield [
            (label, bits[mask].sum(axis=0, dtype=dtype), int(mask.sum()))
            for label, mask in model._label_masks(labels[lo:hi], hi - lo)
        ]


def _regressor_counts(model, embedding, column, features, targets):
    """The regressor's fused bind+count: ``(counts64, total)`` for a chunk.

    Bit-identical to ``partial_fit([(embedding.encode_packed(col), y)])``
    — the packed gather, ``packed_bind`` and the accumulator's chunked
    unpack all cancel into one unpacked gather + in-place XOR + integer
    sum (packing is exact, XOR commutes with it bit for bit).
    """
    values = np.asarray(features, dtype=np.float64)[:, column]
    y = np.asarray(targets, dtype=np.float64)
    n = values.shape[0]
    if y.shape != (n,):
        raise InvalidParameterError(f"y must have shape ({n},), got {y.shape}")
    feature_idx = embedding.indices(values)
    label_idx = model.label_embedding.indices(y)
    feature_table = embedding.basis.vectors
    label_table = model.label_embedding.basis.vectors
    d = embedding.dim
    if model.dim != d:
        raise DimensionMismatchError(model.dim, d, "ingest")
    counts = np.zeros(d, dtype=np.int64)
    block = ingest_block_rows()
    buf = np.empty((min(block, n), d), dtype=feature_table.dtype)
    lbuf = np.empty_like(buf)
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        view, lview = buf[: hi - lo], lbuf[: hi - lo]
        np.take(feature_table, feature_idx[lo:hi], axis=0, out=view)
        np.take(label_table, label_idx[lo:hi], axis=0, out=lview)
        np.bitwise_xor(view, lview, out=view)
        counts += view.sum(axis=0, dtype=np.int64)
    return counts, n


def _classifier_plan(model, encode):
    encoder = getattr(encode, "encoder", None)
    semantics = getattr(encode, "tie_semantics", None)
    if encoder is None or not hasattr(encoder, "_majority_words"):
        return None
    if semantics not in ("positional", "engine"):
        return None
    if not hasattr(model, "ingest_counts") or not hasattr(model, "_label_masks"):
        return None
    return encoder, semantics, getattr(encode, "seed", None)


def _regressor_plan(model, encode):
    embedding = getattr(encode, "embedding", None)
    column = getattr(encode, "column", None)
    if embedding is None or column is None:
        return None
    if not hasattr(model, "ingest_counts") or not hasattr(model, "label_embedding"):
        return None
    return embedding, int(column)


def _select(rows: int, backend: Union[str, None]) -> Union[str, None]:
    """Resolve the backend for a ``rows``-row unit; ``None`` means ref."""
    name = resolve_ingest_backend(backend)
    if name == "ref":
        return None
    if name == "auto":
        return "fused" if use_fused(rows) else None
    return name


def ingest_chunk(model, chunk, encode, backend: Union[str, None] = None) -> bool:
    """Fused-ingest one chunk into ``model``; True when handled.

    The dispatch seam :func:`repro.streaming.reduce.encode_reduce`
    consults per chunk.  Returns ``False`` — *take the reference path* —
    when the resolved backend is ``"ref"``, when ``"auto"`` decides the
    chunk is below the fused crossover, or when the ``(model, encode)``
    pair is not a recognised fusible combination (an arbitrary encode
    callable must keep working unchanged).  When it returns ``True``
    the model holds exactly the bytes the reference path would have
    produced, including tie RNG draws.
    """
    rows = int(getattr(chunk, "rows", 0))
    if rows <= 0:
        return False
    name = _select(rows, backend)
    if name is None:
        return False
    jit = name == "numba"
    plan = _classifier_plan(model, encode)
    if plan is not None:
        encoder, semantics, seed = plan
        labels = _normalise_labels(chunk.targets)
        for deltas in _classifier_blocks(
            model, encoder, chunk.features, labels, semantics, seed, chunk.start, jit
        ):
            model.ingest_counts(deltas)
        return True
    plan = _regressor_plan(model, encode)
    if plan is not None:
        embedding, column = plan
        counts, total = _regressor_counts(
            model, embedding, column, chunk.features, chunk.targets
        )
        model.ingest_counts(counts, total)
        return True
    return False


def shard_ingest(proto, chunk, encode, backend: Union[str, None] = None):
    """The pure (stateless) form of :func:`ingest_chunk` for workers.

    Computes the same per-class/per-model count deltas into *fresh*
    :class:`~repro.hdc.packed.BundleAccumulator` objects and returns
    them in the shape :func:`repro.learning.merge.shard_delta` produces
    — a first-seen-ordered ``{label: accumulator}`` dict for
    classifiers, one accumulator for regressors — byte-identical to the
    reference delta (same pickled integers), so cluster replay under
    any backend regenerates identical messages.  Returns ``None`` when
    the reference path should run instead.
    """
    rows = int(getattr(chunk, "rows", 0))
    if rows <= 0:
        return None
    name = _select(rows, backend)
    if name is None:
        return None
    jit = name == "numba"
    plan = _classifier_plan(proto, encode)
    if plan is not None:
        encoder, semantics, seed = plan
        labels = _normalise_labels(chunk.targets)
        shard: dict = {}
        for deltas in _classifier_blocks(
            proto, encoder, chunk.features, labels, semantics, seed, chunk.start, jit
        ):
            for label, counts, total in deltas:
                if label not in shard:
                    shard[label] = BundleAccumulator(proto.dim)
                shard[label].add_counts(counts, total)
        return shard
    plan = _regressor_plan(proto, encode)
    if plan is not None:
        embedding, column = plan
        counts, total = _regressor_counts(
            proto, embedding, column, chunk.features, chunk.targets
        )
        acc = BundleAccumulator(proto.dim)
        acc.add_counts(counts, total)
        return acc
    return None


def learn_fused(
    model, encoder, features, targets, seed=None, backend: Union[str, None] = None
) -> bool:
    """Fused in-memory learn with serving-engine tie semantics.

    The :meth:`~repro.serve.online.OnlineLearner.learn` hot path:
    equivalent to ``model.partial_fit([(encoder.encode(features,
    seed=seed, packed=True), targets)])`` — same bits, same RNG draws —
    without materialising the encoded batch.  Returns ``False`` when
    the reference path should run (backend ``"ref"``, sub-crossover
    batch, or a model without the ingest surface).
    """
    batch = np.asarray(features, dtype=np.float64)
    rows = batch.shape[0] if batch.ndim == 2 else 0
    if rows <= 0:
        return False
    name = _select(rows, backend)
    if name is None:
        return False
    if not hasattr(model, "ingest_counts") or not hasattr(model, "_label_masks"):
        return False
    labels = _normalise_labels(targets)
    for deltas in _classifier_blocks(
        model, encoder, batch, labels, "engine", seed, 0, name == "numba"
    ):
        model.ingest_counts(deltas)
    return True
