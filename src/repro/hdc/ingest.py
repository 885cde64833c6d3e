"""The ingest kernel tier: fused encode+accumulate for streaming training.

Streaming classifier training (``encode_reduce`` → ``partial_fit``) is
one logical computation — *gather fused-table bits, threshold to a
hypervector, count one-bits per class* — but the reference path pays
the numpy temporary tax three times per chunk: the ``(rows, k, d)``
gather cube inside
:meth:`~repro.runtime.batch.BatchEncoder.chunk_counts`, the packed
encoded batch materialised by ``stream_encode``, and the chunked
*unpack* of that same batch inside
:meth:`~repro.hdc.packed.BundleAccumulator.add`.  Ingest therefore
makes one decision with two outcomes:

* **Fused** — a recognised classifier ``(model, encode)`` pair streams
  row blocks through the encoder's **packed majority kernel** (the one
  :meth:`~repro.runtime.batch.BatchEncoder.encode` serves with): each
  block's ``k`` channel rows are gathered as 64-bit words and reduced
  by a carry-save adder tree to packed "above" and "tied" masks, ties
  are resolved on those words with the same tie coins as the
  reference, and the block is unpacked once and its one-bits are
  summed per class (in uint16, exact up to 65,535 rows per block)
  straight into the model's
  :class:`~repro.hdc.packed.BundleAccumulator` integers via
  :meth:`~repro.hdc.packed.BundleAccumulator.add_counts`.  No gather
  cube, no per-bit byte sum and no encoded batch.
* **Reference** — everything else, including every
  :class:`~repro.learning.regression.HDRegressor`: encode the chunk and
  hand the encoded batch to the model's canonical ``partial_fit``.  A
  regressor's bound terms are one gather and one XOR per row, which
  the reference path already does at least as fast as a fused loop.

The ``ingest=`` selector names the path: ``"ref"`` forces the
reference, while ``"auto"`` (also what ``None`` means) and ``"fused"``
are two names for the fused path.  The fused path is **bit-identical**
to a monolithic ``fit`` — including the positional tie-bit RNG draws of
the ``"random"`` policy and the model's untouched tie-break RNG — for
any chunk size, block size, thread count, and packed or unpacked
encode, enforced by the property tests in ``tests/hdc/test_ingest.py``
(the kernel itself is checked against the byte counts in
``tests/runtime/test_batch.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..exceptions import DimensionMismatchError, InvalidParameterError
from .packed import BundleAccumulator

__all__ = [
    "INGEST_BACKENDS",
    "EngineEncode",
    "ingest_chunk",
    "learn_fused",
    "resolve_ingest_backend",
    "shard_ingest",
]

#: The selectable ingest backends: ``"ref"`` is the reference
#: encode-then-``partial_fit`` path; ``"auto"`` and ``"fused"`` both
#: name the fused classifier path.
INGEST_BACKENDS = ("auto", "ref", "fused")

#: Rows per fused block.  Bounds the transient unpacked block at
#: ``block · d`` bytes (plus its packed words); the per-class sums run
#: once per block.  Any value is bit-identical.
_BLOCK_ROWS = 256


def resolve_ingest_backend(backend: Union[str, None] = None) -> str:
    """Normalise an ingest-backend request to a canonical name.

    ``None`` means ``"auto"``.  Unknown names raise
    :class:`~repro.exceptions.InvalidParameterError`.

    >>> resolve_ingest_backend("fused")
    'fused'
    >>> resolve_ingest_backend()
    'auto'
    """
    if backend is None:
        return "auto"
    if backend not in INGEST_BACKENDS:
        raise InvalidParameterError(
            f"ingest backend must be one of {INGEST_BACKENDS}, got {backend!r}"
        )
    return backend


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

    #: Tie-coin contract the fused path must reproduce (see module doc).
    tie_semantics = "engine"

    def __call__(self, chunk):
        return self.encoder.encode(
            np.asarray(chunk.features, dtype=np.float64), seed=self.seed, packed=True
        )


# ---------------------------------------------------------------------------
# Encoded bits of one block, without the (rows, k, d) gather cube.
# ---------------------------------------------------------------------------


def _block_bits(encoder, idx, semantics, rng, seed, start: int) -> np.ndarray:
    """Encoded ``(rows, d)`` bits of one block of index rows.

    Bit-identical to thresholding ``encoder.chunk_counts(idx)`` under
    the block's tie semantics: ``"engine"`` draws from the shared
    ``rng`` like :func:`~repro.hdc.ops.majority_from_counts`;
    ``"positional"`` resolves ``"random"`` ties with the coins of
    :func:`~repro.streaming.reduce.positional_tie_bits` for the absolute
    rows ``start + i``.  Runs the encoder's packed majority kernel and
    unpacks its words once.
    """
    from ..streaming.reduce import positional_tie_words

    above, tied = encoder._majority_words(idx)
    if semantics == "positional" and tied is not None and encoder.tie_break == "random":
        rows = np.flatnonzero(tied.any(axis=1))
        if rows.size:
            above[rows] |= tied[rows] & positional_tie_words(seed, start + rows, encoder.dim)
    else:
        encoder._settle(above, tied, rng)
    return np.unpackbits(above.view(np.uint8), axis=-1, count=encoder.dim)


# ---------------------------------------------------------------------------
# Model-facing ingest drivers.
# ---------------------------------------------------------------------------


def _normalise_labels(targets) -> list:
    """The label normalisation of ``encode_reduce``/``worker_main``."""
    if isinstance(targets, np.ndarray):
        return targets.tolist()
    return list(targets)


def _classifier_blocks(model, encoder, features, labels, semantics, seed, start):
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
        block = _BLOCK_ROWS
        rng = None
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        bits = _block_bits(encoder, idx[lo:hi], semantics, rng, seed, start + lo)
        # uint16 per-class sums are exact up to 65,535 rows.
        dtype = np.uint16 if hi - lo <= 0xFFFF else np.int64
        yield [
            (label, bits[mask].sum(axis=0, dtype=dtype), int(mask.sum()))
            for label, mask in model._label_masks(labels[lo:hi], hi - lo)
        ]


def _is_classifier(model) -> bool:
    return hasattr(model, "ingest_counts") and hasattr(model, "_label_masks")


def _classifier_plan(model, encode):
    """``(encoder, semantics, seed)`` for a fusible pair, else ``None``."""
    encoder = getattr(encode, "encoder", None)
    semantics = getattr(encode, "tie_semantics", None)
    if encoder is None or not hasattr(encoder, "_majority_words"):
        return None
    if semantics not in ("positional", "engine") or not _is_classifier(model):
        return None
    return encoder, semantics, getattr(encode, "seed", None)


def _fuse(rows: int, backend: Union[str, None]) -> bool:
    """Whether a ``rows``-row unit may take the fused path."""
    return rows > 0 and resolve_ingest_backend(backend) != "ref"


def ingest_chunk(model, chunk, encode, backend: Union[str, None] = None) -> bool:
    """Fused-ingest one chunk into ``model``; True when handled.

    The dispatch seam :func:`repro.streaming.reduce.encode_reduce`
    consults per chunk.  Returns ``False`` — *take the reference path* —
    for an empty chunk, when the resolved backend is ``"ref"``, or when
    the ``(model, encode)`` pair is not a recognised classifier
    combination (regressors and arbitrary encode callables keep the
    reference path unchanged).  When it returns ``True`` the model
    holds exactly the bytes the reference path would have produced,
    including tie RNG draws.
    """
    if not _fuse(int(getattr(chunk, "rows", 0)), backend):
        return False
    plan = _classifier_plan(model, encode)
    if plan is None:
        return False
    encoder, semantics, seed = plan
    labels = _normalise_labels(chunk.targets)
    for deltas in _classifier_blocks(
        model, encoder, chunk.features, labels, semantics, seed, chunk.start
    ):
        model.ingest_counts(deltas)
    return True


def shard_ingest(proto, chunk, encode, backend: Union[str, None] = None):
    """The pure (stateless) form of :func:`ingest_chunk` for workers.

    Computes the same per-class count deltas into *fresh*
    :class:`~repro.hdc.packed.BundleAccumulator` objects and returns
    them in the shape :func:`repro.learning.merge.shard_delta` produces
    — a first-seen-ordered ``{label: accumulator}`` dict — byte-identical
    to the reference delta (same pickled integers), so cluster replay
    under any backend regenerates identical messages.  Returns ``None``
    when the reference path should run instead.
    """
    if not _fuse(int(getattr(chunk, "rows", 0)), backend):
        return None
    plan = _classifier_plan(proto, encode)
    if plan is None:
        return None
    encoder, semantics, seed = plan
    labels = _normalise_labels(chunk.targets)
    shard: dict = {}
    for deltas in _classifier_blocks(
        proto, encoder, chunk.features, labels, semantics, seed, chunk.start
    ):
        for label, counts, total in deltas:
            if label not in shard:
                shard[label] = BundleAccumulator(proto.dim)
            shard[label].add_counts(counts, total)
    return shard


def learn_fused(
    model, encoder, features, targets, seed=None, backend: Union[str, None] = None
) -> bool:
    """Fused in-memory learn with serving-engine tie semantics.

    The :meth:`~repro.serve.online.OnlineLearner.learn` hot path:
    equivalent to ``model.partial_fit([(encoder.encode(features,
    seed=seed, packed=True), targets)])`` — same bits, same RNG draws —
    without materialising the encoded batch.  Returns ``False`` when
    the reference path should run (backend ``"ref"``, an empty batch,
    or a model that is not a classifier).
    """
    batch = np.asarray(features, dtype=np.float64)
    rows = batch.shape[0] if batch.ndim == 2 else 0
    if not _fuse(rows, backend) or not _is_classifier(model):
        return False
    labels = _normalise_labels(targets)
    for deltas in _classifier_blocks(model, encoder, batch, labels, "engine", seed, 0):
        model.ingest_counts(deltas)
    return True
