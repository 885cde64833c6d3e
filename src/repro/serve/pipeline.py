"""The servable unit: an encoder specification plus a trained model.

A model alone cannot serve traffic — requests arrive as raw feature
records, not hypervectors — so the artifact the ``train`` CLI writes and
the :class:`~repro.serve.engine.InferenceEngine` loads is a
:class:`TrainedPipeline`: everything needed to go from a feature vector
to a prediction, frozen at training time.

Two encode shapes cover the paper's workloads:

* **key–value records** (``keys`` is a ``(k, d)`` table) — each request
  is a ``k``-channel record encoded as ``⊕_i K_i ⊗ V_{idx(x_i)}`` via
  the fused-table :class:`~repro.runtime.batch.BatchEncoder` (the
  Table 1 classification pipeline);
* **single feature** (``keys`` is ``None``) — each request is one value
  encoded directly through the embedding's basis table (the Mars
  Express regression pipeline).

Majority ties during request encoding take a position-free policy
(:data:`SERVE_TIE_BREAKS`: ``"zeros"``, the default, ``"ones"`` or
``"alternate"``), so identical requests always produce identical
hypervectors — alone or inside any micro-batch, across calls,
processes and machines.  ``"random"`` is rejected: its coins are keyed
by a record's position in its split, which a request does not have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Union

import numpy as np

from ..basis.base import Embedding
from ..exceptions import InvalidParameterError
from ..hdc.ops import TieBreak
from ..learning.classifier import CentroidClassifier
from ..learning.regression import HDRegressor

__all__ = ["SERVE_TIE_BREAKS", "TrainedPipeline"]

#: The two pipeline kinds, matching the model object they carry.
PIPELINE_KINDS = ("classification", "regression")

#: The tie policies a served pipeline may encode requests with: the
#: position-free ones, under which a record's bits never depend on its
#: micro-batch.
SERVE_TIE_BREAKS = ("zeros", "ones", "alternate")


@dataclass
class TrainedPipeline:
    """A frozen encode-and-predict pipeline, ready to save or serve.

    Attributes
    ----------
    kind:
        ``"classification"`` (model is a
        :class:`~repro.learning.classifier.CentroidClassifier`) or
        ``"regression"`` (model is an
        :class:`~repro.learning.regression.HDRegressor`).
    model:
        The trained model.
    embedding:
        The value embedding φ requests are quantised with.
    keys:
        ``(k, d)`` channel-key hypervectors for key–value record
        encoding, or ``None`` for single-feature pipelines.
    tie_break:
        Majority tie policy used when encoding requests, one of
        :data:`SERVE_TIE_BREAKS` (default ``"zeros"``).
    metadata:
        Free-form JSON-serialisable provenance (task name, basis kind,
        training metrics, …); stored verbatim in the manifest.

    Example
    -------
    >>> import numpy as np
    >>> from repro.basis import LevelBasis
    >>> from repro.learning import HDRegressor
    >>> from repro.serve import TrainedPipeline
    >>> emb = LevelBasis(16, 256, seed=0).linear_embedding(0.0, 1.0)
    >>> model = HDRegressor(emb, seed=1).fit(emb.encode_packed(np.linspace(0, 1, 30)),
    ...                                      np.linspace(0, 1, 30))
    >>> pipe = TrainedPipeline(kind="regression", model=model, embedding=emb)
    >>> pipe.num_features
    1
    """

    kind: str
    model: Union[CentroidClassifier, HDRegressor]
    embedding: Embedding
    keys: np.ndarray | None = None
    tie_break: TieBreak = "zeros"
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in PIPELINE_KINDS:
            raise InvalidParameterError(
                f"kind must be one of {PIPELINE_KINDS}, got {self.kind!r}"
            )
        expected = CentroidClassifier if self.kind == "classification" else HDRegressor
        if not isinstance(self.model, expected):
            raise InvalidParameterError(
                f"a {self.kind} pipeline needs a {expected.__name__}, "
                f"got {type(self.model).__name__}"
            )
        # Validate eagerly: a typo'd policy must fail here, not on every
        # later learn or predict.
        if self.tie_break not in SERVE_TIE_BREAKS:
            raise InvalidParameterError(
                f"a served pipeline's tie_break must be one of {SERVE_TIE_BREAKS}, "
                f"got {self.tie_break!r}; retrain the pipeline with one of them"
            )
        if self.keys is not None:
            self.keys = np.asarray(self.keys)
            if self.keys.ndim != 2:
                raise InvalidParameterError(
                    f"keys must be a (k, d) table, got shape {self.keys.shape}"
                )
            if self.keys.shape[1] != self.embedding.dim:
                raise InvalidParameterError(
                    f"keys dim {self.keys.shape[1]} does not match embedding "
                    f"dim {self.embedding.dim}"
                )

    @property
    def dim(self) -> int:
        """Hyperspace dimensionality of the pipeline."""
        return self.embedding.dim

    @property
    def num_features(self) -> int:
        """Features per request record (``k`` channels, or 1 keyless)."""
        return 1 if self.keys is None else int(self.keys.shape[0])
