"""The sequential ``predict_one`` oracle for the serving tier.

Any concurrent interleaving of requests through the micro-batcher or the
HTTP server must answer each one **bit-identically** to the same
requests answered one at a time through
:meth:`InferenceEngine.predict_one
<repro.serve.engine.InferenceEngine.predict_one>`.
:func:`oracle_transcript` computes that ground truth for a list of
:class:`TraceRequest` records; both sides normalise through
:func:`~repro.serve.server.json_scalar`, so the comparison is exact
``==`` on JSON scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..exceptions import InvalidParameterError
from .engine import InferenceEngine
from .server import json_scalar

__all__ = ["TraceRequest", "oracle_transcript"]


@dataclass(frozen=True)
class TraceRequest:
    """One request: its id, arrival offset, target model and feature row."""

    id: int  #: unique, non-negative; transcripts are keyed by it
    t: float  #: arrival offset from the start of the run, seconds
    model: str  #: registry model name
    features: tuple  #: the feature row (immutable so requests are hashable)


def oracle_transcript(
    trace: Sequence[TraceRequest], engines: Mapping[str, InferenceEngine]
) -> list:
    """The sequential ground truth a concurrent run must reproduce.

    Answers the requests one at a time through each model's
    :meth:`~repro.serve.engine.InferenceEngine.predict_one` — no
    batching, no concurrency, no scheduler — and returns the answers in
    request order, json-normalised.  Any interleaving of the same
    requests through the micro-batcher (or the HTTP server) must equal
    this list exactly; the tests and the concurrency benchmark both
    assert ``==``.
    """
    transcript = []
    for req in trace:
        engine = engines.get(req.model)
        if engine is None:
            raise InvalidParameterError(
                f"trace request {req.id} targets unknown model {req.model!r}"
            )
        transcript.append(json_scalar(engine.predict_one(list(req.features))))
    return transcript
