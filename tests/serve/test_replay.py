"""The sequential ``predict_one`` oracle.

Every batched or HTTP answer is checked against
:func:`~repro.serve.oracle_transcript`, so the oracle itself must be
exactly ``json_scalar(engine.predict_one(row))`` per request, in request
order, and must refuse a request for a model it was not given.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.serve import InferenceEngine, TraceRequest, json_scalar, oracle_transcript


def test_oracle_is_predict_one_per_row_in_order(
    classification_pipeline, regression_pipeline
):
    rng = np.random.default_rng(13)
    rows = {
        "gesture": rng.uniform(0.0, 1.0, (6, classification_pipeline.num_features)),
        "mars": rng.uniform(0.0, 2 * np.pi, (6, 1)),
    }
    trace = [
        TraceRequest(id=2 * i + j, t=0.0, model=model, features=tuple(rows[model][i]))
        for i in range(6)
        for j, model in enumerate(("gesture", "mars"))
    ]
    with InferenceEngine(classification_pipeline) as cls_engine, \
            InferenceEngine(regression_pipeline) as reg_engine:
        engines = {"gesture": cls_engine, "mars": reg_engine}
        transcript = oracle_transcript(trace, engines)
        expected = [
            json_scalar(engines[req.model].predict_one(list(req.features)))
            for req in trace
        ]
    assert transcript == expected
    assert len(set(map(type, transcript))) == 2  # labels and float targets


def test_oracle_rejects_unknown_model(regression_pipeline):
    trace = [TraceRequest(id=0, t=0.0, model="ghost", features=(1.0,))]
    with InferenceEngine(regression_pipeline) as engine:
        with pytest.raises(InvalidParameterError, match="ghost"):
            oracle_transcript(trace, {"mars": engine})
