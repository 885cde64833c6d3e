"""The in-process predict path: exactness across kernel sides and models.

The contract under test (see :mod:`repro.serve.engine`): serving has one
predict path per call — ``model.predict`` on the calling thread, or for
keyless pipelines a lookup in the per-level answer table — and for
either kernel backend, any batch size, model kind and decode mode it answers
**bit-identically** to sequential ``predict_one``.  That holds through
hot swaps and online learning.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import LevelBasis
from repro.learning import HDRegressor
from repro.serve import (
    InferenceEngine,
    ModelRegistry,
    OnlineLearner,
    TrainedPipeline,
    save_model,
)


def _rows(pipeline, n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2.0 * np.pi, (n, pipeline.num_features))


def _regression_pipeline(model: str, decode: str, dim: int = 256):
    """A trained HDRegressor pipeline at the given model/decode combo."""
    emb = LevelBasis(32, dim, seed=5).linear_embedding(0.0, 1.0)
    x = np.linspace(0.0, 1.0, 48)
    reg = HDRegressor(emb, seed=9, decode=decode, model=model).fit(
        emb.encode_packed(x), x
    )
    return TrainedPipeline(kind="regression", model=reg, embedding=emb)


# -- exactness across kernel sides, batch sizes and model kinds ----------------


@pytest.mark.parametrize("batch", [1, 7, 32])
def test_classifier_matches_inline(classification_pipeline, kernel_side, batch):
    rows = _rows(classification_pipeline, batch, seed=batch)
    with InferenceEngine(classification_pipeline) as inline:
        expected = inline.predict(rows)
        expected_one = [inline.predict_one(r) for r in rows]
    with InferenceEngine(classification_pipeline) as engine:
        assert engine.predict(rows) == expected == expected_one
        assert list(engine.predict_coalesced(rows)) == expected


@pytest.mark.parametrize("model_mode", ["binary", "integer"])
@pytest.mark.parametrize("decode", ["argmin", "weighted"])
def test_regressor_matches_inline(model_mode, decode):
    pipeline = _regression_pipeline(model_mode, decode)
    rows = np.linspace(0.05, 0.95, 23)[:, None]
    with InferenceEngine(pipeline) as engine:
        expected = pipeline.model.predict(pipeline.embedding.encode_packed(rows[:, 0]))
        expected_one = [engine.predict_one(r) for r in rows]
        np.testing.assert_array_equal(engine.predict(rows), expected)
        np.testing.assert_array_equal(engine.predict_coalesced(rows), expected_one)
        np.testing.assert_array_equal(expected_one, expected)


def test_alternate_tie_pipeline_matches_sequential(alternate_tie_pipeline):
    """Coalesced answers on a pipeline whose encodes tie equal sequential
    predict_one row for row."""
    rows = np.random.default_rng(3).random((12, 4))
    with InferenceEngine(alternate_tie_pipeline) as inline:
        expected = [inline.predict_one(r) for r in rows]
    with InferenceEngine(alternate_tie_pipeline) as engine:
        assert engine.predict_coalesced(rows) == expected


@pytest.mark.parametrize("fixture", ["classification_pipeline", "alternate_tie_pipeline"])
def test_coalesced_batch_encodes_once(fixture, request, monkeypatch):
    """One predict path: a coalesced batch is encoded by one call."""
    pipeline = request.getfixturevalue(fixture)
    rows = _rows(pipeline, 9, seed=4)
    with InferenceEngine(pipeline) as engine:
        expected = engine.predict(rows)
        calls = []
        encode = engine.encode
        monkeypatch.setattr(
            engine, "encode", lambda batch: calls.append(len(batch)) or encode(batch)
        )
        assert engine.predict_coalesced(rows) == expected
    assert calls == [9]


def test_empty_batch_and_repr(classification_pipeline):
    with InferenceEngine(classification_pipeline) as engine:
        assert engine.predict_coalesced(np.empty((0, engine.num_features))) == []
        assert repr(engine).startswith("InferenceEngine(kind='classification'")


# -- hot swap and online learning ------------------------------------------------


def test_hot_swap_keeps_answers(classification_pipeline, tmp_path):
    path = tmp_path / "a.npz"
    save_model(classification_pipeline, path)
    rows = _rows(classification_pipeline, 8, seed=2)
    with ModelRegistry() as registry:
        registry.register("m", str(path))
        engine_a = registry.engine("m")
        expected = engine_a.predict(rows)

        registry.swap("m", str(path))
        engine_b = registry.engine("m")
        assert engine_b is not engine_a
        assert engine_b.predict(rows) == expected


def test_online_learning_is_served_at_once(classification_pipeline):
    """The engine predicts from the live model: a learned update shows in
    the very next answer, equal to a fresh engine on the mutated model."""
    rows = _rows(classification_pipeline, 6, seed=8)
    with InferenceEngine(classification_pipeline) as engine:
        engine.predict(rows)
        learner = OnlineLearner(classification_pipeline)
        learner.learn(rows, ["G1"] * len(rows))
        with InferenceEngine(classification_pipeline) as ref:
            assert engine.predict(rows) == ref.predict(rows)
