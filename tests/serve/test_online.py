"""OnlineLearner: incremental updates and atomic checkpoints."""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import CircularBasis, LevelBasis
from repro.exceptions import InvalidParameterError
from repro.hdc import BundleAccumulator
from repro.hdc.hypervector import random_hypervectors
from repro.learning import CentroidClassifier, HDRegressor
from repro.serve import InferenceEngine, OnlineLearner, TrainedPipeline, load_model

DIM = 128


def _classification_pipeline(seed=0):
    basis = LevelBasis(8, DIM, seed=seed)
    emb = basis.linear_embedding(0.0, 1.0)
    keys = random_hypervectors(4, DIM, seed=seed + 1)
    model = CentroidClassifier(dim=DIM, tie_break="zeros", seed=seed + 2)
    return TrainedPipeline(
        kind="classification",
        model=model,
        embedding=emb,
        keys=keys,
        tie_break="zeros",
    )


def _regression_pipeline(seed=0):
    emb = CircularBasis(16, DIM, seed=seed).circular_embedding(period=16.0)
    model = HDRegressor(emb, tie_break="zeros", seed=seed + 1)
    return TrainedPipeline(kind="regression", model=model, embedding=emb)


def _records(rng, n=24):
    features = rng.random((n, 4))
    labels = [int(i) for i in rng.integers(0, 3, n)]
    return features, labels


class TestLearnAndForget:
    def test_learn_then_predict(self):
        rng = np.random.default_rng(0)
        learner = OnlineLearner(_classification_pipeline())
        features, labels = _records(rng)
        learner.learn(features, labels)
        assert learner.num_samples == len(labels)
        assert len(learner.predict(features)) == len(labels)

    def test_forget_inverts_learn_exactly(self):
        rng = np.random.default_rng(1)
        learner = OnlineLearner(_classification_pipeline())
        base_features, base_labels = _records(rng)
        learner.learn(base_features, base_labels)
        probe = rng.random((10, 4))
        before = learner.predict(probe)
        extra_features = rng.random((6, 4))
        extra_labels = [base_labels[0]] * 6
        learner.learn(extra_features, extra_labels)
        learner.forget(extra_features, extra_labels)
        assert learner.predict(probe) == before
        model = learner.pipeline.model
        serial = CentroidClassifier(dim=DIM, tie_break="zeros")
        serial.fit(learner.engine.encode(base_features), base_labels)
        for label in serial.classes:
            assert np.array_equal(
                model._accumulators[label].counts,
                serial._accumulators[label].counts,
            )

    def test_regression_learn_forget(self):
        learner = OnlineLearner(_regression_pipeline())
        hours = np.arange(16.0)[:, None]
        learner.learn(hours, hours[:, 0])
        before = learner.predict(hours).copy()
        learner.learn(hours[:4], hours[:4, 0]).forget(hours[:4], hours[:4, 0])
        assert np.array_equal(learner.predict(hours), before)

    def test_target_length_mismatch(self):
        learner = OnlineLearner(_classification_pipeline())
        with pytest.raises(InvalidParameterError, match="targets"):
            learner.learn(np.random.default_rng(0).random((4, 4)), [1, 2])

    def test_forget_more_than_fitted_rejected(self):
        """Double-expiring traffic must fail loudly, not corrupt counts."""
        rng = np.random.default_rng(5)
        learner = OnlineLearner(_classification_pipeline())
        features = rng.random((2, 4))
        learner.learn(features, [0, 0])
        overdraw = rng.random((4, 4))
        with pytest.raises(InvalidParameterError, match="forget"):
            learner.forget(overdraw, [0, 0, 0, 0])
        assert learner.num_samples == 2  # rejected call left the model untouched
        reg = OnlineLearner(_regression_pipeline())
        reg.learn(np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(InvalidParameterError, match="forget"):
            reg.forget(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
        assert reg.num_samples == 1

    def test_fully_forgotten_class_is_removed(self):
        """fit → forget is a true inverse: no ghost class can be predicted."""
        rng = np.random.default_rng(6)
        learner = OnlineLearner(_classification_pipeline())
        a_features = rng.random((4, 4))
        b_features = rng.random((4, 4))
        learner.learn(a_features, [0, 0, 0, 0])
        before = learner.pipeline.model.classes
        learner.learn(b_features, [1, 1, 1, 1])
        learner.forget(b_features, [1, 1, 1, 1])
        assert learner.pipeline.model.classes == before  # class 1 is gone
        probe = rng.random((20, 4))
        assert set(learner.predict(probe)) == {0}


class TestAbsorb:
    def test_classifier_shard_absorb_equals_fit(self):
        rng = np.random.default_rng(2)
        features, labels = _records(rng)
        direct = OnlineLearner(_classification_pipeline())
        direct.learn(features, labels)
        merged = OnlineLearner(_classification_pipeline())
        encoded = merged.engine.encode(features)
        shard = merged.pipeline.model.shard(encoded, labels)
        merged.absorb(shard)
        probe = rng.random((12, 4))
        assert merged.predict(probe) == direct.predict(probe)

    def test_regressor_absorb(self):
        learner = OnlineLearner(_regression_pipeline())
        hours = np.arange(16.0)[:, None]
        shard = learner.pipeline.model.shard(
            learner.engine.encode(hours), hours[:, 0]
        )
        learner.absorb(shard)
        assert learner.num_samples == 16

    def test_shard_type_mismatch_rejected(self):
        clf_learner = OnlineLearner(_classification_pipeline())
        with pytest.raises(InvalidParameterError, match="absorb"):
            clf_learner.absorb(BundleAccumulator(DIM))
        reg_learner = OnlineLearner(_regression_pipeline())
        with pytest.raises(InvalidParameterError, match="absorb"):
            reg_learner.absorb({})


class TestCheckpoint:
    def test_checkpoint_reload_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        learner = OnlineLearner(_classification_pipeline())
        features, labels = _records(rng)
        learner.learn(features, labels)
        path = learner.checkpoint(tmp_path / "ckpt.npz")
        probe = rng.random((15, 4))
        expected = learner.predict(probe)
        with InferenceEngine(load_model(path)) as engine:
            assert engine.predict(probe) == expected

    def test_checkpoint_overwrites_atomically(self, tmp_path):
        learner = OnlineLearner(_regression_pipeline())
        hours = np.arange(16.0)[:, None]
        learner.learn(hours, hours[:, 0])
        path = tmp_path / "ckpt.npz"
        learner.checkpoint(path)
        first = load_model(path).model.num_samples
        learner.learn(hours, hours[:, 0])
        learner.checkpoint(path)
        assert load_model(path).model.num_samples == first + 16
        assert list(tmp_path.glob("*.tmp")) == []
