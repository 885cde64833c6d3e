"""InferenceEngine: save → reload → serve must be bit-identical.

Covers the acceptance contract of the serving subsystem: a model
trained in one process, saved, and reloaded in a fresh engine answers
every request with exactly the bits the in-memory model produces — for
classification and regression pipelines, single records and
micro-batches, every kernel backend.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.basis import LevelBasis, RandomBasis
from repro.datasets import make_jigsaws_like
from repro.exceptions import InvalidParameterError
from repro.experiments.config import ClassificationConfig, RegressionConfig
from repro.experiments.serving import (
    train_classification_pipeline,
    train_pipeline,
    train_regression_pipeline,
)
from repro.learning import HDRegressor
from repro.serve import InferenceEngine, TrainedPipeline, load_model, save_model


@pytest.fixture(scope="module")
def classification_pipeline():
    cfg = ClassificationConfig(dim=256, seed=7)
    return train_classification_pipeline("suturing", "circular", config=cfg)


@pytest.fixture(scope="module")
def regression_pipeline():
    cfg = RegressionConfig(dim=256, seed=7)
    return train_regression_pipeline("circular", config=cfg)


@pytest.fixture(scope="module")
def gesture_records():
    split = make_jigsaws_like(task="suturing", seed=99)
    return split.test_features[:40]


class TestClassificationServing:
    def test_reloaded_engine_is_bit_identical(
        self, classification_pipeline, gesture_records, tmp_path
    ):
        path = tmp_path / "clf.npz"
        save_model(classification_pipeline, path)
        with InferenceEngine(classification_pipeline) as live, \
                InferenceEngine.from_path(path) as reloaded:
            assert reloaded.predict(gesture_records) == live.predict(gesture_records)
            assert np.array_equal(
                reloaded.encode(gesture_records).data, live.encode(gesture_records).data
            )

    def test_single_record_matches_batch(self, classification_pipeline, gesture_records):
        with InferenceEngine(classification_pipeline) as engine:
            batch = engine.predict(gesture_records)
            singles = [engine.predict_one(row) for row in gesture_records]
        assert singles == batch

    def test_concurrent_callers_bit_identical(
        self, classification_pipeline, gesture_records, tmp_path
    ):
        """The engine predicts on the calling thread; the HTTP server's
        request threads share one engine, so concurrent callers must get
        the serial answers."""
        path = tmp_path / "clf.npz"
        save_model(classification_pipeline, path)
        with InferenceEngine.from_path(path) as engine:
            expected = engine.predict(gesture_records)
            with ThreadPoolExecutor(4) as pool:
                batches = list(pool.map(lambda _: engine.predict(gesture_records), range(8)))
                singles = list(pool.map(engine.predict_one, gesture_records))
        assert all(batch == expected for batch in batches)
        assert singles == expected

    def test_reported_accuracy_is_the_serving_accuracy(self, classification_pipeline):
        """metadata['test_accuracy'] must describe the serve path exactly."""
        from repro._rng import ensure_rng

        # Rebuild the training split exactly as the trainer derived it.
        split = make_jigsaws_like(task="suturing", seed=ensure_rng(7).spawn(4)[0])
        with InferenceEngine(classification_pipeline) as engine:
            predictions = engine.predict(split.test_features)
        accuracy = float(np.mean(
            [p == t for p, t in zip(predictions, split.test_labels.tolist())]
        ))
        assert accuracy == classification_pipeline.metadata["test_accuracy"]

    def test_metadata_travels_with_the_model(self, classification_pipeline, tmp_path):
        path = tmp_path / "clf.npz"
        save_model(classification_pipeline, path)
        restored = load_model(path)
        assert restored.metadata == classification_pipeline.metadata
        assert restored.metadata["task"] == "suturing"

    def test_wrong_feature_count_rejected(self, classification_pipeline):
        with InferenceEngine(classification_pipeline) as engine:
            with pytest.raises(InvalidParameterError, match="feature"):
                engine.predict(np.zeros((3, 4)))


class TestRegressionServing:
    def test_reloaded_engine_is_bit_identical(self, regression_pipeline, tmp_path):
        path = tmp_path / "reg.npz"
        save_model(regression_pipeline, path)
        with InferenceEngine(regression_pipeline) as live, \
                InferenceEngine.from_path(path) as reloaded:
            anomalies = np.linspace(0.0, 2 * np.pi, 50)[:, None]
            assert np.array_equal(reloaded.predict(anomalies), live.predict(anomalies))

    def test_predict_one_scalar(self, regression_pipeline):
        with InferenceEngine(regression_pipeline) as engine:
            value = engine.predict_one([1.25])
        assert np.isscalar(value) or np.asarray(value).ndim == 0

    def test_concurrent_callers_bit_identical(self, regression_pipeline):
        anomalies = np.linspace(0.0, 2 * np.pi, 64)[:, None]
        with InferenceEngine(regression_pipeline) as engine:
            expected = engine.predict(anomalies)
            with ThreadPoolExecutor(4) as pool:
                batches = list(pool.map(lambda _: engine.predict(anomalies), range(8)))
                singles = list(pool.map(engine.predict_one, anomalies))
        assert all(np.array_equal(batch, expected) for batch in batches)
        assert np.array_equal(singles, expected)

    @pytest.mark.parametrize("model", ["binary", "integer"])
    @pytest.mark.parametrize("decode", ["argmin", "weighted"])
    def test_every_model_mode_bit_identical(self, model, decode):
        """Batch predict and coalesced predict equal sequential
        predict_one for every HDRegressor model/decode combination."""
        emb = LevelBasis(32, 256, seed=5).linear_embedding(0.0, 1.0)
        x = np.linspace(0.0, 1.0, 48)
        reg = HDRegressor(emb, seed=9, decode=decode, model=model).fit(
            emb.encode_packed(x), x
        )
        pipeline = TrainedPipeline(kind="regression", model=reg, embedding=emb)
        rows = np.linspace(0.05, 0.95, 23)[:, None]
        with InferenceEngine(pipeline) as engine:
            expected = [engine.predict_one(row) for row in rows]
            assert np.array_equal(engine.predict_coalesced(rows), expected)
            assert np.array_equal(engine.predict(rows), expected)


class TestKernelBackends:
    """The backend knob and the predict_one fast path are invisible in
    the answers: every backend and entry point must agree
    bit for bit."""

    def test_classifier_backends_bit_identical(
        self, classification_pipeline, gesture_records
    ):
        with InferenceEngine(classification_pipeline) as engine:
            expected = engine.predict(gesture_records)
        for backend in ("auto", "gemm", "xor"):
            with InferenceEngine(classification_pipeline, backend=backend) as engine:
                assert engine.predict(gesture_records) == expected

    def test_regression_backends_bit_identical(self, regression_pipeline):
        anomalies = np.linspace(0.0, 2 * np.pi, 40)[:, None]
        with InferenceEngine(regression_pipeline) as engine:
            expected = engine.predict(anomalies)
        for backend in ("gemm", "xor"):
            with InferenceEngine(regression_pipeline, backend=backend) as engine:
                assert np.array_equal(engine.predict(anomalies), expected)

    def test_env_knob_forces_backend(
        self, classification_pipeline, gesture_records, monkeypatch
    ):
        with InferenceEngine(classification_pipeline) as engine:
            expected = engine.predict(gesture_records)
        monkeypatch.setenv("REPRO_KERNEL", "gemm")
        with InferenceEngine(classification_pipeline) as engine:
            assert engine.predict(gesture_records) == expected

    def test_fast_path_matches_batch_per_backend(
        self, classification_pipeline, gesture_records
    ):
        for backend in ("auto", "gemm", "xor"):
            with InferenceEngine(classification_pipeline, backend=backend) as engine:
                batch = engine.predict(gesture_records[:10])
                singles = [engine.predict_one(row) for row in gesture_records[:10]]
                assert singles == batch

    def test_fast_path_matches_batch_keyless(self, regression_pipeline):
        with InferenceEngine(regression_pipeline) as engine:
            values = np.linspace(0.0, 2 * np.pi, 15)
            batch = engine.predict(values[:, None])
            singles = np.array([engine.predict_one([v]) for v in values])
            assert np.array_equal(singles, batch)

    def test_bad_backend_fails_at_construction(self, classification_pipeline, monkeypatch):
        with pytest.raises(InvalidParameterError, match="backend"):
            InferenceEngine(classification_pipeline, backend="simd")
        monkeypatch.setenv("REPRO_KERNEL", "typo")
        with pytest.raises(InvalidParameterError, match="backend"):
            InferenceEngine(classification_pipeline)

    def test_fast_path_rejects_bad_shapes(self, classification_pipeline):
        with InferenceEngine(classification_pipeline) as engine:
            with pytest.raises(InvalidParameterError, match="record"):
                engine.predict_one(np.zeros((2, engine.num_features)))
            with pytest.raises(InvalidParameterError, match="record"):
                engine.predict_one(np.zeros(engine.num_features + 1))


class TestEngineGuards:
    def test_non_pipeline_artifact_rejected(self, tmp_path):
        path = tmp_path / "basis.npz"
        save_model(RandomBasis(4, 64, seed=0), path)
        with pytest.raises(InvalidParameterError, match="TrainedPipeline"):
            InferenceEngine.from_path(path)

    def test_train_pipeline_dispatch(self):
        with pytest.raises(InvalidParameterError, match="unknown task"):
            train_pipeline("no_such_task")
        with pytest.raises(InvalidParameterError, match="RegressionConfig"):
            train_pipeline("mars_express", config=ClassificationConfig(dim=64))
        with pytest.raises(InvalidParameterError, match="ClassificationConfig"):
            train_pipeline("suturing", config=RegressionConfig(dim=64))

    @pytest.mark.parametrize("kind", ["classification_pipeline", "regression_pipeline"])
    def test_random_tie_break_is_not_servable(self, kind, request):
        """Random coins are keyed by a record's split position, which a
        request does not have: a served pipeline refuses the policy."""
        pipeline = request.getfixturevalue(kind)
        with pytest.raises(InvalidParameterError, match="'random'"):
            TrainedPipeline(
                kind=pipeline.kind,
                model=pipeline.model,
                embedding=pipeline.embedding,
                keys=pipeline.keys,
                tie_break="random",
            )

    def test_bad_tie_break_fails_at_construction(self, regression_pipeline):
        """A typo'd request tie policy used to pass construction and
        ``save_model`` and then fail every later learn or predict."""
        with pytest.raises(InvalidParameterError, match="tie_break"):
            TrainedPipeline(
                kind="regression",
                model=regression_pipeline.model,
                embedding=regression_pipeline.embedding,
                tie_break="bogus",
            )
