"""Bit-identity gates: streaming == monolithic, for every chunking.

The acceptance property of the streaming subsystem: ``partial_fit``
over *any* chunking — chunk size, worker count, packed/unpacked
representation, basis family — reproduces the monolithic ``fit``
bit for bit, including the tie-break RNG draws of the ``"random"``
encode policy (which ``BatchEncoder.encode`` keys by absolute row
position).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import make_basis
from repro.basis.quantize import CircularDiscretizer, LinearDiscretizer
from repro.basis.base import Embedding
from repro.experiments.config import ClassificationConfig, RegressionConfig
from repro.hdc.hypervector import random_hypervectors
from repro.hdc.packed import PackedHV
from repro.learning import CentroidClassifier, HDRegressor
from repro.runtime import BatchEncoder
from repro.serve import OnlineLearner, TrainedPipeline, load_model
from repro.streaming import (
    JigsawsStream,
    MarsExpressStream,
    array_chunks,
    stream_fit_classifier,
    stream_fit_regressor,
    stream_score_classifier,
    stream_score_regressor,
    train_pipeline_stream,
)

TWO_PI = 2.0 * np.pi
DIM = 160  # not a multiple of 64: exercises the tie-coin tail mask


def value_embedding(basis_kind: str, dim: int = DIM, levels: int = 10) -> Embedding:
    basis = make_basis(basis_kind, levels, dim, r=0.05 if basis_kind == "circular" else 0.0,
                       seed=7)
    if basis_kind == "circular":
        return Embedding(basis, CircularDiscretizer(levels, low=0.0, period=TWO_PI))
    return Embedding(basis, LinearDiscretizer(0.0, TWO_PI, levels, clip=True))


class TestClassifierStreamingBitIdentity:
    """partial_fit over any chunking == monolithic fit, all basis kinds."""

    @pytest.mark.parametrize("basis_kind", ["random", "level", "circular"])
    @pytest.mark.parametrize("chunk_size", [1, 13, 64, 1000])
    @pytest.mark.parametrize("packed", [True, False])
    def test_stream_fit_equals_monolithic(self, basis_kind, chunk_size, packed):
        stream = JigsawsStream(
            "suturing", seed=21, chunk_size=chunk_size, samples_per_gesture=6
        )
        embedding = value_embedding(basis_kind)
        encoder = BatchEncoder(
            random_hypervectors(18, DIM, seed=3), embedding, tie_break="random"
        )
        # streaming path (never materialises the encoded split)
        streamed = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        if packed:
            stream_fit_classifier(streamed, encoder, stream, seed=77)
        else:
            # unpacked representation through the same reducer
            for chunk in stream:
                encoded = encoder.encode(
                    chunk.features, seed=77, start=chunk.start, packed=False
                )
                streamed.partial_fit([(encoded, chunk.targets.tolist())])
        # monolithic path
        x, y = stream.materialize()
        mono = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        mono.fit(encoder.encode(x, seed=77, packed=packed), y.tolist())
        assert streamed.classes == mono.classes
        for label in mono.classes:
            assert np.array_equal(
                streamed.class_vector(label), mono.class_vector(label)
            ), (basis_kind, chunk_size, packed, label)

    def test_partial_fit_across_calls_equals_one_fit(self):
        """Sharded training across separate partial_fit calls (replicas)."""
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, (60, DIM)).astype(np.uint8)
        y = (np.arange(60) % 4).tolist()
        mono = CentroidClassifier(DIM, tie_break="zeros").fit(x, y)
        split_points = [0, 11, 17, 40, 60]
        replica = CentroidClassifier(DIM, tie_break="zeros")
        for a, b in zip(split_points, split_points[1:]):
            replica.partial_fit([(PackedHV.pack(x[a:b]), y[a:b])])
        for label in mono.classes:
            assert np.array_equal(
                replica.class_vector(label), mono.class_vector(label)
            )

    def test_tie_coins_are_reproduced(self):
        """The 'random' tie draws themselves are chunking-invariant."""
        stream = JigsawsStream("suturing", seed=21, chunk_size=29,
                               samples_per_gesture=4)
        encoder = BatchEncoder(
            random_hypervectors(18, DIM, seed=3), value_embedding("circular"),
            tie_break="random",
        )
        x, _ = stream.materialize()
        # different stream seed -> different tie coins -> different encoding
        a = encoder.encode(x, seed=1)
        b = encoder.encode(x, seed=2)
        assert not np.array_equal(a, b)
        # and ties do occur for the even channel count
        zeros = BatchEncoder(
            random_hypervectors(18, DIM, seed=3), value_embedding("circular"),
            tie_break="zeros",
        )
        assert not np.array_equal(a, zeros.encode(x))


class TestRegressorStreamingBitIdentity:
    @pytest.mark.parametrize("basis_kind", ["random", "level", "circular"])
    @pytest.mark.parametrize("chunk_size", [1, 50, 333, 5000])
    def test_stream_fit_equals_monolithic(self, basis_kind, chunk_size):
        stream = MarsExpressStream(num_samples=700, seed=8, chunk_size=chunk_size)
        config = RegressionConfig(dim=DIM, seed=8)
        embedding = value_embedding(basis_kind, levels=config.anomaly_levels)
        low, high = stream.label_range()
        label_embedding = Embedding(
            make_basis("level", 20, DIM, seed=9),
            LinearDiscretizer(low, high, 20, clip=True),
        )
        streamed = HDRegressor(label_embedding, tie_break="zeros", seed=2)
        stream_fit_regressor(streamed, embedding, stream)
        x, y = stream.materialize()
        mono = HDRegressor(label_embedding, tie_break="zeros", seed=2)
        mono.fit(embedding.encode_packed(x[:, 0]), y)
        assert np.array_equal(streamed.model, mono.model)
        assert streamed.num_samples == mono.num_samples

    @pytest.mark.parametrize("packed", [True, False])
    def test_partial_fit_any_chunking(self, packed):
        emb = value_embedding("level", levels=12)
        y = np.linspace(0.0, TWO_PI, 47)
        encoded = emb.encode_packed(y) if packed else emb.encode(y)
        mono = HDRegressor(emb, tie_break="zeros").fit(encoded, y)
        for size in (1, 5, 13, 47):
            chunked = HDRegressor(emb, tie_break="zeros").partial_fit(
                (encoded[a:a + size], y[a:a + size]) for a in range(0, 47, size)
            )
            assert np.array_equal(chunked.model, mono.model)


class TestDelegation:
    """The legacy entry points are thin wrappers over the same reducer."""

    def test_fit_is_partial_fit(self):
        x = np.eye(32, dtype=np.uint8)
        y = ([0, 1] * 16)
        a = CentroidClassifier(32, tie_break="zeros").fit(x, y)
        b = CentroidClassifier(32, tie_break="zeros").partial_fit([(x, y)])
        assert np.array_equal(a.class_vector(0), b.class_vector(0))
        assert np.array_equal(a.class_vector(1), b.class_vector(1))

    def test_online_learner_learn_delegates(self):
        emb = value_embedding("circular", dim=256, levels=12)
        model = HDRegressor(emb, tie_break="zeros", seed=1)
        pipe = TrainedPipeline(kind="regression", model=model, embedding=emb)
        hours = np.linspace(0.0, TWO_PI, 24, endpoint=False)
        learner = OnlineLearner(pipe)
        learner.learn(hours[:, None], hours)
        assert learner.num_samples == 24
        mono = HDRegressor(emb, tie_break="zeros", seed=1).fit(
            emb.encode_packed(hours), hours
        )
        assert np.array_equal(model.model, mono.model)

    def test_online_learner_learn_stream(self, tmp_path):
        emb = value_embedding("circular", dim=256, levels=12)
        model = HDRegressor(emb, tie_break="zeros", seed=1)
        pipe = TrainedPipeline(kind="regression", model=model, embedding=emb)
        hours = np.linspace(0.0, TWO_PI, 48, endpoint=False)
        ckpt = tmp_path / "live.npz"
        learner = OnlineLearner(pipe)
        stats = learner.learn_stream(
            array_chunks(hours[:, None], hours, chunk_size=10),
            checkpoint=ckpt,
            checkpoint_every=2,
        )
        assert stats.rows == 48
        assert ckpt.exists()
        mono = HDRegressor(emb, tie_break="zeros", seed=1).fit(
            emb.encode_packed(hours), hours
        )
        assert np.array_equal(model.model, mono.model)


class TestTrainPipelineStream:
    def test_classification_pipeline(self, tmp_path):
        config = ClassificationConfig(dim=256, seed=7)
        ckpt = tmp_path / "ckpt.npz"
        pipe, stats = train_pipeline_stream(
            "suturing", "circular", config=config, chunk_size=64,
            checkpoint=ckpt, checkpoint_every=2,
        )
        assert pipe.kind == "classification"
        assert stats.rows == pipe.metadata["num_train"] == 300
        assert 0.0 <= pipe.metadata["test_accuracy"] <= 1.0
        assert pipe.metadata["stream"]["chunk_size"] == 64
        # the final checkpoint is the finished pipeline, loadable as-is
        reloaded = load_model(ckpt)
        assert isinstance(reloaded, TrainedPipeline)
        assert reloaded.metadata["stream"]["chunk_size"] == 64

    def test_chunk_size_does_not_change_the_model(self):
        config = ClassificationConfig(dim=256, seed=7)
        a, _ = train_pipeline_stream("suturing", "circular", config=config,
                                     chunk_size=32)
        b, _ = train_pipeline_stream("suturing", "circular", config=config,
                                     chunk_size=1000)
        for label in a.model.classes:
            assert np.array_equal(
                a.model.class_vector(label), b.model.class_vector(label)
            )
        assert a.metadata["test_accuracy"] == b.metadata["test_accuracy"]

    def test_regression_pipeline(self):
        config = RegressionConfig(dim=256, seed=7)
        pipe, stats = train_pipeline_stream(
            "mars_express", "circular", config=config, stream_samples=800,
            chunk_size=100,
        )
        assert pipe.kind == "regression"
        assert pipe.metadata["num_train"] == stats.rows
        assert pipe.metadata["num_train"] + pipe.metadata["num_test"] == 800
        assert pipe.metadata["test_mse"] >= 0.0

    def test_stream_scores_match_in_memory_scores(self):
        config = ClassificationConfig(dim=256, seed=7)
        pipe, _ = train_pipeline_stream("suturing", "circular", config=config,
                                        chunk_size=50)
        # re-derive the same test stream and score it monolithically
        stream = JigsawsStream(
            "suturing", part="test", chunk_size=50,
            seed=np.random.SeedSequence(pipe.metadata["stream"]["entropy"]),
        )
        x, y = stream.materialize()
        encoder = BatchEncoder(pipe.keys, pipe.embedding, tie_break="zeros")
        mono = pipe.model.score(encoder.encode(x, packed=True), y.tolist())
        assert abs(pipe.metadata["test_accuracy"] - mono) < 1e-12
