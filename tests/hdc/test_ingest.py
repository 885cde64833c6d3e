"""Bit-identity gates for the one ingest step of streaming training.

:func:`repro.hdc.ingest.ingest_chunk` encodes a labelled chunk and hands
it to the model's ``partial_fit``.  Streamed training through it must
equal a monolithic ``fit`` byte for byte in the saved-model container
and draw for draw in the tie-break RNG, for any chunk size (one row
included), encoder chunking, thread count, packed or unpacked encode
and tie policy; a cluster worker ships exactly ``model.shard``'s bytes.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.basis import make_basis
from repro.basis.base import Embedding
from repro.basis.quantize import CircularDiscretizer, LinearDiscretizer
from repro.cluster.worker import WorkerPlan, worker_main
from repro.exceptions import InvalidParameterError
from repro.experiments.config import ClassificationConfig
from repro.hdc.hypervector import random_hypervectors
from repro.hdc.ingest import ingest_chunk
from repro.learning import CentroidClassifier, HDRegressor
from repro.runtime import BatchEncoder
from repro.serve import save_model
from repro.streaming import (
    JigsawsStream,
    MarsExpressStream,
    stream_fit_classifier,
    stream_fit_regressor,
)
from repro.streaming.chunks import Chunk
from repro.streaming.train import RecordEncode, ValueEncode, train_pipeline_stream

TWO_PI = 2.0 * np.pi
DIM = 160  # not a multiple of 64: exercises the tie-coin tail mask


def value_embedding(dim: int = DIM, levels: int = 10) -> Embedding:
    basis = make_basis("circular", levels, dim, r=0.05, seed=7)
    return Embedding(basis, CircularDiscretizer(levels, low=0.0, period=TWO_PI))


def saved_bytes(model, tmp_path, name: str) -> dict[str, bytes]:
    """Every array in the saved-model container, as raw bytes.

    The manifest (which embeds the tie RNG state) and every stored
    array — byte-level equality of everything the format persists,
    without the zip timestamp jitter of comparing whole files.
    """
    path = tmp_path / f"{name}.npz"
    save_model(model, path)
    with np.load(path, allow_pickle=False) as archive:
        return {key: archive[key].tobytes() for key in archive.files}


def assert_same_classifier(reference, candidate, tmp_path, tag: str) -> None:
    assert reference.classes == candidate.classes, tag
    for label in reference.classes:
        assert np.array_equal(
            reference.class_vector(label), candidate.class_vector(label)
        ), (tag, label)
    assert (
        reference._rng.bit_generator.state == candidate._rng.bit_generator.state
    ), (tag, "tie RNG state diverged")
    assert saved_bytes(reference, tmp_path, f"ref-{tag}") == saved_bytes(
        candidate, tmp_path, f"got-{tag}"
    ), (tag, "saved-model bytes diverged")


def _cell(tie_break: str = "random", chunk_size: int = 29):
    stream = JigsawsStream(
        "suturing", seed=21, chunk_size=chunk_size, samples_per_gesture=6
    )
    encoder = BatchEncoder(
        random_hypervectors(18, DIM, seed=3), value_embedding(), tie_break=tie_break
    )
    return stream, encoder


class TestIngestChunk:
    @pytest.mark.parametrize("rows", [1, 2, 31])
    def test_small_chunks_equal_partial_fit(self, rows, tmp_path):
        stream, encoder = _cell("random", 64)
        big = next(iter(stream))
        chunk = Chunk(
            features=big.features[:rows], targets=big.targets[:rows], start=5
        )
        encode = RecordEncode(encoder, 3)
        ref = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        ref.partial_fit([(encode(chunk), chunk.targets.tolist())])
        got = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        ingest_chunk(got, chunk, encode)
        assert_same_classifier(ref, got, tmp_path, f"small-{rows}")

    @pytest.mark.parametrize("rows", [1, 2, 31])
    def test_serving_learner_batches(self, rows, tmp_path):
        """A served pipeline's position-free encode, pickled or not,
        trains what encoding the whole batch at once trains."""
        encoder = BatchEncoder(
            random_hypervectors(18, DIM, seed=3), value_embedding(), tie_break="alternate"
        )
        x = np.random.default_rng(rows).uniform(0.0, TWO_PI, (rows, 18))
        y = (np.arange(rows) % 3).tolist()
        ref = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        ref.partial_fit([(encoder.encode(x, packed=True), y)])
        streamed = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        chunk = Chunk(features=x, targets=np.asarray(y))
        ingest_chunk(streamed, chunk, RecordEncode(encoder))
        assert_same_classifier(ref, streamed, tmp_path, f"serving-chunk-{rows}")
        restored = pickle.loads(pickle.dumps(RecordEncode(encoder)))
        assert restored(chunk).data.tobytes() == encoder.encode(x, packed=True).data.tobytes()

    def test_any_encode_callable(self, tmp_path):
        """A plain closure works as well as the picklable encode."""
        stream, encoder = _cell()
        chunk = next(iter(stream))
        ref = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        ingest_chunk(ref, chunk, RecordEncode(encoder, 0))
        plain = lambda c: encoder.encode(c.features, start=c.start)  # noqa: E731
        got = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        ingest_chunk(got, chunk, plain)
        assert_same_classifier(ref, got, tmp_path, "plain")

    def test_labels_become_python_values(self):
        _, encoder = _cell()
        x = np.random.default_rng(0).uniform(0.0, TWO_PI, (4, 18))
        chunk = Chunk(features=x, targets=np.asarray(["b", "a", "b", "c"]))
        clf = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        ingest_chunk(clf, chunk, RecordEncode(encoder))
        assert clf.classes == ["b", "a", "c"]
        assert all(type(label) is str for label in clf.classes)

    def test_empty_chunk_adds_nothing(self):
        _, encoder = _cell()
        chunk = Chunk(features=np.empty((0, 18)), targets=np.empty(0, dtype=object))
        clf = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        ingest_chunk(clf, chunk, RecordEncode(encoder, 0))
        assert clf.num_samples == 0
        assert clf.classes == []


class TestClassifierBitIdentity:
    """Streamed training == monolithic fit, bytes and RNG draws."""

    @pytest.mark.parametrize("chunk_size", [1, 13, 97, 1000])
    @pytest.mark.parametrize("tie_break", ["random", "zeros", "ones", "alternate"])
    def test_streamed_equals_monolithic(self, chunk_size, tie_break, tmp_path):
        stream, encoder = _cell(tie_break, chunk_size)
        streamed = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        stream_fit_classifier(streamed, encoder, stream, seed=77)
        x, y = stream.materialize()
        mono = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        mono.fit(encoder.encode(x, seed=77, packed=True), y.tolist())
        assert_same_classifier(mono, streamed, tmp_path, f"{chunk_size}-{tie_break}")

    @pytest.mark.parametrize("encoder_rows", [1, 3, 50, 4096])
    def test_encoder_chunk_invariance(self, encoder_rows, monkeypatch, tmp_path):
        """The encoder's work unit is an implementation detail."""
        stream, encoder = _cell("random", 41)
        ref = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        stream_fit_classifier(ref, encoder, stream, seed=9)
        monkeypatch.setattr("repro.runtime.batch._CHUNK_ROWS", encoder_rows)
        got = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        stream_fit_classifier(got, encoder, stream, seed=9)
        assert_same_classifier(ref, got, tmp_path, f"encoder-rows-{encoder_rows}")

    def test_unpacked_encode_equals_streamed(self, tmp_path):
        """Packed and unpacked encoded chunks land the same integers."""
        stream, encoder = _cell("random", 53)
        unpacked = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        for chunk in stream:
            encoded = encoder.encode(
                chunk.features, seed=11, start=chunk.start, packed=False
            )
            unpacked.partial_fit([(encoded, chunk.targets.tolist())])
        streamed = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        stream_fit_classifier(streamed, encoder, stream, seed=11)
        assert_same_classifier(unpacked, streamed, tmp_path, "unpacked")


class TestRegressorBitIdentity:
    @pytest.mark.parametrize("chunk_size", [1, 50, 333])
    @pytest.mark.parametrize("tie_break", ["random", "zeros"])
    def test_streamed_equals_monolithic(self, chunk_size, tie_break, tmp_path):
        stream = MarsExpressStream(num_samples=700, seed=8, chunk_size=chunk_size)
        embedding = value_embedding(levels=12)
        low, high = stream.label_range()
        label_embedding = Embedding(
            make_basis("level", 20, DIM, seed=9),
            LinearDiscretizer(low, high, 20, clip=True),
        )
        streamed = HDRegressor(label_embedding, tie_break=tie_break, seed=2)
        stream_fit_regressor(streamed, embedding, stream)
        x, y = stream.materialize()
        mono = HDRegressor(label_embedding, tie_break=tie_break, seed=2)
        mono.fit(embedding.encode_packed(x[:, 0]), y)
        assert np.array_equal(streamed.model, mono.model)
        assert streamed.num_samples == mono.num_samples
        assert (
            streamed._rng.bit_generator.state == mono._rng.bit_generator.state
        )
        assert saved_bytes(mono, tmp_path, "ref-reg") == saved_bytes(
            streamed, tmp_path, "got-reg"
        )

    def test_list_targets(self):
        """Targets that are a plain sequence, not an array, train the same."""
        embedding = value_embedding(levels=12)
        y = np.linspace(0.0, TWO_PI, 30)
        encode = ValueEncode(embedding, 0)
        from_array = HDRegressor(embedding, tie_break="zeros", seed=1)
        ingest_chunk(from_array, Chunk(features=y[:, None], targets=y), encode)
        from_list = HDRegressor(embedding, tie_break="zeros", seed=1)
        ingest_chunk(from_list, Chunk(features=y[:, None], targets=list(y)), encode)
        assert np.array_equal(from_list._bundle.counts, from_array._bundle.counts)

    def test_regressor_chunk_equals_partial_fit(self):
        embedding = value_embedding(levels=12)
        y = np.linspace(0.0, TWO_PI, 40)
        chunk = Chunk(features=y[:, None], targets=y)
        encode = ValueEncode(embedding, 0)
        ref = HDRegressor(embedding, tie_break="zeros", seed=1)
        ref.partial_fit([(encode(chunk), y)])
        got = HDRegressor(embedding, tie_break="zeros", seed=1)
        ingest_chunk(got, chunk, encode)
        assert got.num_samples == 40
        assert np.array_equal(got._bundle.counts, ref._bundle.counts)


class _Pipe:
    """Collects what a cluster worker sends, in order."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def close(self):
        pass


def _worker_delta(model, chunk, encode):
    pipe = _Pipe()
    plan = WorkerPlan(
        worker_id=0, num_workers=1, source=[chunk], encode=encode, model=model,
    )
    worker_main(plan, pipe)
    (kind, *_, rows, got), done = pipe.sent
    assert (kind, rows, done[0]) == ("delta", chunk.rows, "done")
    return got


class TestClusterDeltas:
    """A cluster worker ships exactly the bytes of ``model.shard``."""

    @pytest.mark.parametrize("tie_break", ["random", "zeros", "ones", "alternate"])
    def test_classifier_shard_is_byte_identical(self, tie_break):
        stream, encoder = _cell(tie_break, 64)
        chunk = next(iter(stream))
        proto = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        encode = RecordEncode(encoder, 7)
        reference = proto.shard(encode(chunk), chunk.targets.tolist())
        got = _worker_delta(proto, chunk, encode)
        assert pickle.dumps(got) == pickle.dumps(reference)
        assert proto.num_samples == 0  # pure: the prototype is untouched

    def test_regressor_shard_is_byte_identical(self):
        embedding = value_embedding(levels=12)
        y = np.linspace(0.0, TWO_PI, 80)
        chunk = Chunk(features=y[:, None], targets=y)
        proto = HDRegressor(embedding, tie_break="zeros", seed=1)
        encode = ValueEncode(embedding, 0)
        reference = proto.shard(encode(chunk), y)
        got = _worker_delta(proto, chunk, encode)
        assert pickle.dumps(got) == pickle.dumps(reference)
        assert proto.num_samples == 0

    def test_string_labels_ship_as_python_values(self):
        """Label arrays are normalised as in ``ingest_chunk``, so a
        cluster-trained model names its classes like a serial one."""
        _, encoder = _cell()
        x = np.random.default_rng(1).uniform(0.0, TWO_PI, (6, 18))
        chunk = Chunk(features=x, targets=np.asarray(["b", "a", "b", "c", "a", "b"]))
        proto = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        got = _worker_delta(proto, chunk, RecordEncode(encoder))
        assert list(got) == ["b", "a", "c"]
        assert all(type(label) is str for label in got)

    def test_integer_regression_targets_bind_as_floats(self):
        embedding = value_embedding(levels=12)
        y = np.arange(40) % 6
        chunk = Chunk(features=(y * 1.0)[:, None], targets=y)
        proto = HDRegressor(embedding, tie_break="zeros", seed=1)
        encode = ValueEncode(embedding, 0)
        reference = proto.shard(encode(chunk), y.astype(np.float64))
        got = _worker_delta(proto, chunk, encode)
        assert pickle.dumps(got) == pickle.dumps(reference)


class TestTrainPipelineIngestNames:
    """``train_pipeline_stream(ingest=)`` names only the one path."""

    @pytest.mark.parametrize("name", ["turbo", "fused"])
    def test_unknown_name_rejected(self, name):
        with pytest.raises(InvalidParameterError, match="ingest"):
            train_pipeline_stream(
                "suturing", config=ClassificationConfig(dim=64, seed=1), ingest=name
            )
