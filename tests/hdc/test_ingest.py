"""Bit-identity gates for the fused ingest kernel tier.

The acceptance property of :mod:`repro.hdc.ingest`: the fused path —
selected by ``"auto"``, ``"fused"`` or the default ``None`` — trains
the exact classifier the reference encode-then-``partial_fit`` path
produces, byte for byte in the saved-model container and draw for draw
in the tie-break RNG, for any chunk size (one row included), fused
block size, thread/worker count, packed or unpacked reference encode,
and tie policy.  Plus the dispatch contract: regressors and
unrecognised ``(model, encode)`` pairs take the reference path
untouched under every backend name.
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
from repro.hdc import ingest
from repro.hdc.hypervector import random_hypervectors
from repro.hdc.ingest import (
    INGEST_BACKENDS,
    EngineEncode,
    ingest_chunk,
    learn_fused,
    resolve_ingest_backend,
    shard_ingest,
)
from repro.learning import CentroidClassifier, HDRegressor
from repro.learning.merge import shard_delta
from repro.runtime import BatchEncoder, WorkerPool
from repro.serve import save_model
from repro.streaming import (
    JigsawsStream,
    MarsExpressStream,
    stream_encode,
    stream_fit_classifier,
    stream_fit_regressor,
)
from repro.streaming.chunks import Chunk
from repro.streaming.train import RecordEncode, ValueEncode

TWO_PI = 2.0 * np.pi
DIM = 160  # not a multiple of 64: exercises the tie-coin tail mask

#: The names of the fused path under test everywhere.
BACKENDS = ["auto", "fused"]


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


class TestBackendResolution:
    def test_default_is_auto(self):
        assert resolve_ingest_backend() == "auto"
        assert resolve_ingest_backend(None) == "auto"

    def test_every_listed_backend_is_canonical(self):
        assert INGEST_BACKENDS == ("auto", "ref", "fused")
        for name in INGEST_BACKENDS:
            assert resolve_ingest_backend(name) == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidParameterError):
            resolve_ingest_backend("turbo")


def _cell(tie_break: str = "random", chunk_size: int = 29):
    stream = JigsawsStream(
        "suturing", seed=21, chunk_size=chunk_size, samples_per_gesture=6
    )
    encoder = BatchEncoder(
        random_hypervectors(18, DIM, seed=3), value_embedding(), tie_break=tie_break
    )
    return stream, encoder


class TestAutoDispatch:
    @pytest.mark.parametrize("rows", [1, 2, 31])
    def test_small_chunks_fuse_by_default(self, rows, tmp_path):
        """Reproducer: ``"auto"`` declined the fused path below 32 rows,
        where it is also the faster path."""
        stream, encoder = _cell("random", 64)
        big = next(iter(stream))
        chunk = Chunk(
            features=big.features[:rows], targets=big.targets[:rows], start=5
        )
        encode = RecordEncode(encoder, 3)
        ref = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        ref.partial_fit([(encode(chunk), chunk.targets.tolist())])
        fused = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        assert ingest_chunk(fused, chunk, encode)
        assert_same_classifier(ref, fused, tmp_path, f"small-{rows}")

    @pytest.mark.parametrize("rows", [1, 2, 31])
    def test_small_engine_batches_fuse_by_default(self, rows, tmp_path):
        encoder = BatchEncoder(
            random_hypervectors(18, DIM, seed=3),
            value_embedding(),
            tie_break="random",
            chunk_size=7,
        )
        x = np.random.default_rng(rows).uniform(0.0, TWO_PI, (rows, 18))
        y = (np.arange(rows) % 3).tolist()
        ref = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        ref.partial_fit([(encoder.encode(x, seed=42, packed=True), y)])
        learned = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        assert learn_fused(learned, encoder, x, y, seed=42)
        assert_same_classifier(ref, learned, tmp_path, f"engine-small-{rows}")
        streamed = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        chunk = Chunk(features=x, targets=np.asarray(y))
        assert ingest_chunk(streamed, chunk, EngineEncode(encoder, 42))
        assert_same_classifier(ref, streamed, tmp_path, f"engine-chunk-{rows}")
        restored = pickle.loads(pickle.dumps(EngineEncode(encoder, 42)))
        assert restored(chunk).data.tobytes() == encoder.encode(x, seed=42, packed=True).data.tobytes()

    def test_ref_backend_never_handles(self):
        stream, encoder = _cell()
        chunk = next(iter(stream))
        clf = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        assert not ingest_chunk(clf, chunk, RecordEncode(encoder, 0), backend="ref")

    def test_unrecognised_encode_falls_back(self):
        stream, encoder = _cell()
        chunk = next(iter(stream))
        clf = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        plain = lambda c: stream_encode(encoder, c.features, start=c.start)  # noqa: E731
        assert not ingest_chunk(clf, chunk, plain, backend="fused")
        assert clf.num_samples == 0

    def test_empty_chunk_falls_back(self):
        _, encoder = _cell()
        chunk = Chunk(features=np.empty((0, 18)), targets=np.empty(0, dtype=object))
        clf = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        assert not ingest_chunk(clf, chunk, RecordEncode(encoder, 0), backend="fused")


class TestClassifierBitIdentity:
    """Fused streamed training == monolithic fit, bytes and RNG draws."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("chunk_size", [1, 13, 97, 1000])
    @pytest.mark.parametrize("tie_break", ["random", "zeros", "alternate"])
    def test_fused_equals_monolithic(self, backend, chunk_size, tie_break, tmp_path):
        stream, encoder = _cell(tie_break, chunk_size)
        fused = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        stream_fit_classifier(fused, encoder, stream, seed=77, ingest=backend)
        x, y = stream.materialize()
        mono = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        mono.fit(stream_encode(encoder, x, seed=77), y.tolist())
        assert_same_classifier(
            mono, fused, tmp_path, f"{backend}-{chunk_size}-{tie_break}"
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("block_rows", [1, 3, 50, 4096])
    def test_block_size_invariance(self, backend, block_rows, monkeypatch, tmp_path):
        """The fused threshold block is an implementation detail."""
        stream, encoder = _cell("random", 41)
        ref = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        stream_fit_classifier(ref, encoder, stream, seed=9, ingest="ref")
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
        fused = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        stream_fit_classifier(fused, encoder, stream, seed=9, ingest=backend)
        assert_same_classifier(ref, fused, tmp_path, f"block-{backend}-{block_rows}")

    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_pool_invariance(self, workers, tmp_path):
        stream, encoder = _cell("random", 37)
        serial = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        stream_fit_classifier(serial, encoder, stream, seed=4, ingest="ref")
        fused = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        with WorkerPool(workers=workers) as pool:
            stream_fit_classifier(
                fused, encoder, stream, seed=4, pool=pool, ingest="fused"
            )
        assert_same_classifier(serial, fused, tmp_path, f"workers-{workers}")

    def test_unpacked_reference_equals_fused(self, tmp_path):
        """The packed/unpacked reference representations and the fused
        path all land the same accumulator integers."""
        stream, encoder = _cell("random", 53)
        unpacked = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        for chunk in stream:
            encoded = stream_encode(
                encoder, chunk.features, start=chunk.start, seed=11, packed=False
            )
            unpacked.partial_fit([(encoded, chunk.targets.tolist())])
        fused = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        stream_fit_classifier(fused, encoder, stream, seed=11, ingest="fused")
        assert_same_classifier(unpacked, fused, tmp_path, "unpacked")


class TestEngineSemantics:
    """learn_fused reproduces the serving engine's per-call RNG draws."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("chunk_size", [37, 128])
    def test_learn_fused_equals_encode_partial_fit(
        self, backend, chunk_size, tmp_path
    ):
        encoder = BatchEncoder(
            random_hypervectors(18, DIM, seed=3),
            value_embedding(),
            tie_break="random",
            chunk_size=chunk_size,
        )
        rng = np.random.default_rng(6)
        batches = [rng.uniform(0.0, TWO_PI, (90, 18)) for _ in range(2)]
        labels = [(np.arange(90) % 5).tolist() for _ in range(2)]

        ref = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        fused = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        # two successive calls: the *second* is only identical if the
        # first consumed the engine RNG stream exactly like the encode
        for x, y in zip(batches, labels):
            ref.partial_fit([(encoder.encode(x, seed=42, packed=True), y)])
            assert learn_fused(fused, encoder, x, y, seed=42, backend=backend)
        assert_same_classifier(ref, fused, tmp_path, f"engine-{backend}")


class TestRegressorBitIdentity:
    """Regressors take the reference path under every backend name."""

    @pytest.mark.parametrize("backend", INGEST_BACKENDS)
    @pytest.mark.parametrize("chunk_size", [1, 50, 333])
    def test_streamed_equals_monolithic(self, backend, chunk_size, tmp_path):
        stream = MarsExpressStream(num_samples=700, seed=8, chunk_size=chunk_size)
        embedding = value_embedding(levels=12)
        low, high = stream.label_range()
        label_embedding = Embedding(
            make_basis("level", 20, DIM, seed=9),
            LinearDiscretizer(low, high, 20, clip=True),
        )
        fused = HDRegressor(label_embedding, tie_break="random", seed=2)
        stream_fit_regressor(fused, embedding, stream, ingest=backend)
        x, y = stream.materialize()
        mono = HDRegressor(label_embedding, tie_break="random", seed=2)
        mono.fit(embedding.encode_packed(x[:, 0]), y)
        assert np.array_equal(fused.model, mono.model)
        assert fused.num_samples == mono.num_samples
        assert (
            fused._rng.bit_generator.state == mono._rng.bit_generator.state
        )
        assert saved_bytes(mono, tmp_path, "ref-reg") == saved_bytes(
            fused, tmp_path, "got-reg"
        )

    @pytest.mark.parametrize("backend", [None, *INGEST_BACKENDS])
    def test_regressor_pairs_decline_the_fused_path(self, backend):
        embedding = value_embedding(levels=12)
        y = np.linspace(0.0, TWO_PI, 40)
        chunk = Chunk(features=y[:, None], targets=y)
        model = HDRegressor(embedding, tie_break="zeros", seed=1)
        encode = ValueEncode(embedding, 0)
        assert not ingest_chunk(model, chunk, encode, backend=backend)
        assert model.num_samples == 0
        assert shard_ingest(model, chunk, encode, backend=backend) is None


class _Pipe:
    """Collects what a cluster worker sends, in order."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def close(self):
        pass


class TestClusterDeltas:
    """shard_ingest ships the exact bytes shard_delta would have."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_classifier_shard_is_byte_identical(self, backend):
        stream, encoder = _cell("random", 64)
        chunk = next(iter(stream))
        proto = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        encode = RecordEncode(encoder, 7)
        reference = shard_delta(
            proto, encode(chunk), chunk.targets.tolist()
        )
        got = shard_ingest(proto, chunk, encode, backend=backend)
        assert got is not None
        assert pickle.dumps(got) == pickle.dumps(reference)
        assert proto.num_samples == 0  # pure: the prototype is untouched

    @pytest.mark.parametrize("backend", [None, *INGEST_BACKENDS])
    def test_regressor_shard_is_byte_identical(self, backend):
        """A cluster worker ships a regressor's ``shard_delta`` fallback,
        the same bytes under every backend name."""
        embedding = value_embedding(levels=12)
        y = np.linspace(0.0, TWO_PI, 80)
        chunk = Chunk(features=y[:, None], targets=y)
        proto = HDRegressor(embedding, tie_break="zeros", seed=1)
        encode = ValueEncode(embedding, 0)
        reference = shard_delta(proto, encode(chunk), y)
        pipe = _Pipe()
        plan = WorkerPlan(
            worker_id=0, num_workers=1, source=[chunk], encode=encode,
            proto=proto, ingest=backend,
        )
        worker_main(plan, pipe)
        (kind, *_, rows, got), done = pipe.sent
        assert (kind, rows, done[0]) == ("delta", 80, "done")
        assert pickle.dumps(got) == pickle.dumps(reference)
        assert proto.num_samples == 0

    def test_shard_ingest_declines_ref_backend(self):
        stream, encoder = _cell()
        chunk = next(iter(stream))
        proto = CentroidClassifier(DIM, tie_break="zeros", seed=5)
        assert shard_ingest(proto, chunk, RecordEncode(encoder, 7), backend="ref") is None
