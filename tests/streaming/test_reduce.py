"""Tests for positional tie coins, start-keyed record encoding and encode_reduce."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.basis import CircularBasis, LevelBasis
from repro.exceptions import InvalidParameterError
from repro.hdc.hypervector import random_hypervectors
from repro.hdc.ops import majority_from_counts
from repro.learning import CentroidClassifier, HDRegressor
from repro.runtime import BatchEncoder
from repro.serve import TrainedPipeline
from repro.streaming import (
    array_chunks,
    encode_reduce,
    positional_tie_bits,
    prefetch_chunks,
    resolve_majority,
)
from repro.streaming.train import RecordEncode, ValueEncode, checkpointer

TWO_PI = 2.0 * np.pi


def make_encoder(dim=128, channels=4, tie_break="random"):
    emb = CircularBasis(12, dim, seed=1).circular_embedding(period=TWO_PI)
    keys = random_hypervectors(channels, dim, seed=2)
    return BatchEncoder(keys, emb, tie_break=tie_break)


def _prefetch_threads():
    return [t for t in threading.enumerate() if t.name == "repro-chunk-prefetch"]


def _assert_producer_gone():
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        if not any(t.is_alive() for t in _prefetch_threads()):
            return
        time.sleep(0.01)
    raise AssertionError("prefetch producer thread is still alive")


class TestPositionalTieBits:
    def test_row_keyed_not_position_keyed(self):
        a = positional_tie_bits(7, np.array([3, 5, 9]), 256)
        b = positional_tie_bits(7, np.array([5]), 256)
        assert np.array_equal(a[1], b[0])

    def test_seed_sensitivity(self):
        a = positional_tie_bits(7, np.array([3]), 256)
        b = positional_tie_bits(8, np.array([3]), 256)
        assert not np.array_equal(a, b)

    def test_rows_differ(self):
        bits = positional_tie_bits(0, np.arange(10), 512)
        assert len({row.tobytes() for row in bits}) == 10

    def test_roughly_fair(self):
        bits = positional_tie_bits(1, np.arange(100), 1024)
        assert 0.45 < bits.mean() < 0.55

    def test_odd_dims(self):
        for dim in (1, 63, 64, 65, 1000):
            bits = positional_tie_bits(3, np.array([0, 1]), dim)
            assert bits.shape == (2, dim)
            assert set(np.unique(bits)) <= {0, 1}

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            positional_tie_bits("seed", np.array([0]), 8)
        with pytest.raises(InvalidParameterError):
            positional_tie_bits(0, np.array([0]), 0)


class TestResolveMajority:
    @pytest.mark.parametrize("policy", ["zeros", "ones", "alternate"])
    def test_position_free_policies_delegate(self, policy):
        counts = np.random.default_rng(0).integers(0, 5, (6, 32))
        expected = majority_from_counts(counts, 4, tie_break=policy)
        got = resolve_majority(counts, 4, policy, seed=0, start=17)
        assert np.array_equal(expected, got)

    def test_random_is_start_keyed(self):
        counts = np.full((4, 32), 2, dtype=np.int64)  # all ties at total=4
        a = resolve_majority(counts, 4, "random", seed=5, start=0)
        b = resolve_majority(counts[2:], 4, "random", seed=5, start=2)
        assert np.array_equal(a[2:], b)

    def test_non_tied_bits_are_majority(self):
        counts = np.array([[0, 4, 2, 1, 3]], dtype=np.int64)
        out = resolve_majority(counts, 4, "random", seed=0, start=0)
        assert out[0, 0] == 0 and out[0, 1] == 1
        assert out[0, 3] == 0 and out[0, 4] == 1


class TestStartKeyedEncode:
    """``BatchEncoder.encode(..., start=)``: the streaming record encode."""

    @pytest.mark.parametrize("tie_break", ["random", "zeros"])
    @pytest.mark.parametrize("packed", [True, False])
    def test_chunking_invariance(self, tie_break, packed, monkeypatch):
        feats = np.random.default_rng(0).uniform(0, TWO_PI, (40, 4))
        enc = make_encoder(tie_break=tie_break)
        outputs = []
        for encoder_chunk in (3, 16, 64):
            monkeypatch.setattr("repro.runtime.batch._CHUNK_ROWS", encoder_chunk)
            whole = enc.encode(feats, seed=11, packed=packed)
            whole = whole.unpack() if packed else whole
            outputs.append(whole)
            for split_at in (1, 7, 25):
                parts = [
                    enc.encode(feats[s:s + split_at], seed=11, start=s, packed=packed)
                    for s in range(0, 40, split_at)
                ]
                parts = [p.unpack() if packed else p for p in parts]
                assert np.array_equal(whole, np.concatenate(parts))
        assert np.array_equal(outputs[0], outputs[1])
        assert np.array_equal(outputs[0], outputs[2])

    def test_draw_free_policies_ignore_the_position(self):
        feats = np.random.default_rng(2).uniform(0, TWO_PI, (30, 4))
        for policy in ("zeros", "ones", "alternate"):
            enc = make_encoder(tie_break=policy)
            assert np.array_equal(
                enc.encode(feats, seed=4, start=9), enc.encode(feats)
            )

    def test_random_ties_actually_exercised(self):
        # even channel count -> per-bit ties are common; the positional
        # coins must differ from the all-zeros resolution
        feats = np.random.default_rng(3).uniform(0, TWO_PI, (30, 4))
        enc_rand = make_encoder(tie_break="random")
        enc_zero = make_encoder(tie_break="zeros")
        a = enc_rand.encode(feats, seed=5)
        b = enc_zero.encode(feats)
        assert not np.array_equal(a, b)

    def test_empty_batch(self):
        enc = make_encoder()
        out = enc.encode(np.empty((0, 4)), start=3)
        assert out.shape == (0, enc.dim)


class TestEncodeReduce:
    def test_reduces_into_classifier(self):
        y = np.arange(20) % 3
        x = np.random.default_rng(0).uniform(0, TWO_PI, (20, 4))
        enc = make_encoder(dim=64, tie_break="zeros")
        src = array_chunks(x, y, chunk_size=6)
        clf = CentroidClassifier(64, tie_break="zeros")
        stats = encode_reduce(
            clf, src, lambda c: enc.encode(c.features, start=c.start, packed=True)
        )
        assert (stats.rows, stats.chunks) == (20, 4)
        assert clf.num_samples == 20
        # labels were converted to plain python ints (serialisable)
        assert all(isinstance(label, int) for label in clf.classes)

    def test_reduces_into_regressor(self):
        emb = LevelBasis(8, 64, seed=0).linear_embedding(0.0, 1.0)
        y = np.linspace(0.0, 1.0, 15)
        model = HDRegressor(emb, tie_break="zeros")
        stats = encode_reduce(
            model,
            array_chunks(y[:, None], y, chunk_size=4),
            lambda c: emb.encode_packed(c.features[:, 0]),
        )
        assert stats.rows == 15
        assert model.num_samples == 15

    def test_on_chunk_hook_runs_per_chunk(self):
        emb = LevelBasis(8, 64, seed=0).linear_embedding(0.0, 1.0)
        y = np.linspace(0.0, 1.0, 12)
        seen = []
        encode_reduce(
            HDRegressor(emb, tie_break="zeros"),
            array_chunks(y[:, None], y, chunk_size=5),
            lambda c: emb.encode_packed(c.features[:, 0]),
            on_chunk=lambda stats: seen.append((stats.chunks, stats.rows)),
        )
        assert seen == [(1, 5), (2, 10), (3, 12)]

    def test_rejects_unlabelled_chunks(self):
        emb = LevelBasis(8, 64, seed=0).linear_embedding(0.0, 1.0)
        src = array_chunks(np.zeros((4, 1)), chunk_size=2)
        with pytest.raises(InvalidParameterError):
            encode_reduce(
                HDRegressor(emb),
                src,
                lambda c: emb.encode_packed(c.features[:, 0]),
            )


class TestPrefetchChunks:
    """The double-buffer thread must be invisible except in wall-clock."""

    def test_preserves_order_and_content(self):
        x = np.arange(30.0).reshape(15, 2)
        src = array_chunks(x, chunk_size=4)
        plain = [(c.start, c.features.copy()) for c in src]
        fetched = [(c.start, c.features) for c in prefetch_chunks(src)]
        assert [s for s, _ in fetched] == [s for s, _ in plain]
        for (_, got), (_, want) in zip(fetched, plain):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_any_depth_is_bit_identical(self, depth):
        x = np.random.default_rng(depth).normal(size=(23, 3))
        src = array_chunks(x, chunk_size=5)
        stacked = np.concatenate(
            [c.features for c in prefetch_chunks(src, depth=depth)]
        )
        assert np.array_equal(stacked, x)

    def test_rejects_non_positive_depth(self):
        src = array_chunks(np.zeros((4, 1)), chunk_size=2)
        with pytest.raises(InvalidParameterError):
            next(prefetch_chunks(src, depth=0))

    def test_source_error_reraises_after_good_chunks(self):
        class Exploding:
            def __iter__(self):
                yield from array_chunks(np.zeros((4, 1)), chunk_size=2)
                raise RuntimeError("stream truncated")

        consumed = []
        with pytest.raises(RuntimeError, match="stream truncated"):
            for chunk in prefetch_chunks(Exploding()):
                consumed.append(chunk.rows)
        assert consumed == [2, 2]  # chunks before the failure still arrive

    def test_source_error_propagates(self):
        class ExplodesImmediately:
            def __iter__(self):
                raise RuntimeError("stream truncated")
                yield  # pragma: no cover

        with pytest.raises(RuntimeError, match="stream truncated"):
            list(prefetch_chunks(ExplodesImmediately()))

    def test_abandoning_early_stops_cleanly(self):
        x = np.zeros((100, 2))
        it = prefetch_chunks(array_chunks(x, chunk_size=2), depth=1)
        first = next(it)
        assert first.rows == 2
        it.close()  # generator finalisation must not hang or raise

    def test_empty_source_yields_nothing(self):
        class Empty:
            def __iter__(self):
                return iter(())

        assert list(prefetch_chunks(Empty())) == []
        _assert_producer_gone()

    def test_single_chunk_stream(self):
        x = np.arange(6.0).reshape(3, 2)
        chunks = list(prefetch_chunks(array_chunks(x, chunk_size=10)))
        assert len(chunks) == 1
        assert chunks[0].start == 0
        assert np.array_equal(chunks[0].features, x)
        _assert_producer_gone()

    def test_close_joins_the_producer_thread(self):
        """Abandoning the iterator must actually stop the thread, not
        just detach from it — a long run would otherwise leak one
        producer per abandoned stream."""
        x = np.zeros((400, 2))
        it = prefetch_chunks(array_chunks(x, chunk_size=2), depth=1)
        next(it)
        assert any(t.is_alive() for t in _prefetch_threads())
        it.close()
        _assert_producer_gone()

    @pytest.mark.parametrize("depth", [2, 4])
    def test_mid_stream_error_reraises_at_depth(self, depth):
        """The failure contract holds when several chunks are in flight:
        every chunk produced before the error arrives, then the original
        exception (same object, not a wrapper) re-raises."""
        boom = ValueError("disk vanished")

        class ExplodesMidway:
            def __iter__(self):
                yield from array_chunks(np.zeros((8, 1)), chunk_size=2)
                raise boom

        consumed = []
        with pytest.raises(ValueError) as excinfo:
            for chunk in prefetch_chunks(ExplodesMidway(), depth=depth):
                consumed.append(chunk.rows)
        assert excinfo.value is boom
        assert consumed == [2, 2, 2, 2]
        _assert_producer_gone()

    def test_encode_reduce_prefetch_is_bit_identical(self):
        y = np.arange(24) % 3
        x = np.random.default_rng(7).uniform(0, TWO_PI, (24, 4))
        enc = make_encoder(dim=64, tie_break="zeros")

        def fit(prefetch):
            clf = CentroidClassifier(64, tie_break="zeros")
            encode_reduce(
                clf,
                array_chunks(x, y, chunk_size=5),
                lambda c: enc.encode(c.features, start=c.start, packed=True),
                prefetch=prefetch,
            )
            return clf

        inline, buffered = fit(0), fit(1)
        assert inline.num_samples == buffered.num_samples == 24
        for label in inline.classes:
            assert np.array_equal(
                inline.class_vector(label), buffered.class_vector(label)
            )


class TestEncodeOverlap:
    """encode_reduce encodes on the prefetch thread, absorbs on the caller's."""

    def _classifier_run(self):
        y = np.arange(40) % 3
        x = np.random.default_rng(11).uniform(0, TWO_PI, (40, 4))
        enc = make_encoder(dim=64)
        return x, y, enc

    def test_next_chunk_encodes_while_the_hook_runs(self):
        """Chunk n's hook waits for chunk n+1's encode to start, so a
        serial encode → absorb → hook loop fails here."""
        x, y, enc = self._classifier_run()
        started = [threading.Event() for _ in range(8)]
        threads = []

        def encode(chunk):
            threads.append(threading.current_thread().name)
            started[chunk.start // 5].set()
            return enc.encode(chunk.features, start=chunk.start, packed=True)

        def hook(stats):
            if stats.chunks < len(started):
                assert started[stats.chunks].wait(10.0), (
                    f"chunk {stats.chunks} did not start encoding while chunk "
                    f"{stats.chunks - 1} was in its hook"
                )

        clf = CentroidClassifier(64, tie_break="zeros")
        stats = encode_reduce(
            clf, array_chunks(x, y, chunk_size=5), encode, on_chunk=hook, prefetch=1
        )
        assert stats.chunks == 8
        assert set(threads) == {"repro-chunk-prefetch"}
        _assert_producer_gone()

    def test_inline_encodes_on_the_calling_thread(self):
        x, y, enc = self._classifier_run()
        threads = []

        def encode(chunk):
            threads.append(threading.current_thread())
            return enc.encode(chunk.features, start=chunk.start, packed=True)

        encode_reduce(
            CentroidClassifier(64, tie_break="zeros"),
            array_chunks(x, y, chunk_size=5),
            encode,
            prefetch=0,
        )
        assert threads == [threading.current_thread()] * 8

    @pytest.mark.parametrize("prefetch", [0, 1, 2])
    def test_encode_error_after_absorbed_chunks(self, prefetch):
        """Chunks before the failing encode are absorbed with their hooks
        fired; then the encode's own exception object re-raises."""
        x, y, enc = self._classifier_run()
        boom = RuntimeError("encode failed")

        def encode(chunk):
            if chunk.start == 15:
                raise boom
            return enc.encode(chunk.features, start=chunk.start, packed=True)

        seen = []
        clf = CentroidClassifier(64, tie_break="zeros")
        with pytest.raises(RuntimeError) as excinfo:
            encode_reduce(
                clf,
                array_chunks(x, y, chunk_size=5),
                encode,
                on_chunk=lambda stats: seen.append((stats.chunks, stats.rows)),
                prefetch=prefetch,
            )
        assert excinfo.value is boom
        assert seen == [(1, 5), (2, 10), (3, 15)]
        assert clf.num_samples == 15
        _assert_producer_gone()

    def test_hook_error_stops_the_producer(self):
        x = np.zeros((400, 1))
        y = np.arange(400) % 2
        emb = LevelBasis(8, 64, seed=0).linear_embedding(0.0, 1.0)
        boom = OSError("disk full")
        encoded = []

        def encode(chunk):
            encoded.append(chunk.start)
            return emb.encode_packed(chunk.features[:, 0])

        def hook(stats):
            raise boom

        with pytest.raises(OSError) as excinfo:
            encode_reduce(
                CentroidClassifier(64, tie_break="zeros"),
                array_chunks(x, y, chunk_size=2),
                encode,
                on_chunk=hook,
                prefetch=1,
            )
        assert excinfo.value is boom
        _assert_producer_gone()
        # One chunk absorbed, at most one queued and one mid-encode.
        assert len(encoded) <= 3

    @pytest.mark.parametrize("kind", ["classification", "regression"])
    def test_checkpoints_are_byte_identical(self, tmp_path, kind):
        """Every pipeline checkpoint of an overlapped run equals the inline
        run's: the hook sees the model after exactly the same chunks, and
        its deep copy races no encode.  The overlapped run switches
        threads every microsecond to shake out interleavings."""
        x, y, _ = self._classifier_run()

        def pipeline():
            if kind == "classification":
                emb = CircularBasis(12, 64, seed=1).circular_embedding(period=TWO_PI)
                keys = random_hypervectors(4, 64, seed=2)
                clf = CentroidClassifier(64, seed=5)
                pipe = TrainedPipeline(kind, clf, emb, keys=keys)
                return pipe, RecordEncode(BatchEncoder(keys, emb), seed=3), y
            features = CircularBasis(12, 64, seed=4).circular_embedding(period=TWO_PI)
            labels = LevelBasis(8, 64, seed=6).linear_embedding(0.0, 3.0)
            pipe = TrainedPipeline(kind, HDRegressor(labels, seed=5), features)
            return pipe, ValueEncode(features), y.astype(np.float64)

        def run(prefetch):
            pipe, encode, targets = pipeline()
            path = tmp_path / f"ckpt-{prefetch}.npz"
            save = checkpointer(pipe, path, every=1)
            written = []

            def hook(stats):
                save(stats)
                written.append(path.read_bytes())

            encode_reduce(
                pipe.model,
                array_chunks(x, targets, chunk_size=5),
                encode,
                on_chunk=hook,
                prefetch=prefetch,
            )
            return written

        inline = run(0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            overlapped = run(1)
        finally:
            sys.setswitchinterval(interval)
        assert len(inline) == 8
        assert overlapped == inline
