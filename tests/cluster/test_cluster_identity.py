"""Exact-merge identity: cluster ingest == serial stream_fit, always.

The core contract of :mod:`repro.cluster`: for any worker count, chunk
size, or checkpoint cadence, the coordinator-merged model is
bit-identical to the single-process reducer — arrays, class order, and
serialised bytes alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import LevelBasis
from repro.basis.base import Embedding
from repro.basis.quantize import LinearDiscretizer
from repro.cluster import ClusterCoordinator
from repro.exceptions import ClusterError, InvalidParameterError
from repro.learning import HDRegressor
from repro.serve import save_model
from repro.streaming import MarsExpressStream, ValueEncode, stream_fit_regressor

from .harness import (
    assert_models_equal,
    make_encoder,
    make_stream,
    model_fingerprint,
    train_cluster,
    train_serial,
)

pytestmark = pytest.mark.cluster


class TestClassifierIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_any_worker_count_matches_serial(self, workers):
        stream = make_stream()
        encoder = make_encoder()
        serial = train_serial(stream, encoder)
        merged, stats = train_cluster(stream, encoder, workers)
        assert stats.rows == 90 and stats.chunks == 9
        assert_models_equal(merged, serial)

    @pytest.mark.parametrize("chunk_size", [5, 10, 30])
    def test_any_chunk_size_matches_serial(self, chunk_size):
        encoder = make_encoder()
        serial = train_serial(make_stream(chunk_size=chunk_size), encoder)
        merged, _ = train_cluster(make_stream(chunk_size=chunk_size), encoder, 3)
        assert_models_equal(merged, serial)

    def test_saved_bytes_match(self, tmp_path):
        stream, encoder = make_stream(), make_encoder()
        serial = train_serial(stream, encoder)
        merged, _ = train_cluster(stream, encoder, 4)
        save_model(serial, tmp_path / "serial.npz")
        save_model(merged, tmp_path / "cluster.npz")
        assert model_fingerprint(tmp_path / "serial.npz") == model_fingerprint(
            tmp_path / "cluster.npz"
        )


class TestRegressorIdentity:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_cluster_matches_serial(self, workers):
        stream = MarsExpressStream(num_samples=120, seed=8, chunk_size=16)
        low, high = stream.label_range()
        label_embedding = Embedding(
            LevelBasis(12, 128, seed=9), LinearDiscretizer(low, high, 12, clip=True)
        )
        feature_embedding = LevelBasis(10, 128, seed=4).linear_embedding(0.0, 2 * np.pi)
        serial = HDRegressor(label_embedding, tie_break="zeros", seed=1)
        stream_fit_regressor(serial, feature_embedding, stream)
        merged = HDRegressor(label_embedding, tie_break="zeros", seed=1)
        stats = ClusterCoordinator(
            merged, stream, ValueEncode(feature_embedding), workers=workers
        ).run()
        assert stats.rows == serial.num_samples
        assert np.array_equal(merged.model, serial.model)
        assert merged.num_samples == serial.num_samples


class TestCoordinatorValidation:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(InvalidParameterError):
            ClusterCoordinator(
                train_serial(make_stream(), make_encoder()),
                make_stream(),
                lambda c: c,
                workers=0,
            )

    def test_rejects_unsupported_model(self):
        with pytest.raises(InvalidParameterError):
            ClusterCoordinator(object(), make_stream(), lambda c: c, workers=2)

    def test_worker_error_surfaces_as_cluster_error(self):
        class Broken:
            def __call__(self, chunk):
                raise RuntimeError("encode exploded")

        clf = train_serial(make_stream(), make_encoder())
        coordinator = ClusterCoordinator(clf, make_stream(), Broken(), workers=2)
        with pytest.raises(ClusterError, match="encode exploded"):
            coordinator.run()

    def test_default_workers_and_bool_rejection(self):
        clf = train_serial(make_stream(), make_encoder())
        assert ClusterCoordinator(clf, make_stream(), lambda c: c).workers == 1
        assert ClusterCoordinator(clf, make_stream(), lambda c: c, workers=2).workers == 2
        # True == 1 and False == 0: a bool is refused, never read as a count.
        for flag in (True, False):
            with pytest.raises(InvalidParameterError):
                ClusterCoordinator(clf, make_stream(), lambda c: c, workers=flag)
