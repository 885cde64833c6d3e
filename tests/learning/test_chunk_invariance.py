"""Row-split invariance: training and answers never depend on the batch.

Every learner trains to the same bytes for any split of its training
rows, and answers a query the same whatever batch the query arrives in.
The streaming reducer, the ingest cluster and the serving batcher all
lean on this; each case below splits with
:func:`~repro.streaming.iter_slices`, the one partitioning rule they
share.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import LevelBasis
from repro.exceptions import InvalidParameterError
from repro.hdc.memory import ItemMemory
from repro.hdc.packed import PackedHV
from repro.learning import CentroidClassifier, HDRegressor
from repro.streaming import iter_slices

DIM = 256


@pytest.fixture()
def class_data():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, (120, DIM)).astype(np.uint8)
    y = list(rng.integers(0, 4, 120))
    return x, y


@pytest.fixture()
def reg_data():
    rng = np.random.default_rng(1)
    x = rng.integers(0, 2, (90, DIM)).astype(np.uint8)
    y = rng.random(90)
    emb = LevelBasis(16, DIM, seed=2).linear_embedding(0.0, 1.0)
    return x, y, emb


def _memory(rows: int = 23) -> tuple[ItemMemory, np.ndarray]:
    rng = np.random.default_rng(3)
    mem = ItemMemory(DIM)
    for i in range(rows):
        mem.add(f"item{i}", rng.integers(0, 2, DIM).astype(np.uint8))
    queries = rng.integers(0, 2, (9, DIM)).astype(np.uint8)
    return mem, queries


class TestClassifier:
    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("chunk", [1, 17, 120])
    def test_partial_fit_over_slices_equals_fit(self, class_data, chunk, packed):
        x, y = class_data
        batch = PackedHV.pack(x) if packed else x
        serial = CentroidClassifier(DIM, tie_break="zeros").fit(x, y)
        chunked = CentroidClassifier(DIM, tie_break="zeros").partial_fit(
            (batch[a:b], y[a:b]) for a, b in iter_slices(len(y), chunk)
        )
        assert chunked.classes == serial.classes
        assert chunked.num_samples == serial.num_samples
        for cls in serial.classes:
            assert np.array_equal(serial.class_vector(cls), chunked.class_vector(cls))

    @pytest.mark.parametrize("chunk", [7, 13, 120])
    def test_predict_and_score_over_slices(self, class_data, chunk):
        x, y = class_data
        clf = CentroidClassifier(DIM, tie_break="zeros").fit(x, y)
        chunked = [
            label for a, b in iter_slices(len(y), chunk) for label in clf.predict(x[a:b])
        ]
        assert chunked == clf.predict(x)
        hits = sum(int(p == t) for p, t in zip(chunked, y))
        assert clf.score(x, y) == hits / len(y)

    def test_shard_is_pure(self, class_data):
        x, y = class_data
        clf = CentroidClassifier(DIM)
        shard = clf.shard(x, y)
        assert sorted(shard) == sorted(set(y))
        assert clf.classes == [] and clf.num_samples == 0

    def test_shard_label_count_mismatch(self, class_data):
        x, y = class_data
        clf = CentroidClassifier(DIM)
        with pytest.raises(InvalidParameterError):
            clf.shard(x, y[:-1])
        assert clf.classes == []


class TestRegressor:
    @pytest.mark.parametrize("chunk", [11, 90])
    def test_partial_fit_over_slices_equals_fit(self, reg_data, chunk):
        x, y, emb = reg_data
        serial = HDRegressor(emb, tie_break="zeros").fit(x, y)
        chunked = HDRegressor(emb, tie_break="zeros").partial_fit(
            (x[a:b], y[a:b]) for a, b in iter_slices(len(y), chunk)
        )
        assert chunked.num_samples == serial.num_samples
        assert np.array_equal(serial.model, chunked.model)

    @pytest.mark.parametrize("chunk", [7, 19])
    @pytest.mark.parametrize("model", ["binary", "integer"])
    def test_predict_over_slices(self, reg_data, model, chunk):
        x, y, emb = reg_data
        reg = HDRegressor(emb, tie_break="zeros", model=model).fit(x, y)
        chunked = np.concatenate(
            [reg.predict(x[a:b]) for a, b in iter_slices(len(y), chunk)]
        )
        assert chunked.tobytes() == reg.predict(x).tobytes()


class TestItemMemory:
    @pytest.mark.parametrize("chunk", [1, 4, 9])
    def test_distances_over_query_slices(self, chunk):
        mem, queries = _memory()
        chunked = np.concatenate(
            [mem.distances(queries[a:b]) for a, b in iter_slices(len(queries), chunk)]
        )
        assert np.array_equal(chunked, mem.distances(queries))

    def test_single_query_shape(self):
        mem, queries = _memory()
        out = mem.distances(queries[0])
        assert out.shape == (len(mem),)
        assert np.array_equal(out, mem.distances(queries)[0])

    @pytest.mark.parametrize("chunk", [2, 9])
    def test_query_batch_over_slices(self, chunk):
        mem, queries = _memory()
        chunked = [
            key for a, b in iter_slices(len(queries), chunk)
            for key in mem.query_batch(queries[a:b])
        ]
        assert chunked == mem.query_batch(queries)
        assert chunked == [mem.query(q) for q in queries]

    def test_fewer_rows_than_queries(self):
        mem, queries = _memory(rows=3)
        assert mem.query_batch(queries) == [mem.query(q) for q in queries]
        assert set(mem.query_batch(queries)) <= set(mem.keys())
