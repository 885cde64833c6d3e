"""Tests for the bind–bundle–cleanup regressor (Section 2.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import CircularBasis, LevelBasis
from repro.exceptions import (
    DimensionMismatchError,
    EmptyModelError,
    InvalidParameterError,
)
from repro.hdc import BundleAccumulator, PackedHV, random_hypervectors
from repro.learning import HDRegressor
from repro.serve import OnlineLearner, TrainedPipeline, load_model, save_model
from repro.streaming import iter_slices

DIM = 4096


@pytest.fixture
def label_embedding():
    return LevelBasis(32, DIM, seed=100).linear_embedding(0.0, 10.0)


class TestBasics:
    def test_memorises_random_address_pairs(self, rng, label_embedding):
        """The core Section 2.3 mechanism: with quasi-orthogonal sample
        encodings, unbinding the model recovers each sample's label."""
        x = random_hypervectors(40, DIM, rng)
        y = rng.uniform(0, 10, 40)
        model = HDRegressor(label_embedding, seed=0).fit(x, y)
        pred = model.predict(x)
        grid_step = 10.0 / 31
        assert np.abs(pred - y).mean() < 3 * grid_step

    def test_predict_before_fit(self, rng, label_embedding):
        with pytest.raises(EmptyModelError):
            HDRegressor(label_embedding).predict(random_hypervectors(1, DIM, rng))

    def test_model_property_before_fit(self, label_embedding):
        with pytest.raises(EmptyModelError):
            _ = HDRegressor(label_embedding).model

    def test_incremental_fit(self, rng, label_embedding):
        x = random_hypervectors(20, DIM, rng)
        y = rng.uniform(0, 10, 20)
        a = HDRegressor(label_embedding, tie_break="zeros").fit(x, y)
        b = HDRegressor(label_embedding, tie_break="zeros")
        b.fit(x[:10], y[:10]).fit(x[10:], y[10:])
        np.testing.assert_array_equal(a.model, b.model)
        assert b.num_samples == 20

    def test_score_is_mse(self, rng, label_embedding):
        x = random_hypervectors(10, DIM, rng)
        y = rng.uniform(0, 10, 10)
        model = HDRegressor(label_embedding, seed=1).fit(x, y)
        pred = model.predict(x)
        assert model.score(x, y) == pytest.approx(np.mean((pred - y) ** 2))

    def test_dimension_mismatch(self, rng, label_embedding):
        model = HDRegressor(label_embedding)
        with pytest.raises(DimensionMismatchError):
            model.fit(random_hypervectors(2, DIM // 2, rng), np.zeros(2))

    def test_label_shape_mismatch(self, rng, label_embedding):
        model = HDRegressor(label_embedding)
        with pytest.raises(InvalidParameterError):
            model.fit(random_hypervectors(3, DIM, rng), np.zeros(2))

    def test_invalid_decode(self, label_embedding):
        with pytest.raises(InvalidParameterError):
            HDRegressor(label_embedding, decode="softmax")

    def test_invalid_model_mode(self, label_embedding):
        with pytest.raises(InvalidParameterError):
            HDRegressor(label_embedding, model="analog")


class TestModelModes:
    @pytest.mark.parametrize("mode,var_factor", [("binary", 1.5), ("integer", 0.5)])
    def test_smooth_function_learned_with_circular_basis(self, mode, var_factor):
        """Kernel-regression behaviour on a smooth circular function.

        The integer model must clearly beat predicting the mean; the
        binary model is only sanity-bounded — with a single correlated
        feature its majority quantisation pulls predictions toward the
        label median, so
        near-variance MSE is its expected behaviour, not a bug.
        """
        basis = CircularBasis(64, DIM, seed=5)
        emb = basis.circular_embedding()
        rng = np.random.default_rng(6)
        theta = rng.uniform(0, 2 * np.pi, 600)
        y = 5.0 + 4.0 * np.cos(theta)
        label_emb = LevelBasis(64, DIM, seed=7).linear_embedding(0.0, 10.0)
        model = HDRegressor(label_emb, seed=8, model=mode)
        model.fit(emb.encode(theta), y)
        probe = rng.uniform(0, 2 * np.pi, 100)
        mse = model.score(emb.encode(probe), 5.0 + 4.0 * np.cos(probe))
        assert mse < var_factor * np.var(y)

    def test_integer_beats_binary_on_correlated_single_feature(self):
        """The quantisation ablation: the unquantised accumulator retains
        more signal when addresses are correlated."""
        basis = CircularBasis(64, DIM, seed=9)
        emb = basis.circular_embedding()
        rng = np.random.default_rng(10)
        theta = rng.uniform(0, 2 * np.pi, 800)
        y = 5.0 + 4.0 * np.sin(theta)
        label_emb = LevelBasis(64, DIM, seed=11).linear_embedding(0.0, 10.0)
        probe = rng.uniform(0, 2 * np.pi, 150)
        truth = 5.0 + 4.0 * np.sin(probe)
        scores = {}
        for mode in ("binary", "integer"):
            model = HDRegressor(label_emb, seed=12, model=mode)
            model.fit(emb.encode(theta), y)
            scores[mode] = model.score(emb.encode(probe), truth)
        assert scores["integer"] < scores["binary"]


class TestDecodeModes:
    def test_weighted_decode_runs_and_is_reasonable(self, rng, label_embedding):
        x = random_hypervectors(30, DIM, rng)
        y = rng.uniform(0, 10, 30)
        argmin_model = HDRegressor(label_embedding, seed=2, decode="argmin").fit(x, y)
        weighted_model = HDRegressor(label_embedding, seed=2, decode="weighted").fit(x, y)
        assert weighted_model.score(x, y) < np.var(y) * 2
        # Weighted predictions are continuous (not snapped to the grid).
        grid = label_embedding.discretizer.points
        pred = weighted_model.predict(x[:5])
        assert not all(float(p) in set(grid.tolist()) for p in pred)
        del argmin_model

    def test_weighted_decode_within_label_range(self, rng, label_embedding):
        x = random_hypervectors(10, DIM, rng)
        y = rng.uniform(0, 10, 10)
        model = HDRegressor(label_embedding, seed=3, decode="weighted").fit(x, y)
        pred = model.predict(random_hypervectors(20, DIM, rng))
        assert (pred >= 0.0).all() and (pred <= 10.0).all()


def _rebuilt(model: HDRegressor) -> HDRegressor:
    """A fresh regressor holding exactly ``model``'s counts (no cached table)."""
    return HDRegressor(
        model.label_embedding, decode=model.decode_mode, model=model.model_mode
    ).absorb(model._bundle)


class TestIntegerScoringTable:
    """The integer model scores exactly from its counts and the packed
    label table, and every mutation reaches its next predict."""

    @pytest.fixture
    def emb(self):
        return LevelBasis(16, 512, seed=21).linear_embedding(0.0, 1.0)

    @pytest.fixture
    def data(self, emb):
        rng = np.random.default_rng(22)
        y = rng.uniform(0.0, 1.0, 90)
        return random_hypervectors(90, emb.dim, rng), y, random_hypervectors(25, emb.dim, rng)

    def _warm(self, emb, x, y, queries) -> tuple[HDRegressor, np.ndarray]:
        model = HDRegressor(emb, seed=4, model="integer", decode="weighted").fit(x, y)
        return model, model.predict(queries)  # builds the table

    def _assert_fresh(self, model, queries, before):
        after = model.predict(queries)
        assert np.array_equal(after, _rebuilt(model).predict(queries))
        assert not np.array_equal(after, before)  # the mutation moved the answers

    def test_batch_row_and_chunk_bytes_agree_above_float32_range(self):
        """Reproducer: with ``Σ_d |total − 2·counts_d| ≥ 2**24`` the float32
        GEMM rounded differently per batch shape, so a query's answer
        depended on the batch it arrived in."""
        d = 2048
        emb = LevelBasis(32, d, seed=3).linear_embedding(0.0, 1.0)
        rng = np.random.default_rng(11)
        total = 40001
        # A heavily trained bundle that agrees with label 16 in every
        # dimension, so column sums grow linearly instead of cancelling.
        pull = rng.integers(0, total // 4, d)
        counts = np.where(emb.basis.vectors[16] == 1, total - pull, pull)
        assert np.abs(total - 2 * counts).sum() >= 2**24
        model = HDRegressor(emb, model="integer", decode="weighted")
        model.absorb(BundleAccumulator(d).add_counts(counts, total))
        queries = rng.integers(0, 2, (64, d)).astype(np.uint8)
        batched = model.predict(queries)
        per_row = np.concatenate([model.predict(q[None, :]) for q in queries])
        chunked = np.concatenate([model.predict(queries[a:b]) for a, b in iter_slices(64, 7)])
        assert batched.tobytes() == per_row.tobytes() == chunked.tobytes()

    @pytest.mark.parametrize("d, total", [(1031, 301), (2053, 40001)])
    def test_scores_equal_an_exact_integer_reference(self, d, total):
        """Blocks of dimensions (here not a multiple of 8 or of the block)
        sum to the exact integer scores, in float32 below ``2**24`` and
        float64 above."""
        emb = LevelBasis(12, d, seed=5).linear_embedding(0.0, 1.0)
        rng = np.random.default_rng(d)
        counts = rng.integers(0, total + 1, d)
        if total > 10_000:  # agree with one label everywhere: Σ|signed| ≥ 2**24
            counts = np.where(emb.basis.vectors[3] == 1, total - counts // 8, counts // 8)
        model = HDRegressor(emb, model="integer")
        model.absorb(BundleAccumulator(d).add_counts(counts, total))
        signed = total - 2 * counts
        dtype = np.float32 if np.abs(signed).sum() < 2**24 else np.float64
        queries = rng.integers(0, 2, (9, d)).astype(np.uint8)
        bipolar_labels = 1 - 2 * emb.basis.vectors.astype(np.int64)
        exact = (signed * (1 - 2 * queries.astype(np.int64))) @ bipolar_labels.T
        expected = exact.astype(dtype) / (d * total)
        for batch in (queries, PackedHV.pack(queries)):
            scores = model._label_scores(batch)
            assert scores.dtype == dtype and scores.tobytes() == expected.tobytes()

    def test_partial_fit_drops_table(self, emb, data):
        x, y, queries = data
        model, before = self._warm(emb, x[:60], y[:60], queries)
        model.partial_fit([(x[60:], y[60:])])
        self._assert_fresh(model, queries, before)

    def test_forget_drops_table(self, emb, data):
        x, y, queries = data
        model, before = self._warm(emb, x, y, queries)
        model.forget(x[60:], y[60:])
        self._assert_fresh(model, queries, before)

    def test_absorb_drops_table(self, emb, data):
        x, y, queries = data
        model, before = self._warm(emb, x[:60], y[:60], queries)
        model.absorb(model.shard(x[60:], y[60:]))
        self._assert_fresh(model, queries, before)

    def test_online_learner_learn_and_forget_drop_table(self, emb):
        model = HDRegressor(emb, model="integer", decode="weighted")
        pipeline = TrainedPipeline(kind="regression", model=model, embedding=emb)
        rows = np.linspace(0.0, 1.0, 40)[:, None]
        learner = OnlineLearner(pipeline)
        learner.learn(rows[:20], rows[:20, 0])
        queries = learner.engine.encode(rows[::3])
        before = model.predict(queries)
        learner.learn(rows[20:], 1.0 - rows[20:, 0])
        self._assert_fresh(model, queries, before)
        before = model.predict(queries)
        learner.forget(rows[:20], rows[:20, 0])
        self._assert_fresh(model, queries, before)

    def test_save_load_ignores_table(self, emb, data, tmp_path):
        x, y, queries = data
        cold = HDRegressor(emb, seed=4, model="integer", decode="weighted").fit(x, y)
        warm, expected = self._warm(emb, x, y, queries)
        save_model(cold, tmp_path / "cold.npz")
        save_model(warm, tmp_path / "warm.npz")
        with np.load(tmp_path / "cold.npz") as a, np.load(tmp_path / "warm.npz") as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                assert a[key].tobytes() == b[key].tobytes(), key
        reloaded = load_model(tmp_path / "warm.npz")
        assert np.array_equal(reloaded.predict(queries), expected)
        reloaded.forget(x[60:], y[60:])
        self._assert_fresh(reloaded, queries, expected)
