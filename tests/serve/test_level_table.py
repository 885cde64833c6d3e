"""Keyless pipelines answer from a per-level table, byte for byte.

A keyless pipeline quantises its one value to one of the embedding's
``m`` levels, so :class:`~repro.serve.InferenceEngine` answers from the
model's predictions for the ``m`` basis rows.  The contract under test:

* every predict path returns exactly the bytes of
  ``model.predict(embedding.encode_packed(x))`` — for every level, for
  wrapped and out-of-range inputs, for both regressor model modes and
  decodes, for a keyless classifier, and for any worker count;
* the table follows the model: ``learn``, ``forget``, ``absorb`` and a
  hot swap are served at once, with the same tie draws the
  encode-then-scan path makes (checked against an identically seeded
  twin model predicted the old way);
* an empty model still raises ``EmptyModelError`` and non-finite input
  still raises ``EncodingDomainError``.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.basis import CircularBasis, LevelBasis
from repro.exceptions import EmptyModelError, EncodingDomainError
from repro.learning import CentroidClassifier, HDRegressor
from repro.serve import (
    InferenceEngine,
    ModelRegistry,
    OnlineLearner,
    TrainedPipeline,
    save_model,
)

DIM = 256
PERIOD = 2.0 * np.pi


def _circular(levels=24, seed=5):
    return CircularBasis(levels, DIM, seed=seed).circular_embedding(period=PERIOD)


def _linear(levels=24, seed=5):
    return LevelBasis(levels, DIM, seed=seed).linear_embedding(0.0, PERIOD)


def _regression_pipeline(model="binary", decode="argmin", embedding=None, samples=48):
    """A keyless regressor on ``y = x`` with tie-drawing ("random") majority."""
    emb = embedding if embedding is not None else _circular()
    label = LevelBasis(32, DIM, seed=6).linear_embedding(0.0, PERIOD)
    reg = HDRegressor(label, tie_break="random", seed=9, decode=decode, model=model)
    if samples:
        x = np.linspace(0.0, PERIOD, samples, endpoint=False)
        reg.fit(emb.encode_packed(x), x)
    return TrainedPipeline(kind="regression", model=reg, embedding=emb)


def _classification_pipeline():
    """A keyless classifier: the quadrant of an angle."""
    emb = _circular()
    x = np.linspace(0.0, PERIOD, 64, endpoint=False)
    labels = [f"q{int(v // (PERIOD / 4))}" for v in x]
    clf = CentroidClassifier(dim=DIM, tie_break="random", seed=13)
    clf.fit(emb.encode_packed(x), labels)
    return TrainedPipeline(kind="classification", model=clf, embedding=emb)


def _values(embedding, n=2000, seed=0):
    """Every level's grid point plus ``n`` random values, wrapping and
    out-of-range ones included."""
    rng = np.random.default_rng(seed)
    extra = rng.uniform(-2.0 * PERIOD, 3.0 * PERIOD, n)
    return np.concatenate([embedding.discretizer.points, extra])


def _oracle(pipeline, values):
    """The encode-then-scan answer the table must reproduce."""
    return pipeline.model.predict(pipeline.embedding.encode_packed(values))


def _assert_same(served, expected):
    if isinstance(expected, np.ndarray):
        served = np.asarray(served)
        assert served.dtype == expected.dtype
        assert served.tobytes() == expected.tobytes()
    else:
        assert list(served) == list(expected)


def _assert_served(engine, values, expected):
    """All three predict paths answer ``expected`` for ``values``."""
    _assert_same(engine.predict(values[:, None]), expected)
    _assert_same(engine.predict_coalesced(values[:, None]), expected)
    singles = [engine.predict_one([v]) for v in values]
    if isinstance(expected, np.ndarray):
        singles = np.array(singles)
    _assert_same(singles, expected)


# -- byte identity with the encode-then-scan path --------------------------------


@pytest.mark.parametrize("model_mode", ["binary", "integer"])
@pytest.mark.parametrize("decode", ["argmin", "weighted"])
@pytest.mark.parametrize("make_embedding", [_circular, _linear], ids=["circular", "linear"])
def test_regressor_table_is_byte_identical(kernel_side, model_mode, decode, make_embedding):
    pipeline = _regression_pipeline(model_mode, decode, make_embedding())
    values = _values(pipeline.embedding)
    with InferenceEngine(pipeline) as engine:
        _assert_served(engine, values, _oracle(pipeline, values))


def test_classifier_table_is_byte_identical(kernel_side):
    pipeline = _classification_pipeline()
    values = _values(pipeline.embedding, seed=1)
    with InferenceEngine(pipeline) as engine:
        expected = _oracle(pipeline, values)
        assert len(set(expected)) == 4
        _assert_served(engine, values, expected)


def test_serving_never_calls_model_predict(monkeypatch):
    """After start-up a keyless engine answers without touching the model."""
    pipeline = _regression_pipeline("integer")
    values = _values(pipeline.embedding, n=50)
    expected = _oracle(pipeline, values)
    with InferenceEngine(pipeline) as engine:

        def refuse(*args, **kwargs):
            raise AssertionError("model.predict ran on the serving path")

        monkeypatch.setattr(HDRegressor, "predict", refuse)
        _assert_served(engine, values, expected)


# -- the table follows the model -------------------------------------------------


def _changed(before, after):
    return any(a != b for a, b in zip(list(before), list(after)))


@pytest.mark.parametrize("model_mode", ["binary", "integer"])
def test_learn_forget_absorb_are_served_at_once(model_mode):
    """Each mutation changes at least one answer, and the engine serves
    exactly what an identically seeded twin answers the old way."""
    served = _regression_pipeline(model_mode)
    twin = _regression_pipeline(model_mode)
    values = _values(served.embedding, n=200, seed=2)
    # Pull every value in the first quarter turn towards a far label.
    features = np.linspace(0.0, PERIOD / 4, 40)[:, None]
    targets = np.full(40, 0.8 * PERIOD)
    learner = OnlineLearner(served)
    twin_learner = OnlineLearner(twin)
    engine = learner.engine
    previous = _oracle(twin, values)
    _assert_served(engine, values, previous)

    learner.learn(features, targets)
    twin_learner.learn(features, targets)
    current = _oracle(twin, values)
    assert _changed(previous, current)
    _assert_served(engine, values, current)

    previous = current
    learner.forget(features, targets)
    twin_learner.forget(features, targets)
    current = _oracle(twin, values)
    assert _changed(previous, current)
    _assert_served(engine, values, current)

    previous = current
    encoded = served.embedding.encode_packed(features[:, 0])
    learner.absorb(served.model.shard(encoded, targets))
    twin_learner.absorb(twin.model.shard(encoded, targets))
    current = _oracle(twin, values)
    assert _changed(previous, current)
    _assert_served(engine, values, current)


def test_classifier_learn_is_served_at_once():
    served = _classification_pipeline()
    twin = _classification_pipeline()
    values = _values(served.embedding, n=200, seed=3)
    features = np.linspace(0.0, PERIOD / 2, 60)[:, None]
    labels = ["q3"] * 60
    learner = OnlineLearner(served)
    twin_learner = OnlineLearner(twin)
    previous = _oracle(twin, values)
    _assert_served(learner.engine, values, previous)
    learner.learn(features, labels)
    twin_learner.learn(features, labels)
    current = _oracle(twin, values)
    assert _changed(previous, current)
    _assert_served(learner.engine, values, current)


def test_hot_swap_serves_the_new_model(tmp_path):
    first = _regression_pipeline("integer")
    second = _regression_pipeline("integer", embedding=_circular(seed=8), samples=0)
    x = np.linspace(0.0, PERIOD, 48, endpoint=False)
    second.model.fit(second.embedding.encode_packed(x), PERIOD - x)
    values = _values(first.embedding, n=200, seed=4)
    before, after = _oracle(first, values), _oracle(second, values)
    assert _changed(before, after)
    save_model(first, tmp_path / "a.npz")
    save_model(second, tmp_path / "b.npz")
    with ModelRegistry() as registry:
        registry.register("m", str(tmp_path / "a.npz"))
        _assert_served(registry.engine("m"), values, before)
        registry.swap("m", str(tmp_path / "b.npz"))
        _assert_served(registry.engine("m"), values, after)


def test_concurrent_rebuild_builds_once():
    """Threads racing a stale table rebuild it once: one build, every
    answer the twin's, and the binary model's tie RNG advanced exactly
    as one materialisation advances it."""
    served = _regression_pipeline("binary")
    twin = _regression_pipeline("binary")
    values = _values(served.embedding, n=100, seed=6)
    features = np.linspace(0.0, PERIOD / 4, 41)[:, None]
    targets = np.full(41, 0.8 * PERIOD)
    results: list = []
    interval = sys.getswitchinterval()
    learner = OnlineLearner(served)
    twin_learner = OnlineLearner(twin)
    learner.learn(features, targets)
    twin_learner.learn(features, targets)
    expected = _oracle(twin, values)
    builds = []
    predict = served.model.predict

    def counted(encoded):
        builds.append(encoded.shape[0])
        time.sleep(0.05)  # a slow build: racing threads pile up here
        return predict(encoded)

    served.model.predict = counted
    barrier = threading.Barrier(8)

    def hammer():
        barrier.wait(timeout=10)
        for _ in range(5):
            results.append(learner.engine.predict_coalesced(values[:, None]))

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert builds == [len(served.embedding)]
    assert len(results) == 40
    for answers in results:
        _assert_same(np.array(answers), expected)
    assert served.model._rng.bit_generator.state == twin.model._rng.bit_generator.state


# -- empty models and bad input --------------------------------------------------


@pytest.mark.parametrize("model_mode", ["binary", "integer"])
def test_empty_bootstrap_then_learn(model_mode):
    pipeline = _regression_pipeline(model_mode, samples=0)
    twin = _regression_pipeline(model_mode, samples=0)
    values = _values(pipeline.embedding, n=100, seed=5)
    x = np.linspace(0.0, PERIOD, 48, endpoint=False)
    learner = OnlineLearner(pipeline)
    twin_learner = OnlineLearner(twin)
    engine = learner.engine
    with pytest.raises(EmptyModelError):
        engine.predict(values[:, None])
    with pytest.raises(EmptyModelError):
        engine.predict_coalesced(values[:, None])
    with pytest.raises(EmptyModelError):
        engine.predict_one([0.5])
    learner.learn(x[:, None], x)
    twin_learner.learn(x[:, None], x)
    _assert_served(engine, values, _oracle(twin, values))


@pytest.mark.parametrize("samples", [0, 48])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(samples, bad):
    pipeline = _regression_pipeline(samples=samples)
    with InferenceEngine(pipeline) as engine:
        with pytest.raises(EncodingDomainError):
            engine.predict([[0.5], [bad]])
        with pytest.raises(EncodingDomainError):
            engine.predict_coalesced([[0.5], [bad]])
        with pytest.raises(EncodingDomainError):
            engine.predict_one([bad])


def test_out_of_interval_rejected_without_clip():
    emb = LevelBasis(24, DIM, seed=5).linear_embedding(0.0, PERIOD, clip=False)
    pipeline = _regression_pipeline(embedding=emb)
    with InferenceEngine(pipeline) as engine:
        with pytest.raises(EncodingDomainError):
            engine.predict([[0.5], [PERIOD + 1.0]])
        with pytest.raises(EncodingDomainError):
            engine.predict_one([-1.0])
