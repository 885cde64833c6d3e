"""Loading and preparing a served model keeps and peaks at a few MB.

A keyless regressor shaped like the Mars Express one (720 input levels,
128 label levels, d = 10,000) is saved, reloaded with
:func:`~repro.serve.load_model` and wrapped in an
:class:`~repro.serve.InferenceEngine`.  The engine keeps the packed
tables (about 1.1 MB) and the per-level answers, and no unpacked basis
or ``(d, k)`` scoring table; the traced peak of the two steps is the
bounded transient of the per-level table build.  The integer model
scores the 720 levels in blocks of dimensions and of query rows, so its
peak is bounded tighter than the binary model's chunked scan.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.basis import CircularBasis, LevelBasis
from repro.learning import HDRegressor
from repro.serve import InferenceEngine, TrainedPipeline, load_model, save_model

DIM = 10_000
PERIOD = 2.0 * np.pi

#: Bytes the loaded engine may keep, and the traced peak of load plus
#: engine build for each model.
RETAINED_BOUND = 2_000_000
PEAK_BOUND = {"integer": 4_000_000, "binary": 12_000_000}

#: SHA-256 of each model's per-level answers: the same bytes at any BLAS
#: thread count (CI runs this file under ``OPENBLAS_NUM_THREADS=1`` too).
LEVEL_TABLE_SHA256 = {
    "integer": "56891a2d8b9ae7ae1bc14e459cd38c012f6f77f7078613a55169f5d610cd6546",
    "binary": "dd09200233b137ef9523aec8e02a07665b951696a3d039fdb87b6997c87a49c5",
}


def _mars_shaped_pipeline(model: str) -> TrainedPipeline:
    emb = CircularBasis(720, DIM, seed=1).circular_embedding(period=PERIOD)
    label = LevelBasis(128, DIM, seed=2).linear_embedding(0.0, 1.0)
    reg = HDRegressor(label, tie_break="random", seed=3, model=model)
    x = np.random.default_rng(4).uniform(0.0, PERIOD, 300)
    reg.fit(emb.encode_packed(x), 0.5 + 0.5 * np.sin(x))
    return TrainedPipeline(kind="regression", model=reg, embedding=emb)


@pytest.mark.parametrize("model", ["integer", "binary"])
def test_load_and_prepare_keep_and_peak_within_bounds(tmp_path, model):
    path = tmp_path / "mars.npz"
    pipeline = _mars_shaped_pipeline(model)
    save_model(pipeline, path)
    levels = pipeline.embedding.discretizer.points[:, None]
    expected = InferenceEngine(pipeline).predict(levels)
    del pipeline
    gc.collect()
    tracemalloc.start()
    try:
        engine = InferenceEngine(load_model(path))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= RETAINED_BOUND, f"the engine keeps {retained / 1e6:.1f} MB"
    assert peak <= PEAK_BOUND[model], f"load + engine build peaked at {peak / 1e6:.1f} MB"
    # The bounded build answers exactly what the in-memory model did.
    answers = engine.predict(levels)
    np.testing.assert_array_equal(answers, expected)
    assert hashlib.sha256(answers.tobytes()).hexdigest() == LEVEL_TABLE_SHA256[model]
