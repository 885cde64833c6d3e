"""Content digests of trained artifacts: saved models do not move.

Each test trains a servable pipeline, saves it, and compares a digest of
the saved *content* with a pinned value: the manifest JSON plus every
array's name, dtype, shape and bytes, in name order.  The ``.npz`` bytes
themselves are not hashed, because they depend on numpy's zip writer.

A refactor of how a pipeline is built must leave these digests alone;
a change that means to move them has to say so by re-pinning them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments.config import ClassificationConfig, RegressionConfig
from repro.experiments.serving import train_pipeline
from repro.serve.persist import MANIFEST_KEY, save_model
from repro.streaming import JigsawsStream, MarsExpressStream, train_pipeline_stream

DIM = 1024
SEED = 2023
CHUNK = 128

#: The placeholder a training file's path becomes in a digested manifest.
INPUT = "<input>"


def content_digest(path, input_path=None) -> str:
    """SHA-256 over the manifest and arrays of the model saved at ``path``."""
    with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = arrays[name]
        if name == MANIFEST_KEY and input_path is not None:
            text = array.tobytes().replace(str(input_path).encode("utf-8"), INPUT.encode("utf-8"))
            array = np.frombuffer(text, dtype=np.uint8)
        digest.update(name.encode("utf-8") + b"\0")
        digest.update(array.dtype.str.encode("ascii") + b"\0")
        digest.update(repr(array.shape).encode("ascii") + b"\0")
        digest.update(array.tobytes())
    return digest.hexdigest()


def config_for(task: str):
    if task == "mars_express":
        return RegressionConfig(dim=DIM, seed=SEED)
    return ClassificationConfig(dim=DIM, seed=SEED)


TRAINED = {
    ("suturing", "random"):
        "eb61e132c84f7620219712517b9185793bd3e5815e3a817b0c4772e6b6a2d2cd",
    ("suturing", "level"):
        "f4bf6d12d2b8097a8f72b0c16f5c1d3a2351e17cf135586a0585748bdff3cafc",
    ("suturing", "circular"):
        "31f8ebb238c8f84e709831dfbdc363f2b8b3c13c476fdca716bf36897afa72d9",
    ("mars_express", "random"):
        "f7d9a80edb9684a797724a22ee761ccede775be4a2d4bb2e81343d65b87cbe8e",
    ("mars_express", "level"):
        "fe4656450c6821a189bebf032b87b1350c43b22a65aac2d033150135e4f613d0",
    ("mars_express", "circular"):
        "48e491ed87519108976c7b8b7d140071172edbb50a9e1452bb8a3fc76f36b21b",
}


@pytest.mark.parametrize(("task", "basis_kind"), sorted(TRAINED))
def test_train_pipeline_content(tmp_path, task, basis_kind):
    pipeline = train_pipeline(task, basis_kind, config=config_for(task))
    path = save_model(pipeline, tmp_path / "model.npz")
    assert content_digest(path) == TRAINED[(task, basis_kind)]


STREAMED = {
    ("suturing", "synthetic"):
        "17866797fce10fd0accf5bc341f43057e7b1f518e64056b30e528e75bf451f91",
    ("suturing", "npy"):
        "2749584c57218d696ad8c91ee7b09fed34fd54a479ee7c8d0b54e98f08b7d13a",
    ("suturing", "resumed"):
        "1dae09a519de2c389e3239a2f8df2e16b73a959b618bf862234fdc6dfe67e9a4",
    ("mars_express", "synthetic"):
        "246edad2104e2483883aa1e7516385fb8c64c31e5a04d7cc5f9e4df32a508d65",
    ("mars_express", "npy"):
        "fae311dd3c06deae9249ad6798d866363f446b2ae2aded3b19e4ab19fce72ddd",
    ("mars_express", "resumed"):
        "cf22388204021e723b7f332ada49bcbd869a737057028a11a40699b231cce453",
}


def write_npy(tmp_path, task: str):
    """A ``.npy`` training file (with its targets) of the task's shape."""
    if task == "mars_express":
        stream = MarsExpressStream(chunk_size=CHUNK, num_samples=600, seed=5)
    else:
        stream = JigsawsStream(task, chunk_size=CHUNK, seed=5, samples_per_gesture=20)
    features, targets = stream.materialize()
    path = tmp_path / "train.npy"
    np.save(path, np.asarray(features, dtype=np.float64))
    np.save(tmp_path / "train.targets.npy", np.asarray(targets))
    return path


class Interrupt(Exception):
    pass


@pytest.mark.parametrize(("task", "mode"), sorted(STREAMED))
def test_train_pipeline_stream_content(tmp_path, task, mode):
    kwargs = dict(config=config_for(task), chunk_size=CHUNK)
    input_path = None
    if mode == "npy":
        input_path = write_npy(tmp_path, task)
        kwargs["input_path"] = input_path
    if mode == "resumed":
        checkpoint = tmp_path / "checkpoint.npz"
        kwargs.update(checkpoint=checkpoint, checkpoint_every=1)

        def interrupt(stats):
            if stats.chunks == 2:
                raise Interrupt

        with pytest.raises(Interrupt):
            train_pipeline_stream(task, "circular", on_chunk=interrupt, **kwargs)
        train_pipeline_stream(task, "circular", resume=True, **kwargs)
        path = checkpoint
    else:
        pipeline, _ = train_pipeline_stream(task, "circular", **kwargs)
        path = save_model(pipeline, tmp_path / "model.npz")
    assert content_digest(path, input_path) == STREAMED[(task, mode)]
