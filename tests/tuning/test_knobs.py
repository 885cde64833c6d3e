"""Knobs are arguments: an omitted knob is its module's built-in, an
explicit value is taken literally, each owner checks its value once,
and the environment variables the package reads are a fixed, reviewed
set.

A scheduling knob moves only blocking and scheduling decisions, so a
wrong value could hide for a long time if it were clamped into range.
Every owner therefore raises :class:`~repro.exceptions.InvalidParameterError`
for an out-of-range or non-finite value instead.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The only environment variables ``src/repro`` may read: the stale
#: calibration guard, the kernels' allocation budget and the results
#: directory.  A new one is a deliberate change to this set.
ENV_VARS = {"REPRO_CALIBRATION", "REPRO_KERNEL_BUDGET", "REPRO_RESULTS_DIR"}


def test_src_reads_exactly_the_pinned_environment_variables():
    found = {
        name
        for path in SRC.rglob("*.py")
        for name in re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8"))
    }
    assert found == ENV_VARS


@pytest.fixture(scope="module")
def registry():
    from repro.experiments.config import RegressionConfig
    from repro.experiments.serving import train_regression_pipeline
    from repro.serve import ModelRegistry

    registry = ModelRegistry()
    registry.register("m", train_regression_pipeline(
        "circular", config=RegressionConfig(dim=128, seed=3)))
    return registry


# -- every knob, one table -----------------------------------------------------
#
# Each entry builds the knob's owner with the knob omitted (``**{}``) or
# set (``**{param: value}``) and reads back the value the owner kept.


def _knob_batcher(param):
    def build(tmp_path, registry, **kw):
        from repro.serve import MicroBatcher

        return MicroBatcher(registry, "m", **kw)

    return param, build


def _knob_file_source(kind):
    def build(tmp_path, registry, **kw):
        from repro.streaming import CsvChunkSource, JsonlChunkSource, NpyMmapChunkSource

        if kind == "jsonl":
            path = tmp_path / "rows.jsonl"
            path.write_text(json.dumps({"features": [1.0], "target": 0}) + "\n")
            return JsonlChunkSource(path, **kw)
        if kind == "csv":
            path = tmp_path / "rows.csv"
            path.write_text("x,target\n1.0,0\n")
            return CsvChunkSource(path, **kw)
        path = tmp_path / "x.npy"
        np.save(path, np.zeros((3, 2)))
        return NpyMmapChunkSource(path, **kw)

    return "chunk_size", build


def _knob_array_chunks():
    def build(tmp_path, registry, **kw):
        from repro.streaming import array_chunks

        return array_chunks(np.zeros((4, 2)), **kw)

    return "chunk_size", build


def _knob_worker_pool():
    def build(tmp_path, registry, **kw):
        from repro.runtime import WorkerPool

        return WorkerPool(**kw)

    return "workers", build


def _knob_cluster():
    def build(tmp_path, registry, **kw):
        from repro.cluster import ClusterCoordinator
        from repro.learning import CentroidClassifier
        from repro.streaming import array_chunks

        return ClusterCoordinator(
            CentroidClassifier(64), array_chunks(np.zeros((4, 2))), lambda c: c, **kw
        )

    return "workers", build


def _window_ms(batcher):
    return batcher.window_s * 1e3


def _builtins():
    from repro.serve.batching import DEFAULT_BATCH_MAX, DEFAULT_BATCH_WINDOW_MS, DEFAULT_MAX_QUEUE
    from repro.streaming import DEFAULT_CHUNK_ROWS

    return {
        "window_ms": DEFAULT_BATCH_WINDOW_MS,
        "max_batch": DEFAULT_BATCH_MAX,
        "max_queue": DEFAULT_MAX_QUEUE,
        "chunk_size": DEFAULT_CHUNK_ROWS,
        "workers": 1,
    }


#: id -> ((param, build), reader, an in-range explicit value).
KNOBS = {
    "batcher-window_ms": (_knob_batcher("window_ms"), _window_ms, 7.5),
    "batcher-max_batch": (_knob_batcher("max_batch"), lambda b: b.max_batch, 5),
    "batcher-max_queue": (_knob_batcher("max_queue"), lambda b: b.max_queue, 17),
    "jsonl-chunk_size": (_knob_file_source("jsonl"), lambda s: s.chunk_size, 77),
    "csv-chunk_size": (_knob_file_source("csv"), lambda s: s.chunk_size, 77),
    "npy-chunk_size": (_knob_file_source("npy"), lambda s: s.chunk_size, 77),
    "array_chunks-chunk_size": (_knob_array_chunks(), lambda s: s.chunk_size, 77),
    "worker_pool-workers": (_knob_worker_pool(), lambda p: p.workers, 3),
    "cluster-workers": (_knob_cluster(), lambda c: c.workers, 2),
}


@pytest.mark.parametrize("knob", list(KNOBS))
def test_omitted_knob_is_the_built_in(knob, tmp_path, registry):
    (param, build), read, _ = KNOBS[knob]
    assert read(build(tmp_path, registry)) == pytest.approx(_builtins()[param])


@pytest.mark.parametrize("knob", list(KNOBS))
def test_explicit_knob_is_taken_literally(knob, tmp_path, registry):
    (param, build), read, value = KNOBS[knob]
    assert read(build(tmp_path, registry, **{param: value})) == pytest.approx(value)


@pytest.mark.parametrize("knob", list(KNOBS))
def test_every_knob_rejects_unparsable(knob, tmp_path, registry):
    (param, build), _, _ = KNOBS[knob]
    with pytest.raises(InvalidParameterError):
        build(tmp_path, registry, **{param: "fast"})


#: id -> (knob, a value outside its bound).
OWNERS = {
    "batcher-max_batch-0": ("batcher-max_batch", 0),
    "batcher-max_queue-0": ("batcher-max_queue", 0),
    "batcher-window_ms--1": ("batcher-window_ms", -1.0),
    "batcher-window_ms-nan": ("batcher-window_ms", float("nan")),
    "batcher-window_ms-inf": ("batcher-window_ms", float("inf")),
    "jsonl-chunk_size-0": ("jsonl-chunk_size", 0),
    "csv-chunk_size-0": ("csv-chunk_size", 0),
    "npy-chunk_size-0": ("npy-chunk_size", 0),
    "array_chunks-chunk_size-0": ("array_chunks-chunk_size", 0),
    # A fractional or boolean size is not a row count: it is refused,
    # not truncated to 2 or read as 1.
    "array_chunks-chunk_size-2.5": ("array_chunks-chunk_size", 2.5),
    "array_chunks-chunk_size-True": ("array_chunks-chunk_size", True),
    "worker_pool-workers--1": ("worker_pool-workers", -1),
    "cluster-workers-0": ("cluster-workers", 0),
}


@pytest.mark.parametrize("owner", list(OWNERS))
def test_out_of_range_knob_raises_instead_of_clamping(owner, tmp_path, registry):
    knob, value = OWNERS[owner]
    (param, build), _, _ = KNOBS[knob]
    with pytest.raises(InvalidParameterError):
        build(tmp_path, registry, **{param: value})
