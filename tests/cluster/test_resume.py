"""Checkpoint-cursor resume: interrupted runs finish byte-identically.

Satellite of the distributed tier: every checkpoint written by
``train --stream`` carries a cursor (absorbed chunk frontier, tie-break
RNG state).  Killing the driver and resuming from
the checkpoint must land on exactly the bytes of an uninterrupted run —
for the single-process reducer and the cluster coordinator alike.
"""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError, ModelFormatError
from repro.experiments.config import ClassificationConfig, RegressionConfig
from repro.serve import load_checkpoint, save_model
from repro.streaming import CURSOR_VERSION, train_pipeline_stream

from .harness import model_fingerprint

pytestmark = pytest.mark.cluster

CFG = dict(stream_samples=90, chunk_size=10, checkpoint_every=2)


def config():
    return ClassificationConfig(dim=128, seed=11)


class Interrupt(Exception):
    pass


def interrupted_run(checkpoint, crash_after, **kwargs):
    def bomb(stats):
        if stats.chunks == crash_after:
            raise Interrupt

    with pytest.raises(Interrupt):
        train_pipeline_stream(
            "suturing", "circular", config=config(), checkpoint=checkpoint,
            on_chunk=bomb, **CFG, **kwargs,
        )


class TestCursorRoundTrip:
    def test_checkpoint_carries_a_cursor(self, tmp_path):
        ckpt = tmp_path / "ckpt.npz"
        interrupted_run(ckpt, crash_after=4)
        _, cursor = load_checkpoint(ckpt)
        assert cursor is not None
        assert cursor["version"] == CURSOR_VERSION
        assert cursor["kind"] == "stream"
        assert cursor["chunks"] == 4 and cursor["rows"] == 40
        assert cursor["chunk_size"] == 10
        assert "per_worker" not in cursor  # version 1's derivable map
        assert cursor["rng_state"]["bit_generator"] in (
            "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
        )
        assert cursor["config"]["seed"] == 11

    @pytest.mark.parametrize("crash_after", [2, 4, 7])
    def test_resume_matches_uninterrupted(self, tmp_path, crash_after):
        baseline = tmp_path / "baseline.npz"
        train_pipeline_stream(
            "suturing", "circular", config=config(), checkpoint=baseline, **CFG
        )
        resumed = tmp_path / "resumed.npz"
        interrupted_run(resumed, crash_after=crash_after)
        train_pipeline_stream(
            "suturing", "circular", config=config(), checkpoint=resumed,
            resume=True, **CFG,
        )
        assert model_fingerprint(baseline) == model_fingerprint(resumed)

    def test_cluster_resume_matches_serial(self, tmp_path):
        """Coordinator checkpoints its frontier; every worker resumes from
        its first assigned chunk at or past it."""
        baseline = tmp_path / "baseline.npz"
        train_pipeline_stream(
            "suturing", "circular", config=config(), checkpoint=baseline, **CFG
        )
        resumed = tmp_path / "resumed.npz"
        interrupted_run(resumed, crash_after=5, cluster_workers=3)
        _, cursor = load_checkpoint(resumed)
        assert cursor["kind"] == "cluster" and cursor["workers"] == 3
        assert cursor["version"] == CURSOR_VERSION and "per_worker" not in cursor
        train_pipeline_stream(
            "suturing", "circular", config=config(), checkpoint=resumed,
            resume=True, cluster_workers=3, **CFG,
        )
        assert model_fingerprint(baseline) == model_fingerprint(resumed)

    @pytest.mark.parametrize("cluster_workers", [None, 3])
    def test_version_1_cursor_still_resumes(self, tmp_path, cluster_workers):
        """A version-1 cursor (with its per-worker map) resumes to the
        baseline bytes; the map is ignored."""
        baseline = tmp_path / "baseline.npz"
        train_pipeline_stream(
            "suturing", "circular", config=config(), checkpoint=baseline, **CFG
        )
        resumed = tmp_path / "resumed.npz"
        interrupted_run(resumed, crash_after=5, cluster_workers=cluster_workers)
        pipeline, cursor = load_checkpoint(resumed)
        frontier = cursor["chunks"]
        workers = cursor["workers"]
        cursor = dict(
            cursor,
            version=1,
            per_worker={
                str(w): frontier + (w - frontier) % workers for w in range(workers)
            },
        )
        save_model(pipeline, resumed, cursor=cursor)
        assert load_checkpoint(resumed)[1]["version"] == 1
        train_pipeline_stream(
            "suturing", "circular", config=config(), checkpoint=resumed,
            resume=True, cluster_workers=cluster_workers, **CFG,
        )
        assert model_fingerprint(baseline) == model_fingerprint(resumed)

    def test_resume_across_modes(self, tmp_path):
        """A single-process checkpoint resumes under the cluster, and back."""
        baseline = tmp_path / "baseline.npz"
        train_pipeline_stream(
            "suturing", "circular", config=config(), checkpoint=baseline, **CFG
        )
        resumed = tmp_path / "resumed.npz"
        interrupted_run(resumed, crash_after=4)  # single-process crash
        train_pipeline_stream(
            "suturing", "circular", config=config(), checkpoint=resumed,
            resume=True, cluster_workers=3, **CFG,  # cluster finishes it
        )
        assert model_fingerprint(baseline) == model_fingerprint(resumed)


def task_config(task):
    if task == "mars_express":
        return RegressionConfig(dim=128, seed=11)
    return config()


class TestBothTaskKinds:
    """Gesture and Mars Express runs share one ingest tail: cluster or
    in-process, checkpoint cursor, then the ``on_chunk`` hook."""

    @pytest.mark.parametrize("task", ["suturing", "mars_express"])
    def test_cluster_matches_in_process(self, tmp_path, task):
        runs = {}
        for workers in (None, 2):
            seen = []
            path = tmp_path / f"{task}-{workers}.npz"
            pipe, stats = train_pipeline_stream(
                task, "circular", config=task_config(task), checkpoint=path,
                cluster_workers=workers,
                on_chunk=lambda s, seen=seen: seen.append((s.chunks, s.rows)),
                **CFG,
            )
            assert seen[-1] == (stats.chunks, stats.rows)
            _, cursor = load_checkpoint(path)
            assert cursor["kind"] == ("stream" if workers is None else "cluster")
            runs[workers] = (seen, pipe.metadata, model_fingerprint(path))
        assert runs[None] == runs[2]

    @pytest.mark.parametrize("cluster_workers", [None, 3])
    def test_regression_resume_matches_uninterrupted(self, tmp_path, cluster_workers):
        cfg = task_config("mars_express")
        baseline = tmp_path / "baseline.npz"
        full, _ = train_pipeline_stream(
            "mars_express", "circular", config=cfg, checkpoint=baseline, **CFG
        )

        def bomb(stats):
            if stats.chunks == 5:
                raise Interrupt

        resumed = tmp_path / "resumed.npz"
        with pytest.raises(Interrupt):
            train_pipeline_stream(
                "mars_express", "circular", config=cfg, checkpoint=resumed,
                on_chunk=bomb, cluster_workers=cluster_workers, **CFG,
            )
        pipe, stats = train_pipeline_stream(
            "mars_express", "circular", config=cfg, checkpoint=resumed,
            resume=True, cluster_workers=cluster_workers, **CFG,
        )
        assert pipe.kind == "regression"
        assert stats.rows == full.metadata["num_train"]
        assert model_fingerprint(baseline) == model_fingerprint(resumed)


class TestResumeValidation:
    def test_resume_requires_checkpoint(self):
        with pytest.raises(InvalidParameterError, match="checkpoint"):
            train_pipeline_stream(
                "suturing", "circular", config=config(), resume=True, **CFG
            )

    def test_resume_rejects_cursorless_checkpoint(self, tmp_path):
        plain = tmp_path / "plain.npz"
        pipe, _ = train_pipeline_stream(
            "suturing", "circular", config=config(), **CFG
        )
        save_model(pipe, plain)  # no cursor
        with pytest.raises(ModelFormatError, match="no resume cursor"):
            train_pipeline_stream(
                "suturing", "circular", config=config(), checkpoint=plain,
                resume=True, **CFG,
            )

    def test_resume_rejects_unknown_cursor_version(self, tmp_path):
        ckpt = tmp_path / "ckpt.npz"
        interrupted_run(ckpt, crash_after=4)
        pipeline, cursor = load_checkpoint(ckpt)
        save_model(pipeline, ckpt, cursor=dict(cursor, version=CURSOR_VERSION + 1))
        with pytest.raises(ModelFormatError, match="cursor version"):
            train_pipeline_stream(
                "suturing", "circular", config=config(), checkpoint=ckpt,
                resume=True, **CFG,
            )

    def test_resume_rejects_config_mismatch(self, tmp_path):
        ckpt = tmp_path / "ckpt.npz"
        interrupted_run(ckpt, crash_after=4)
        with pytest.raises(InvalidParameterError, match="mismatch"):
            train_pipeline_stream(
                "suturing", "circular",
                config=ClassificationConfig(dim=128, seed=99),  # wrong seed
                checkpoint=ckpt, resume=True, **CFG,
            )

    def test_resume_rejects_chunk_size_mismatch(self, tmp_path):
        ckpt = tmp_path / "ckpt.npz"
        interrupted_run(ckpt, crash_after=4)
        with pytest.raises(InvalidParameterError, match="mismatch"):
            train_pipeline_stream(
                "suturing", "circular", config=config(), checkpoint=ckpt,
                resume=True, stream_samples=90, chunk_size=15,
                checkpoint_every=2,
            )
