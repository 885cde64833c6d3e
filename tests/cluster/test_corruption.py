"""Checkpoint corruption: torn files fail loudly, recovery replays safely.

Satellite of the distributed tier: a truncated or garbage container and
a half-written manifest must raise
:class:`~repro.exceptions.ModelFormatError` *naming the file*, and a
crashed run whose newest checkpoint is corrupt recovers from the
previous intact one — replaying extra chunks is always byte-safe
because merges are exact and the cursor is conservative.
"""

from __future__ import annotations

import gc
import json
import shutil
import warnings

import numpy as np
import pytest

from repro.exceptions import ModelFormatError
from repro.experiments.config import ClassificationConfig
from repro.serve import load_checkpoint, load_model
from repro.streaming import train_pipeline_stream

from .harness import model_fingerprint

pytestmark = pytest.mark.cluster

CFG = dict(stream_samples=90, chunk_size=10, checkpoint_every=2)


def config():
    return ClassificationConfig(dim=128, seed=11)


def write_checkpoint(path, crash_after=4, **kwargs):
    class Interrupt(Exception):
        pass

    def bomb(stats):
        if stats.chunks == crash_after:
            raise Interrupt

    with pytest.raises(Interrupt):
        train_pipeline_stream(
            "suturing", "circular", config=config(), checkpoint=path,
            on_chunk=bomb, **CFG, **kwargs,
        )


class TestCorruptContainers:
    def test_truncated_npz_names_the_file(self, tmp_path):
        ckpt = tmp_path / "truncated.npz"
        write_checkpoint(ckpt)
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[: len(blob) // 2])
        for loader in (load_model, load_checkpoint):
            with pytest.raises(ModelFormatError, match="truncated.npz"):
                loader(ckpt)

    def test_truncated_npz_leaves_no_file_open(self, tmp_path):
        ckpt = tmp_path / "truncated.npz"
        write_checkpoint(ckpt)
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[: len(blob) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for loader in (load_model, load_checkpoint):
                with pytest.raises(ModelFormatError):
                    loader(ckpt)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_garbage_bytes_name_the_file(self, tmp_path):
        ckpt = tmp_path / "garbage.npz"
        ckpt.write_bytes(b"\x00\xffnot a zip archive at all\x13\x37" * 64)
        for loader in (load_model, load_checkpoint):
            with pytest.raises(ModelFormatError, match="garbage.npz"):
                loader(ckpt)

    def test_half_written_manifest_names_the_file(self, tmp_path):
        ckpt = tmp_path / "torn.npz"
        write_checkpoint(ckpt)
        with np.load(ckpt, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        manifest = bytes(arrays["__manifest__"]).decode("utf-8")
        torn = manifest[: len(manifest) // 2]  # cut mid-JSON
        arrays["__manifest__"] = np.frombuffer(
            torn.encode("utf-8"), dtype=np.uint8
        )
        np.savez(ckpt, **arrays)
        for loader in (load_model, load_checkpoint):
            with pytest.raises(ModelFormatError, match="torn.npz"):
                loader(ckpt)

    def test_malformed_cursor_entry_names_the_file(self, tmp_path):
        ckpt = tmp_path / "badcursor.npz"
        write_checkpoint(ckpt)
        with np.load(ckpt, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        manifest = json.loads(bytes(arrays["__manifest__"]).decode("utf-8"))
        manifest["cursor"] = "not-an-object"
        arrays["__manifest__"] = np.frombuffer(
            json.dumps(manifest, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        np.savez(ckpt, **arrays)
        assert load_model(ckpt)  # load_model ignores the cursor entirely
        with pytest.raises(ModelFormatError, match="badcursor.npz"):
            load_checkpoint(ckpt)


class TestRecoveryFallback:
    @pytest.mark.parametrize("cluster_workers", [1, 3])
    def test_fall_back_to_previous_intact_checkpoint(self, tmp_path, cluster_workers):
        """Newest checkpoint corrupt -> resume from the previous intact copy.

        The cursor is conservative (it never credits un-persisted
        state), so resuming from an *older* checkpoint replays more
        chunks but converges to the identical bytes.
        """
        baseline = tmp_path / "baseline.npz"
        train_pipeline_stream(
            "suturing", "circular", config=config(), checkpoint=baseline, **CFG
        )
        live = tmp_path / "live.npz"
        write_checkpoint(live, crash_after=2, cluster_workers=cluster_workers)
        shutil.copy(live, tmp_path / "previous.npz")  # operator-side rotation
        write_checkpoint(live, crash_after=6, cluster_workers=cluster_workers)
        blob = live.read_bytes()
        live.write_bytes(blob[: len(blob) - 100])  # newest checkpoint torn
        with pytest.raises(ModelFormatError, match="live.npz"):
            load_checkpoint(live)
        # failover: restore the previous intact checkpoint and resume
        shutil.copy(tmp_path / "previous.npz", live)
        train_pipeline_stream(
            "suturing", "circular", config=config(), checkpoint=live,
            resume=True, cluster_workers=cluster_workers, **CFG,
        )
        assert model_fingerprint(baseline) == model_fingerprint(live)
