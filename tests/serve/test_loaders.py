"""``load_model`` and ``load_checkpoint`` are one loader.

Both read a container through the same private loader; the checkpoint
form adds only its cursor check.  So every file one refuses, the other
refuses with the same :class:`~repro.exceptions.ModelFormatError`
message, and on a good file ``load_checkpoint`` returns exactly the
object ``load_model`` does, next to the cursor ``load_model`` ignores.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.basis import CircularBasis
from repro.exceptions import ModelFormatError
from repro.learning import CentroidClassifier
from repro.serve import load_checkpoint, load_model, save_model
from repro.serve.persist import FORMAT_NAME, FORMAT_VERSION, MANIFEST_KEY, _read_container


def _write_manifest(path, manifest, arrays=None):
    blob = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
    np.savez(path, **{MANIFEST_KEY: blob, **(arrays or {})})


def _edit_saved(path, obj, edit):
    save_model(obj, path)
    manifest, arrays = _read_container(path)
    edit(manifest, arrays)
    _write_manifest(path, manifest, arrays)


def _classifier():
    return CentroidClassifier(dim=8, seed=0).fit(np.eye(8, dtype=np.uint8), [0, 1] * 4)


def _not_a_zip(path):
    path.write_bytes(b"this is not a model")


def _no_manifest(path):
    np.savez(path, data=np.zeros(4))


def _future_version(path):
    _write_manifest(
        path,
        {"format": FORMAT_NAME, "version": FORMAT_VERSION + 1, "type": "basis", "payload": {}},
    )


def _other_format(path):
    _write_manifest(path, {"format": "something-else", "version": 1})


def _no_type(path):
    _write_manifest(path, {"format": FORMAT_NAME, "version": 1})


def _payload_without_dim(path):
    def edit(manifest, arrays):
        del manifest["payload"]["dim"]

    _edit_saved(path, _classifier(), edit)


def _bad_bit_generator(path):
    def edit(manifest, arrays):
        manifest["payload"]["rng_state"]["bit_generator"] = "default_rng"

    _edit_saved(path, _classifier(), edit)


def _truncated_prototypes(path):
    def edit(manifest, arrays):
        arrays["prototypes"] = arrays["prototypes"][:1]

    _edit_saved(path, _classifier(), edit)


def _set_pad_bit(path):
    def edit(manifest, arrays):
        arrays["vectors"][0, -1] |= 0x7F  # d=1001 keeps 1 bit of the last byte

    _edit_saved(path, CircularBasis(size=8, dim=1001, seed=5), edit)


CORRUPTIONS = [
    pytest.param(_not_a_zip, "cannot read", id="not-a-zip"),
    pytest.param(_no_manifest, "manifest", id="no-manifest"),
    pytest.param(_future_version, "version", id="future-version"),
    pytest.param(_other_format, "format", id="other-format"),
    pytest.param(_no_type, "unknown model type", id="no-type"),
    pytest.param(_payload_without_dim, "malformed manifest: KeyError", id="payload-without-dim"),
    pytest.param(_bad_bit_generator, "bit generator", id="bad-bit-generator"),
    pytest.param(_truncated_prototypes, "prototypes", id="truncated-prototypes"),
    pytest.param(_set_pad_bit, "padding", id="set-pad-bit"),
]


@pytest.mark.parametrize("corrupt, needle", CORRUPTIONS)
def test_both_loaders_refuse_a_bad_file_alike(corrupt, needle, tmp_path):
    path = tmp_path / "model.npz"
    corrupt(path)
    messages = []
    for loader in (load_model, load_checkpoint):
        with pytest.raises(ModelFormatError, match=needle) as err:
            loader(path)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("cursor", [None, {"chunks": 3, "rows": 30}], ids=["plain", "cursor"])
def test_checkpoint_loader_returns_the_model_loader_object(cursor, tmp_path):
    path = tmp_path / "model.npz"
    save_model(_classifier(), path, cursor=cursor)
    model, loaded_cursor = load_checkpoint(path)
    plain = load_model(path)
    assert loaded_cursor == cursor
    assert type(model) is type(plain)
    assert model.classes == plain.classes
    for label in plain.classes:
        assert np.array_equal(model.class_vector(label), plain.class_vector(label))
