"""Versioned model persistence: ``save_model`` / ``load_model``.

A trained HDC model is tiny — bit-packed hypervectors cost one bit per
dimension and the trainable state is integer count tables — so a saved
model is a few hundred kilobytes even at the paper's ``d = 10,000``.
This module gives every servable object in the library a portable,
versioned on-disk form:

* **container** — a single ``.npz`` file (numpy's zip archive, no
  pickling) holding named ``uint8``/``int64`` arrays plus one JSON
  manifest entry (``__manifest__``) describing what the arrays mean;
* **coverage** — :class:`~repro.learning.classifier.CentroidClassifier`,
  :class:`~repro.learning.regression.HDRegressor`,
  :class:`~repro.hdc.memory.ItemMemory`,
  :class:`~repro.hdc.packed.BundleAccumulator`, every
  :class:`~repro.basis.base.BasisSet` construction (random, level,
  legacy-level, circular, scatter), :class:`~repro.basis.base.Embedding`
  and the :class:`~repro.serve.pipeline.TrainedPipeline` container;
* **bit identity** — hypervector tables are stored packed
  (``numpy.packbits`` layout) and integer accumulators verbatim, and the
  tie-breaking RNG state is captured, so a reloaded model answers every
  query with exactly the bits the in-memory model would have produced —
  including any *future* random tie draws;
* **atomicity** — files are written to a temporary sibling and
  ``os.replace``d into place, so a crash mid-save never corrupts an
  existing model (the :meth:`~repro.serve.online.OnlineLearner.checkpoint`
  contract).

The manifest format (fields, versioning and compatibility policy) is
specified in ``docs/SERVING.md``.

Example
-------
>>> import numpy as np, tempfile, os
>>> from repro.basis import CircularBasis
>>> from repro.serve import save_model, load_model
>>> basis = CircularBasis(size=8, dim=64, seed=5)
>>> path = os.path.join(tempfile.mkdtemp(), "basis.npz")
>>> _ = save_model(basis, path)
>>> restored = load_model(path)
>>> bool(np.array_equal(restored.vectors, basis.vectors))
True
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Any, Hashable

import numpy as np

from ..basis.base import BasisSet, Embedding
from ..basis.circular import CircularBasis
from ..basis.level import LevelBasis
from ..basis.level_legacy import LegacyLevelBasis
from ..basis.quantize import CircularDiscretizer, Discretizer, LinearDiscretizer
from ..basis.random_basis import RandomBasis
from ..basis.scatter import ScatterBasis
from ..exceptions import ModelFormatError
from ..hdc.hypervector import BIT_DTYPE
from ..hdc.memory import ItemMemory
from ..hdc.packed import BundleAccumulator, PackedHV, _tail_mask, packed_width
from ..learning.classifier import CentroidClassifier
from ..learning.regression import HDRegressor
from .pipeline import TrainedPipeline

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "FORMAT_MINOR",
    "MANIFEST_KEY",
    "save_model",
    "load_model",
    "load_checkpoint",
    "describe_model",
]

#: The ``format`` field every manifest must carry.
FORMAT_NAME = "repro-hdc-model"

#: Current container version.  Loaders accept any file up to this
#: version; see docs/SERVING.md for the compatibility policy.  Version 2
#: dropped the request-encoding tie seed from the pipeline payload: a
#: served pipeline's tie policy is position-free, so it needs no seed.
#: Version-1 files still load (their seed field is ignored), except a
#: pipeline saved with the ``"random"`` policy, which is refused.
FORMAT_VERSION = 2

#: Minor revision within :data:`FORMAT_VERSION`, for additive manifest
#: fields readers may ignore.  The optional top-level ``cursor`` entry
#: (streaming/cluster resume state — see ``docs/DISTRIBUTED.md``) is
#: part of version 2 itself.
FORMAT_MINOR = 0

#: npz entry holding the UTF-8 JSON manifest.
MANIFEST_KEY = "__manifest__"


# -- small shared helpers -----------------------------------------------------

def _encode_label(label: Hashable) -> dict[str, Any]:
    """Tag a class label / memory key with its type for JSON transport."""
    if isinstance(label, (bool, np.bool_)):
        return {"t": "bool", "v": bool(label)}
    if isinstance(label, (int, np.integer)):
        return {"t": "int", "v": int(label)}
    if isinstance(label, (float, np.floating)):
        return {"t": "float", "v": float(label)}
    if isinstance(label, str):
        return {"t": "str", "v": label}
    raise ModelFormatError(
        f"cannot persist label/key of type {type(label).__name__}; "
        "supported: str, int, float, bool"
    )


def _decode_label(node: dict[str, Any]) -> Hashable:
    kind, value = node.get("t"), node.get("v")
    if kind == "bool":
        return bool(value)
    if kind == "int":
        return int(value)
    if kind == "float":
        return float(value)
    if kind == "str":
        return str(value)
    raise ModelFormatError(f"unknown label tag {kind!r} in manifest")


#: Bit generators whose state the container may carry.  An allowlist
#: (not getattr over ``np.random``) so crafted files can neither call
#: arbitrary attributes nor escape the ModelFormatError contract; the
#: save path enforces the same list symmetrically.
_BIT_GENERATORS = ("PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937")


def _json_plain(obj: Any) -> Any:
    """Recursively strip numpy containers/scalars out of an RNG state.

    PCG64-family states are already plain ints, but MT19937/Philox/SFC64
    keep key arrays as ndarrays; every allowlisted generator's state
    setter accepts the listified form back (covered by round-trip tests).
    """
    if isinstance(obj, dict):
        return {key: _json_plain(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _rng_state(rng: np.random.Generator) -> dict[str, Any]:
    """The bit-generator state, made JSON-serialisable."""
    state = _json_plain(rng.bit_generator.state)
    name = state.get("bit_generator")
    if name not in _BIT_GENERATORS:
        raise ModelFormatError(
            f"cannot persist RNG backed by {name!r}; supported bit "
            f"generators: {_BIT_GENERATORS}"
        )
    return state


def _restore_rng(state: dict[str, Any]) -> np.random.Generator:
    name = state.get("bit_generator", "PCG64")
    if name not in _BIT_GENERATORS or not hasattr(np.random, name):
        raise ModelFormatError(f"unknown bit generator {name!r} in manifest")
    try:
        bitgen = getattr(np.random, name)()
        bitgen.state = state
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed RNG state in manifest: {exc}") from exc
    return np.random.Generator(bitgen)


def _pack_table(bits: np.ndarray) -> np.ndarray:
    """Bit-pack an unpacked ``(…, d)`` table for storage."""
    return np.packbits(np.asarray(bits, dtype=BIT_DTYPE), axis=-1)


def _unpack_table(data: np.ndarray, dim: int) -> np.ndarray:
    return np.unpackbits(data, axis=-1, count=dim).astype(BIT_DTYPE, copy=False)


def _get_array(arrays: dict[str, np.ndarray], name: str) -> np.ndarray:
    try:
        return arrays[name]
    except KeyError:
        raise ModelFormatError(f"model container is missing array {name!r}") from None


def _get_packed(arrays: dict[str, np.ndarray], name: str, dim: int) -> PackedHV:
    """Read a bit-packed table, checking the invariants the XOR scans need.

    Packed rows must be ``uint8`` with ``ceil(dim / 8)`` bytes each, and
    the padding bits past ``dim`` in the final byte must be zero: every
    XOR + popcount kernel counts them, so one set pad bit would silently
    shift distances.  Any violation raises
    :class:`~repro.exceptions.ModelFormatError` naming the array.
    """
    data = _get_array(arrays, name)
    width = packed_width(dim)
    if data.dtype != np.uint8 or data.ndim < 1 or data.shape[-1] != width:
        raise ModelFormatError(
            f"array {name!r} must hold uint8 rows of {width} bytes for "
            f"dim={dim}, got dtype {data.dtype} and shape {data.shape}"
        )
    pad = np.uint8(0xFF ^ _tail_mask(dim))
    if pad and np.any(data[..., -1] & pad):
        raise ModelFormatError(
            f"array {name!r} has non-zero padding bits past dim={dim}"
        )
    return PackedHV(np.ascontiguousarray(data), dim)


# -- basis sets ---------------------------------------------------------------

_BASIS_TYPES: dict[type, str] = {
    RandomBasis: "random",
    LevelBasis: "level",
    LegacyLevelBasis: "level-legacy",
    CircularBasis: "circular",
    ScatterBasis: "scatter",
}
_BASIS_BY_NAME = {name: cls for cls, name in _BASIS_TYPES.items()}


def _save_basis(basis: BasisSet, arrays: dict, prefix: str) -> dict[str, Any]:
    cls = type(basis)
    if cls not in _BASIS_TYPES:
        raise ModelFormatError(
            f"no serializer registered for basis type {cls.__name__}; "
            f"supported: {sorted(c.__name__ for c in _BASIS_TYPES)}"
        )
    payload: dict[str, Any] = {
        "basis_type": _BASIS_TYPES[cls],
        "size": len(basis),
        "dim": basis.dim,
    }
    arrays[prefix + "vectors"] = basis.packed.data
    if isinstance(basis, LevelBasis):
        payload["r"] = basis.r
        payload["profile_name"] = basis.profile_name
        if basis._positions is not None:
            arrays[prefix + "positions"] = np.asarray(basis._positions, dtype=np.float64)
    elif isinstance(basis, CircularBasis):
        payload["r"] = basis.r
        payload["step"] = basis._step
        payload["half"] = basis._half
    elif isinstance(basis, ScatterBasis):
        payload["flip_mode"] = basis.flip_mode
        arrays[prefix + "flip_counts"] = np.asarray(basis.flip_counts, dtype=np.int64)
    elif isinstance(basis, LegacyLevelBasis):
        arrays[prefix + "cumulative_flips"] = np.asarray(
            basis.cumulative_flips, dtype=np.int64
        )
    return payload


def _load_basis(payload: dict, arrays: dict, prefix: str) -> BasisSet:
    name = payload.get("basis_type")
    cls = _BASIS_BY_NAME.get(name)
    if cls is None:
        raise ModelFormatError(f"unknown basis type {name!r} in manifest")
    packed = _get_packed(arrays, prefix + "vectors", int(payload["dim"]))
    if packed.shape[0] != int(payload["size"]):
        raise ModelFormatError(
            f"basis table has {packed.shape[0]} rows, manifest says {payload['size']}"
        )
    # Bypass the stochastic constructors: the generated table *is* the
    # basis, so restore it verbatim and reattach the per-type metadata
    # that the analysis methods (expected_distance etc.) consult.  The
    # checked packed table is stored as it is, with no unpack.
    basis = cls.__new__(cls)
    BasisSet.__init__(basis, packed)
    if cls is LevelBasis:
        basis.r = float(payload["r"])
        basis._profile_name = payload["profile_name"]
        positions = arrays.get(prefix + "positions")
        basis._positions = None if positions is None else np.asarray(positions)
    elif cls is CircularBasis:
        basis.r = float(payload["r"])
        basis._step = int(payload["step"])
        basis._half = int(payload["half"])
    elif cls is ScatterBasis:
        basis.flip_mode = payload["flip_mode"]
        basis._flip_counts = np.asarray(_get_array(arrays, prefix + "flip_counts"))
    elif cls is LegacyLevelBasis:
        basis._cumulative_flips = np.asarray(
            _get_array(arrays, prefix + "cumulative_flips")
        )
    return basis


# -- discretizers / embeddings ------------------------------------------------

def _save_discretizer(disc: Discretizer) -> dict[str, Any]:
    if type(disc) is LinearDiscretizer:
        return {
            "kind": "linear",
            "low": disc.low,
            "high": disc.high,
            "size": disc.size,
            "clip": disc.clip,
        }
    if type(disc) is CircularDiscretizer:
        return {
            "kind": "circular",
            "size": disc.size,
            "low": disc.low,
            "period": disc.period,
        }
    raise ModelFormatError(
        f"no serializer registered for discretizer type {type(disc).__name__}"
    )


def _load_discretizer(payload: dict) -> Discretizer:
    kind = payload.get("kind")
    if kind == "linear":
        return LinearDiscretizer(
            payload["low"], payload["high"], int(payload["size"]), clip=payload["clip"]
        )
    if kind == "circular":
        return CircularDiscretizer(
            int(payload["size"]), low=payload["low"], period=payload["period"]
        )
    raise ModelFormatError(f"unknown discretizer kind {kind!r} in manifest")


def _save_embedding(emb: Embedding, arrays: dict, prefix: str) -> dict[str, Any]:
    return {
        "discretizer": _save_discretizer(emb.discretizer),
        "basis": _save_basis(emb.basis, arrays, prefix + "basis/"),
    }


def _load_embedding(payload: dict, arrays: dict, prefix: str) -> Embedding:
    basis = _load_basis(payload["basis"], arrays, prefix + "basis/")
    return Embedding(basis, _load_discretizer(payload["discretizer"]))


# -- item memory --------------------------------------------------------------

def _save_item_memory(mem: ItemMemory, arrays: dict, prefix: str) -> dict[str, Any]:
    keys = mem.keys()
    if keys:
        arrays[prefix + "rows"] = np.stack(
            [mem.get_packed(k).data for k in keys], axis=0
        )
    return {"dim": mem.dim, "keys": [_encode_label(k) for k in keys]}


def _load_item_memory(payload: dict, arrays: dict, prefix: str) -> ItemMemory:
    mem = ItemMemory(int(payload["dim"]))
    keys = [_decode_label(node) for node in payload.get("keys", [])]
    if keys:
        rows = _get_packed(arrays, prefix + "rows", mem.dim).data
        if rows.shape[0] != len(keys):
            raise ModelFormatError(
                f"item memory has {rows.shape[0]} rows for {len(keys)} keys"
            )
        for key, row in zip(keys, rows):
            mem.add(key, PackedHV(row, mem.dim))
    return mem


# -- bundle accumulator -------------------------------------------------------

def _save_accumulator(acc: BundleAccumulator, arrays: dict, prefix: str) -> dict[str, Any]:
    arrays[prefix + "counts"] = np.asarray(acc.counts, dtype=np.int64)
    return {"dim": acc.dim, "total": acc.total}


def _restore_accumulator(dim: int, counts: np.ndarray, total: int) -> BundleAccumulator:
    """The one place accumulator state is rebuilt from raw arrays."""
    acc = BundleAccumulator(dim)
    counts = np.asarray(counts)
    if counts.shape != (acc.dim,):
        raise ModelFormatError(
            f"accumulator counts have shape {counts.shape}, expected ({acc.dim},)"
        )
    return acc.add_counts(counts, total)


def _load_accumulator(payload: dict, arrays: dict, prefix: str) -> BundleAccumulator:
    return _restore_accumulator(
        int(payload["dim"]), _get_array(arrays, prefix + "counts"), payload["total"]
    )


# -- centroid classifier ------------------------------------------------------

def _save_classifier(
    clf: CentroidClassifier, arrays: dict, prefix: str
) -> dict[str, Any]:
    classes = clf.classes
    if classes:
        # Freeze the prototypes now: materialisation consumes the
        # tie-break RNG, so doing it before the state snapshot makes the
        # reloaded model (prototypes + post-draw RNG) bit-identical to
        # the in-memory one for every future call.
        clf.prepare()
        arrays[prefix + "counts"] = np.stack(
            [clf._accumulators[c].counts for c in classes], axis=0
        )
        arrays[prefix + "totals"] = np.asarray(
            [clf._accumulators[c].total for c in classes], dtype=np.int64
        )
        arrays[prefix + "prototypes"] = clf._packed_table.data
    return {
        "dim": clf.dim,
        "tie_break": clf._tie_break,
        "rng_state": _rng_state(clf._rng),
        "classes": [_encode_label(c) for c in classes],
    }


def _load_classifier(payload: dict, arrays: dict, prefix: str) -> CentroidClassifier:
    clf = CentroidClassifier(int(payload["dim"]), tie_break=payload["tie_break"])
    clf._rng = _restore_rng(payload["rng_state"])
    classes = [_decode_label(node) for node in payload.get("classes", [])]
    if classes:
        counts = _get_array(arrays, prefix + "counts")
        totals = _get_array(arrays, prefix + "totals")
        table = _get_packed(arrays, prefix + "prototypes", clf.dim)
        if counts.shape != (len(classes), clf.dim) or totals.shape != (len(classes),):
            raise ModelFormatError(
                f"classifier state shapes {counts.shape}/{totals.shape} do not "
                f"match {len(classes)} classes at dim {clf.dim}"
            )
        for row, (label, total) in enumerate(zip(classes, totals)):
            clf._accumulators[label] = _restore_accumulator(
                clf.dim, counts[row], total
            )
        if table.data.shape[0] != len(classes):
            raise ModelFormatError(
                f"classifier prototypes table has {table.data.shape[0]} rows "
                f"for {len(classes)} classes"
            )
        clf._packed_table = table
        clf._class_order = list(classes)
    return clf


# -- HD regressor -------------------------------------------------------------

def _save_regressor(model: HDRegressor, arrays: dict, prefix: str) -> dict[str, Any]:
    if model.model_mode == "binary":
        model.prepare()  # freeze the binary model before snapshotting the RNG
    materialised = model._packed_model is not None
    if materialised:
        arrays[prefix + "model"] = model._packed_model.data
    arrays[prefix + "counts"] = np.asarray(model._bundle.counts, dtype=np.int64)
    return {
        "dim": model.dim,
        "decode": model.decode_mode,
        "model_mode": model.model_mode,
        "tie_break": model._tie_break,
        "rng_state": _rng_state(model._rng),
        "total": model._bundle.total,
        "materialised": materialised,
        "label_embedding": _save_embedding(
            model.label_embedding, arrays, prefix + "label_embedding/"
        ),
    }


def _load_regressor(payload: dict, arrays: dict, prefix: str) -> HDRegressor:
    embedding = _load_embedding(
        payload["label_embedding"], arrays, prefix + "label_embedding/"
    )
    model = HDRegressor(
        embedding,
        tie_break=payload["tie_break"],
        decode=payload["decode"],
        model=payload["model_mode"],
    )
    model._rng = _restore_rng(payload["rng_state"])
    model._bundle = _restore_accumulator(
        model.dim, _get_array(arrays, prefix + "counts"), payload["total"]
    )
    if payload.get("materialised"):
        packed = _get_packed(arrays, prefix + "model", model.dim)
        model._packed_model = packed
        model._model = packed.unpack()
    return model


# -- trained pipeline ---------------------------------------------------------

def _save_pipeline(pipe: TrainedPipeline, arrays: dict, prefix: str) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "kind": pipe.kind,
        "tie_break": pipe.tie_break,
        "num_features": pipe.num_features,
        "metadata": dict(pipe.metadata),
        "embedding": _save_embedding(pipe.embedding, arrays, prefix + "embedding/"),
        "model": _save_object(pipe.model, arrays, prefix + "model/"),
        "has_keys": pipe.keys is not None,
    }
    if pipe.keys is not None:
        arrays[prefix + "keys"] = _pack_table(pipe.keys)
    return payload


def _load_pipeline(payload: dict, arrays: dict, prefix: str) -> TrainedPipeline:
    embedding = _load_embedding(payload["embedding"], arrays, prefix + "embedding/")
    model = _load_object(payload["model"], arrays, prefix + "model/")
    keys = None
    if payload.get("has_keys"):
        keys = _unpack_table(_get_array(arrays, prefix + "keys"), embedding.dim)
    return TrainedPipeline(
        kind=payload["kind"],
        model=model,
        embedding=embedding,
        keys=keys,
        tie_break=payload["tie_break"],
        metadata=dict(payload.get("metadata", {})),
    )


# -- registry / container -----------------------------------------------------

_SAVERS = {
    CentroidClassifier: ("centroid_classifier", _save_classifier),
    HDRegressor: ("hd_regressor", _save_regressor),
    ItemMemory: ("item_memory", _save_item_memory),
    BundleAccumulator: ("bundle_accumulator", _save_accumulator),
    Embedding: ("embedding", _save_embedding),
    TrainedPipeline: ("pipeline", _save_pipeline),
}

_LOADERS = {
    "centroid_classifier": _load_classifier,
    "hd_regressor": _load_regressor,
    "item_memory": _load_item_memory,
    "bundle_accumulator": _load_accumulator,
    "embedding": _load_embedding,
    "pipeline": _load_pipeline,
    "basis": _load_basis,
}


def _save_object(obj: Any, arrays: dict, prefix: str) -> dict[str, Any]:
    """Serialize any supported object to ``{"type", "payload"}``."""
    if isinstance(obj, BasisSet):
        return {"type": "basis", "payload": _save_basis(obj, arrays, prefix)}
    entry = _SAVERS.get(type(obj))
    if entry is None:
        raise ModelFormatError(
            f"no serializer registered for {type(obj).__name__}; supported: "
            f"{sorted(c.__name__ for c in _SAVERS)} and BasisSet subclasses"
        )
    type_name, saver = entry
    return {"type": type_name, "payload": saver(obj, arrays, prefix)}


def _load_object(node: dict[str, Any], arrays: dict, prefix: str) -> Any:
    loader = _LOADERS.get(node.get("type"))
    if loader is None:
        raise ModelFormatError(f"unknown model type {node.get('type')!r} in manifest")
    return loader(node["payload"], arrays, prefix)


def save_model(
    model: Any, path: str | os.PathLike, *, cursor: dict[str, Any] | None = None
) -> Path:
    """Persist a supported model object to ``path`` (npz container).

    The write is atomic: the container is assembled in a temporary
    sibling file and moved into place with ``os.replace``, so a crash
    can never leave a half-written model where a good one used to be.
    Classifiers and binary-model regressors are materialised
    (:meth:`prepare`) as part of saving, so the frozen prototypes land
    in the file and the reloaded model predicts bit-identically.

    ``cursor`` (optional) is a JSON-serialisable dict recorded verbatim
    as the manifest's top-level ``cursor`` entry — the streaming/cluster
    subsystems store their chunk replay position there so an interrupted
    ``train --stream`` resumes from the checkpoint
    (:func:`load_checkpoint`; format in ``docs/DISTRIBUTED.md``).
    :func:`load_model` ignores it, so a cursor-bearing checkpoint is a
    perfectly ordinary model file.

    Returns the path written.

    Example
    -------
    >>> import numpy as np, tempfile, os
    >>> from repro.hdc import ItemMemory
    >>> from repro.serve import save_model, load_model
    >>> mem = ItemMemory(dim=16)
    >>> mem.add("sensor-a", np.zeros(16, dtype=np.uint8))
    >>> path = os.path.join(tempfile.mkdtemp(), "memory.npz")
    >>> _ = save_model(mem, path)
    >>> load_model(path).keys()
    ['sensor-a']
    """
    arrays: dict[str, np.ndarray] = {}
    node = _save_object(model, arrays, "")
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "minor": FORMAT_MINOR,
        "type": node["type"],
        "payload": node["payload"],
    }
    if cursor is not None:
        try:
            manifest["cursor"] = json.loads(json.dumps(cursor))
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(
                f"checkpoint cursor is not JSON-serialisable: {exc}"
            ) from exc
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    arrays[MANIFEST_KEY] = np.frombuffer(blob, dtype=np.uint8)

    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent or ".", suffix=".npz.tmp")
    try:
        # mkstemp creates 0600 files; give the model the permissions a
        # plain open() would, so another service account can load it.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as handle:
            buffer = io.BytesIO()
            np.savez(buffer, **arrays)
            handle.write(buffer.getvalue())
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return target


def _read_container(path: str | os.PathLike) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    try:
        # np.load given a path leaks its handle when the zip is unreadable.
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise ModelFormatError(f"cannot read model container {path}: {exc}") from exc
    if MANIFEST_KEY not in arrays:
        raise ModelFormatError(f"{path} has no {MANIFEST_KEY} entry; not a model file")
    try:
        manifest = json.loads(bytes(arrays.pop(MANIFEST_KEY)).decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ModelFormatError(f"{path} has a malformed manifest: {exc}") from exc
    if manifest.get("format") != FORMAT_NAME:
        raise ModelFormatError(
            f"{path} declares format {manifest.get('format')!r}, expected {FORMAT_NAME!r}"
        )
    try:
        version = int(manifest.get("version", -1))
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(
            f"{path} has a malformed version field: {manifest.get('version')!r}"
        ) from exc
    if version > FORMAT_VERSION:
        raise ModelFormatError(
            f"{path} is format version {manifest.get('version')}; this library "
            f"reads up to version {FORMAT_VERSION} — upgrade repro-hdc to load it"
        )
    return manifest, arrays


def _load(path: str | os.PathLike) -> tuple[Any, dict[str, Any]]:
    """The object a container holds, and the manifest it came with."""
    manifest, arrays = _read_container(path)
    try:
        model = _load_object(
            {"type": manifest.get("type"), "payload": manifest.get("payload")},
            arrays,
            "",
        )
    except ModelFormatError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        # Any structural surprise inside the typed loaders (missing
        # payload fields, wrong value types) is a malformed file, not a
        # caller bug — keep the documented error contract.
        raise ModelFormatError(f"{path} has a malformed manifest: {exc!r}") from exc
    return model, manifest


def load_model(path: str | os.PathLike) -> Any:
    """Reconstruct a model object saved by :func:`save_model`.

    The returned object is bit-identical to the one that was saved:
    hypervector tables, integer accumulators and the tie-break RNG state
    all round-trip exactly, so predictions (and future stochastic tie
    draws) match the original in-memory model.

    Raises :class:`~repro.exceptions.ModelFormatError` for unreadable
    containers, malformed manifests or versions newer than this library.

    Example
    -------
    >>> import numpy as np, tempfile, os
    >>> from repro.basis import LevelBasis
    >>> basis = LevelBasis(4, 32, seed=2)
    >>> path = os.path.join(tempfile.mkdtemp(), "levels.npz")
    >>> _ = save_model(basis, path)
    >>> bool(np.array_equal(load_model(path).vectors, basis.vectors))
    True
    """
    return _load(path)[0]


def load_checkpoint(path: str | os.PathLike) -> tuple[Any, dict[str, Any] | None]:
    """Load a model *and* its resume cursor from a checkpoint file.

    Returns ``(model, cursor)`` where ``cursor`` is the manifest's
    ``cursor`` entry (``None`` for plain model files saved without one).
    The model object is exactly what :func:`load_model` would return;
    the cursor is what ``train --stream --resume`` and the ingest
    cluster's failover path feed back into
    :func:`repro.streaming.train.train_pipeline_stream` to replay only
    the chunks the checkpoint has not absorbed yet.

    Raises :class:`~repro.exceptions.ModelFormatError` (naming the file)
    for unreadable or corrupt containers — callers recovering a crashed
    run should treat that as "fall back to the previous intact
    checkpoint", which the atomic tmp + ``os.replace`` write protocol
    guarantees is the file actually sitting at ``path``.

    Example
    -------
    >>> import tempfile, os
    >>> from repro.hdc import BundleAccumulator
    >>> path = os.path.join(tempfile.mkdtemp(), "ckpt.npz")
    >>> _ = save_model(BundleAccumulator(8), path, cursor={"chunks": 3})
    >>> model, cursor = load_checkpoint(path)
    >>> (model.dim, cursor["chunks"])
    (8, 3)
    """
    model, manifest = _load(path)
    cursor = manifest.get("cursor")
    if cursor is not None and not isinstance(cursor, dict):
        raise ModelFormatError(
            f"{path} has a malformed cursor entry: expected an object, "
            f"got {type(cursor).__name__}"
        )
    return model, cursor


def describe_model(path: str | os.PathLike) -> dict[str, Any]:
    """Return the manifest of a saved model without reconstructing it.

    Useful for quick inspection (model kind, dimensionality, classes)
    and for the ``serve`` CLI's startup banner.

    Example
    -------
    >>> import tempfile, os
    >>> from repro.basis import RandomBasis
    >>> from repro.serve import save_model, describe_model
    >>> path = os.path.join(tempfile.mkdtemp(), "b.npz")
    >>> _ = save_model(RandomBasis(4, 32, seed=0), path)
    >>> info = describe_model(path)
    >>> info["type"], info["payload"]["dim"]
    ('basis', 32)
    """
    manifest, _ = _read_container(path)
    return manifest
