"""Round-trip property tests for the model-persistence layer.

The contract under test: ``load_model(save_model(x))`` reproduces ``x``
bit for bit — hypervector tables, integer accumulators, RNG state —
for every supported object, whether the model was trained from packed
or unpacked inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.basis import (
    CircularBasis,
    LegacyLevelBasis,
    LevelBasis,
    RandomBasis,
    ScatterBasis,
    make_basis,
)
from repro.exceptions import ModelFormatError
from repro.hdc import BundleAccumulator, ItemMemory, PackedHV
from repro.learning import CentroidClassifier, HDRegressor
from repro.serve import InferenceEngine, describe_model, load_model, save_model
from repro.serve.persist import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_KEY,
    _read_container,
)

DIM = 96


def _roundtrip(obj, tmp_path, name="model.npz"):
    path = tmp_path / name
    assert save_model(obj, path) == path
    return load_model(path)


def _one_row_memory(dim):
    mem = ItemMemory(dim=dim)
    mem.add("a", np.ones(dim, dtype=np.uint8))
    return mem


# -- basis sets ---------------------------------------------------------------

BASIS_CASES = [
    pytest.param(lambda: RandomBasis(6, DIM, seed=1), id="random"),
    pytest.param(lambda: LevelBasis(7, DIM, seed=2), id="level"),
    pytest.param(lambda: LevelBasis(7, DIM, r=0.25, seed=3), id="level-r"),
    pytest.param(lambda: LevelBasis(7, DIM, profile="sqrt", seed=4), id="level-profile"),
    pytest.param(lambda: LegacyLevelBasis(6, DIM, seed=5), id="level-legacy"),
    pytest.param(lambda: CircularBasis(8, DIM, seed=6), id="circular-even"),
    pytest.param(lambda: CircularBasis(9, DIM, r=0.1, seed=7), id="circular-odd-r"),
    pytest.param(lambda: ScatterBasis(6, DIM, seed=8), id="scatter"),
    pytest.param(lambda: ScatterBasis(6, DIM, flips="absorption", seed=9),
                 id="scatter-absorption"),
]


class TestBasisRoundTrip:
    @pytest.mark.parametrize("make", BASIS_CASES)
    def test_vectors_bit_identical(self, make, tmp_path):
        basis = make()
        restored = _roundtrip(basis, tmp_path)
        assert type(restored) is type(basis)
        assert np.array_equal(restored.vectors, basis.vectors)
        assert np.array_equal(restored.packed.data, basis.packed.data)

    @pytest.mark.parametrize("dim", [DIM, 101])
    @pytest.mark.parametrize("kind", ["random", "level", "level-legacy", "circular", "scatter"])
    def test_unpacked_views_and_distances_bit_identical(self, kind, dim, tmp_path):
        """Views unpacked on demand agree, fresh and reloaded, with the table's bits."""
        basis = make_basis(kind, 7, dim, seed=11)
        restored = _roundtrip(basis, tmp_path)
        bits = basis.vectors
        assert bits.dtype == np.uint8 and bits.shape == (7, dim)
        reference = np.not_equal(bits[:, None, :], bits[None, :, :]).mean(axis=-1)
        for table in (basis, restored):
            assert np.array_equal(table.vectors, bits)
            for index in (0, 6, -1, -7, slice(1, None, 2), np.array([6, 0, 2]), [1, 1]):
                row = table[index]
                assert row.dtype == np.uint8 and np.array_equal(row, bits[index])
            for i, j in ((0, 1), (0, 6), (-1, 2), (3, 3)):
                assert table.distance(i, j) == float(np.not_equal(bits[i], bits[j]).mean())
            assert np.array_equal(table.distance_matrix(), reference)

    @pytest.mark.parametrize("make", BASIS_CASES)
    def test_expected_distances_preserved(self, make, tmp_path):
        basis = make()
        restored = _roundtrip(basis, tmp_path)
        assert np.allclose(
            restored.expected_distance_matrix(), basis.expected_distance_matrix()
        )

    def test_embedding_round_trip_linear(self, tmp_path):
        emb = LevelBasis(16, DIM, seed=0).linear_embedding(-5.0, 5.0)
        restored = _roundtrip(emb, tmp_path)
        values = np.linspace(-6.0, 6.0, 40)  # includes clipped tails
        assert np.array_equal(restored.encode(values), emb.encode(values))
        assert np.array_equal(
            restored.encode_packed(values).data, emb.encode_packed(values).data
        )

    def test_embedding_round_trip_circular(self, tmp_path):
        emb = CircularBasis(24, DIM, seed=1).circular_embedding(period=24.0)
        restored = _roundtrip(emb, tmp_path)
        values = np.linspace(-30.0, 30.0, 33)  # wraps several periods
        assert np.array_equal(restored.encode(values), emb.encode(values))
        assert restored.decode(emb.encode(13.0)) == emb.decode(emb.encode(13.0))


# -- item memory --------------------------------------------------------------

class TestItemMemoryRoundTrip:
    def test_keys_rows_and_queries(self, tmp_path):
        rng = np.random.default_rng(0)
        mem = ItemMemory(dim=DIM)
        for key in ("alpha", 7, 2.5, True):
            mem.add(key, rng.integers(0, 2, DIM).astype(np.uint8))
        restored = _roundtrip(mem, tmp_path)
        assert restored.keys() == mem.keys()
        queries = rng.integers(0, 2, (10, DIM)).astype(np.uint8)
        assert np.array_equal(restored.distances(queries), mem.distances(queries))
        assert restored.query_batch(queries) == mem.query_batch(queries)
        for key in mem.keys():
            assert np.array_equal(restored.get(key), mem.get(key))

    def test_empty_memory(self, tmp_path):
        restored = _roundtrip(ItemMemory(dim=DIM), tmp_path)
        assert len(restored) == 0 and restored.dim == DIM

    @pytest.mark.parametrize(
        "bitgen", ["PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"]
    )
    def test_every_allowlisted_bit_generator_round_trips(self, bitgen, tmp_path):
        """MT19937/Philox/SFC64 states hold ndarrays; they must still
        persist (sanitised to lists) and restore to the identical stream."""
        rng = np.random.Generator(getattr(np.random, bitgen)(0))
        x = np.eye(8, dtype=np.uint8)
        clf = CentroidClassifier(dim=8, tie_break="random", seed=rng).fit(
            x, [0, 1] * 4
        )
        restored = _roundtrip(clf, tmp_path)
        # the restored RNG must continue the exact stream: retrain both
        clf.refine(x, [0, 1] * 4, epochs=1)
        restored.refine(x, [0, 1] * 4, epochs=1)
        assert restored.predict(x) == clf.predict(x)

    def test_unserialisable_key_rejected(self, tmp_path):
        mem = ItemMemory(dim=DIM)
        mem.add(("tuple", "key"), np.zeros(DIM, dtype=np.uint8))
        with pytest.raises(ModelFormatError, match="label/key"):
            save_model(mem, tmp_path / "bad.npz")


# -- bundle accumulator -------------------------------------------------------

class TestAccumulatorRoundTrip:
    def test_counts_and_total(self, tmp_path):
        rng = np.random.default_rng(1)
        acc = BundleAccumulator(DIM)
        acc.add(rng.integers(0, 2, (9, DIM)).astype(np.uint8))
        acc.subtract(rng.integers(0, 2, (2, DIM)).astype(np.uint8))
        restored = _roundtrip(acc, tmp_path)
        assert np.array_equal(restored.counts, acc.counts)
        assert restored.total == acc.total
        assert np.array_equal(restored.signed, acc.signed)


# -- classifier ---------------------------------------------------------------

def _training_data(rng, n=48, classes=3):
    x = rng.integers(0, 2, (n, DIM)).astype(np.uint8)
    y = [int(i) for i in np.arange(n) % classes]
    return x, y


class TestClassifierRoundTrip:
    @pytest.mark.parametrize("packed", [False, True], ids=["unpacked", "packed"])
    @pytest.mark.parametrize("tie_break", ["random", "zeros"])
    def test_predictions_bit_identical(self, packed, tie_break, tmp_path):
        rng = np.random.default_rng(2)
        x, y = _training_data(rng)
        batch = PackedHV.pack(x) if packed else x
        clf = CentroidClassifier(dim=DIM, tie_break=tie_break, seed=11).fit(batch, y)
        restored = _roundtrip(clf, tmp_path)
        queries = rng.integers(0, 2, (20, DIM)).astype(np.uint8)
        q = PackedHV.pack(queries) if packed else queries
        assert restored.predict(q) == clf.predict(q)
        d_restored, order_restored = restored.decision_distances(q)
        d_orig, order_orig = clf.decision_distances(q)
        assert order_restored == order_orig
        assert np.array_equal(d_restored, d_orig)

    def test_class_vectors_and_labels_preserved(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, (12, DIM)).astype(np.uint8)
        labels = ["lo", "lo", "hi", "hi", "lo", "hi"] * 2
        clf = CentroidClassifier(dim=DIM, seed=0).fit(x, labels)
        restored = _roundtrip(clf, tmp_path)
        assert restored.classes == clf.classes
        for label in clf.classes:
            assert np.array_equal(restored.class_vector(label), clf.class_vector(label))

    def test_continued_training_matches(self, tmp_path):
        """The restored RNG state makes future training/refinement identical."""
        rng = np.random.default_rng(4)
        x, y = _training_data(rng)
        clf = CentroidClassifier(dim=DIM, tie_break="random", seed=5).fit(x, y)
        restored = _roundtrip(clf, tmp_path)
        x2, y2 = _training_data(rng, n=24)
        clf.fit(x2, y2)
        restored.fit(x2, y2)
        clf.refine(x, y, epochs=1)
        restored.refine(x, y, epochs=1)
        queries = rng.integers(0, 2, (15, DIM)).astype(np.uint8)
        assert restored.predict(queries) == clf.predict(queries)

    def test_untrained_classifier_round_trips(self, tmp_path):
        restored = _roundtrip(CentroidClassifier(dim=DIM, seed=1), tmp_path)
        assert restored.classes == [] and restored.dim == DIM


# -- regressor ----------------------------------------------------------------

class TestRegressorRoundTrip:
    @pytest.mark.parametrize("packed", [False, True], ids=["unpacked", "packed"])
    @pytest.mark.parametrize("model_mode", ["binary", "integer"])
    @pytest.mark.parametrize("decode", ["argmin", "weighted"])
    def test_predictions_bit_identical(self, packed, model_mode, decode, tmp_path):
        emb = LevelBasis(16, DIM, seed=0).linear_embedding(0.0, 1.0)
        y = np.linspace(0.0, 1.0, 30)
        encoded = emb.encode_packed(y) if packed else emb.encode(y)
        model = HDRegressor(emb, seed=6, decode=decode, model=model_mode).fit(encoded, y)
        restored = _roundtrip(model, tmp_path)
        assert np.array_equal(restored.predict(encoded), model.predict(encoded))
        assert restored.num_samples == model.num_samples

    def test_model_bits_preserved(self, tmp_path):
        emb = CircularBasis(12, DIM, seed=1).circular_embedding(period=12.0)
        y = np.arange(12.0)
        model = HDRegressor(emb, seed=7).fit(emb.encode_packed(y), y)
        restored = _roundtrip(model, tmp_path)
        assert np.array_equal(restored.model, model.model)
        assert np.array_equal(restored.packed_model.data, model.packed_model.data)

    def test_continued_training_matches(self, tmp_path):
        emb = LevelBasis(16, DIM, seed=2).linear_embedding(0.0, 1.0)
        y = np.linspace(0.0, 1.0, 20)
        model = HDRegressor(emb, seed=8).fit(emb.encode(y), y)
        restored = _roundtrip(model, tmp_path)
        more = np.linspace(0.2, 0.8, 10)
        model.fit(emb.encode(more), more)
        restored.fit(emb.encode(more), more)
        probe = emb.encode(np.linspace(0.0, 1.0, 15))
        assert np.array_equal(restored.predict(probe), model.predict(probe))


# -- container format ---------------------------------------------------------

class TestContainerFormat:
    def test_describe_without_loading(self, tmp_path):
        path = tmp_path / "b.npz"
        save_model(RandomBasis(4, DIM, seed=0), path)
        manifest = describe_model(path)
        assert manifest["format"] == FORMAT_NAME
        assert manifest["version"] == FORMAT_VERSION
        assert manifest["type"] == "basis"
        assert manifest["payload"]["dim"] == DIM

    def test_not_a_zip(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a model")
        with pytest.raises(ModelFormatError, match="cannot read"):
            load_model(path)

    def test_missing_manifest(self, tmp_path):
        path = tmp_path / "bare.npz"
        np.savez(path, data=np.zeros(4))
        with pytest.raises(ModelFormatError, match=MANIFEST_KEY.strip("_") or "manifest"):
            load_model(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.npz"
        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION + 1,
            "type": "basis",
            "payload": {},
        }
        blob = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        np.savez(path, **{MANIFEST_KEY: blob})
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_structurally_broken_manifest_wrapped(self, tmp_path):
        """Missing type/payload or wrong field types must surface as
        ModelFormatError, never a bare KeyError/ValueError."""
        path = tmp_path / "broken.npz"
        for manifest in (
            {"format": FORMAT_NAME, "version": 1},  # no type/payload
            {"format": FORMAT_NAME, "version": 1, "type": "basis", "payload": {}},
            {"format": FORMAT_NAME, "version": "x", "type": "basis", "payload": {}},
        ):
            blob = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
            np.savez(path, **{MANIFEST_KEY: blob})
            with pytest.raises(ModelFormatError):
                load_model(path)

    def test_saved_file_honours_umask(self, tmp_path):
        """Models must be readable per the umask, not mkstemp's 0600."""
        import os

        path = tmp_path / "perm.npz"
        old_umask = os.umask(0o022)
        try:
            save_model(RandomBasis(4, DIM, seed=0), path)
        finally:
            os.umask(old_umask)
        assert (path.stat().st_mode & 0o777) == 0o644

    def test_wrong_format_name_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        blob = np.frombuffer(
            json.dumps({"format": "something-else", "version": 1}).encode(),
            dtype=np.uint8,
        )
        np.savez(path, **{MANIFEST_KEY: blob})
        with pytest.raises(ModelFormatError, match="format"):
            load_model(path)

    def test_malformed_rng_state_rejected(self, tmp_path):
        """Crafted bit_generator names must fail the ModelFormatError
        contract, not call arbitrary np.random attributes."""
        path = tmp_path / "clf.npz"
        x = np.eye(4, dtype=np.uint8)
        save_model(CentroidClassifier(dim=4, seed=0).fit(x, [0, 0, 1, 1]), path)
        manifest, arrays = _read_container(path)
        for bad_name in ("default_rng", "seed", "Generator", "nope"):
            manifest["payload"]["rng_state"]["bit_generator"] = bad_name
            blob = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
            np.savez(path, **{MANIFEST_KEY: blob, **arrays})
            with pytest.raises(ModelFormatError, match="bit generator"):
                load_model(path)
        # a valid name with a corrupt state payload is also wrapped
        manifest["payload"]["rng_state"] = {"bit_generator": "PCG64", "state": "junk"}
        blob = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        np.savez(path, **{MANIFEST_KEY: blob, **arrays})
        with pytest.raises(ModelFormatError, match="RNG state"):
            load_model(path)

    def test_unsupported_object_rejected(self, tmp_path):
        with pytest.raises(ModelFormatError, match="no serializer"):
            save_model(object(), tmp_path / "x.npz")

    def test_truncated_prototypes_rejected(self, tmp_path):
        """A container whose prototype table lost rows must fail loudly,
        not silently predict wrong labels."""
        path = tmp_path / "clf.npz"
        x = np.eye(8, dtype=np.uint8)
        save_model(CentroidClassifier(dim=8, seed=0).fit(x, [0, 1] * 4), path)
        manifest, arrays = _read_container(path)
        arrays["prototypes"] = arrays["prototypes"][:1]
        blob = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        np.savez(path, **{MANIFEST_KEY: blob, **arrays})
        with pytest.raises(ModelFormatError, match="prototypes"):
            load_model(path)

    def test_set_pad_bits_in_basis_vectors_rejected(self, tmp_path):
        """Every XOR scan counts the padding bits, so a file with one set
        pad bit would load and answer with distances off by that bit."""
        path = tmp_path / "basis.npz"
        save_model(CircularBasis(size=8, dim=1001, seed=5), path)
        manifest, arrays = _read_container(path)
        arrays["vectors"][0, -1] |= 0x7F  # d=1001 keeps 1 bit of the last byte
        blob = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        np.savez(path, **{MANIFEST_KEY: blob, **arrays})
        with pytest.raises(ModelFormatError, match="'vectors'.*padding"):
            load_model(path)

    #: One saved object per loader that reads a packed table, with the
    #: array that loader checks.
    PACKED_TABLES = [
        pytest.param(lambda: CircularBasis(8, 1001, seed=5), "vectors", id="basis"),
        pytest.param(
            lambda: _one_row_memory(1001), "rows", id="item-memory"
        ),
        pytest.param(
            lambda: CentroidClassifier(dim=1001, seed=0).fit(
                np.eye(4, 1001, dtype=np.uint8), [0, 0, 1, 1]
            ),
            "prototypes", id="classifier",
        ),
        pytest.param(
            lambda: HDRegressor(
                LevelBasis(4, 1001, seed=0).linear_embedding(0.0, 1.0), seed=0
            ).fit(np.eye(4, 1001, dtype=np.uint8), [0.0, 0.3, 0.6, 1.0]),
            "model", id="regressor",
        ),
    ]

    def _corrupt(self, make, name, tmp_path, edit):
        path = tmp_path / "model.npz"
        save_model(make(), path)
        manifest, arrays = _read_container(path)
        arrays[name] = edit(arrays[name])
        blob = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        np.savez(path, **{MANIFEST_KEY: blob, **arrays})
        return path

    @pytest.mark.parametrize("make, name", PACKED_TABLES)
    def test_every_packed_table_checks_its_padding(self, make, name, tmp_path):
        def set_pad_bit(data):
            data = data.copy()
            data[..., -1] |= 0x01
            return data

        path = self._corrupt(make, name, tmp_path, set_pad_bit)
        with pytest.raises(ModelFormatError, match=f"'{name}'.*padding"):
            load_model(path)

    @pytest.mark.parametrize("make, name", PACKED_TABLES)
    @pytest.mark.parametrize(
        "edit",
        [lambda d: d.astype(np.int16), lambda d: d[..., :-1]],
        ids=["dtype", "width"],
    )
    def test_every_packed_table_checks_dtype_and_width(
        self, make, name, edit, tmp_path
    ):
        path = self._corrupt(make, name, tmp_path, edit)
        with pytest.raises(ModelFormatError, match=f"'{name}'.*uint8 rows"):
            load_model(path)

    @pytest.mark.parametrize("make, name", PACKED_TABLES)
    def test_clean_packed_tables_still_load(self, make, name, tmp_path):
        path = self._corrupt(make, name, tmp_path, lambda d: d)
        load_model(path)

    def test_atomic_overwrite(self, tmp_path):
        """Saving over an existing model replaces it completely."""
        path = tmp_path / "model.npz"
        save_model(RandomBasis(4, DIM, seed=0), path)
        save_model(RandomBasis(9, DIM, seed=1), path)
        assert len(load_model(path)) == 9
        assert list(tmp_path.glob("*.tmp")) == []


# -- format version 1 ---------------------------------------------------------

#: Pipelines saved by the format-1 writer: a d=128 Suturing classifier
#: with the serve-time "zeros" policy, and a 4-channel pipeline encoding
#: requests with "random" ties under a seed.
DATA = Path(__file__).parent / "data"

#: What the format-1 library answered for ``V1_ROWS`` with the "zeros"
#: file, through both ``predict_coalesced`` and ``predict_one``.
V1_ANSWERS = [2, 10, 7, 7, 5, 0, 13, 2, 2, 0, 14, 2, 12, 10, 7, 4]
V1_ROWS = np.random.default_rng(2024).uniform(0.0, 2.0 * np.pi, (16, 18))


class TestFormatVersion1:
    def test_v1_zeros_pipeline_serves_the_same_answers(self, tmp_path):
        path = DATA / "v1_zeros_pipeline.npz"
        assert describe_model(path)["version"] == 1
        pipeline = load_model(path)
        assert pipeline.tie_break == "zeros"
        with InferenceEngine(pipeline) as engine:
            assert engine.predict_coalesced(V1_ROWS) == V1_ANSWERS
            assert [engine.predict_one(r) for r in V1_ROWS] == V1_ANSWERS
        # Re-saved, it is a current-version file with no seed field.
        resaved = tmp_path / "v2.npz"
        save_model(pipeline, resaved)
        manifest = describe_model(resaved)
        assert manifest["version"] == FORMAT_VERSION == 2
        assert set(manifest["payload"]) == set(describe_model(path)["payload"]) - {
            "encode_" + "seed"
        }

    def test_v1_random_tie_pipeline_is_refused(self):
        path = DATA / "v1_random_pipeline.npz"
        assert describe_model(path)["payload"]["tie_break"] == "random"
        with pytest.raises(ModelFormatError, match="'random'"):
            load_model(path)
