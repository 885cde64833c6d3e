"""CRDT merge laws: the algebra the distributed tier stands on.

Bundle accumulators are integer count vectors and model deltas are
(dicts of) accumulators, so merging is elementwise addition — a
state-based CRDT.  Both models expose the same delta protocol —
``shard`` (pure per-chunk statistics) and ``absorb`` (their merge) —
and every consumer (``partial_fit``, which is ``absorb(shard(...))``,
:class:`~repro.serve.OnlineLearner` and the ingest cluster) runs
through it.  These property tests pin the laws it relies on:
commutativity, associativity, and shard-merge == monolithic, across
packed/unpacked representations and every basis family.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import make_basis
from repro.hdc.packed import BundleAccumulator, PackedHV
from repro.learning import CentroidClassifier, HDRegressor
from repro.exceptions import DimensionMismatchError, InvalidParameterError
from repro.serve import save_model

from tests.cluster.harness import model_fingerprint

DIM = 160  # not a multiple of 64: exercises the packed tail lanes


def encoded_rows(basis_kind: str, n: int, packed: bool, seed: int):
    """Encode ``n`` values through a given basis family."""
    basis = make_basis(
        basis_kind, 12, DIM, r=0.05 if basis_kind == "circular" else 0.0, seed=seed
    )
    emb = basis.linear_embedding(0.0, 1.0) if basis_kind != "circular" \
        else basis.circular_embedding(period=1.0)
    values = np.linspace(0.0, 1.0, n, endpoint=False)
    return emb.encode_packed(values) if packed else emb.encode(values)


def acc_of(rows) -> BundleAccumulator:
    acc = BundleAccumulator(DIM)
    acc.add(rows)
    return acc


BASIS_KINDS = ["random", "level", "circular"]


class TestAccumulatorLaws:
    @pytest.mark.parametrize("basis_kind", BASIS_KINDS)
    @pytest.mark.parametrize("packed", [True, False])
    def test_merge_commutes(self, basis_kind, packed):
        a_rows = encoded_rows(basis_kind, 7, packed, seed=1)
        b_rows = encoded_rows(basis_kind, 11, packed, seed=2)
        ab = acc_of(a_rows).merge(acc_of(b_rows))
        ba = acc_of(b_rows).merge(acc_of(a_rows))
        assert np.array_equal(ab.counts, ba.counts)
        assert ab.total == ba.total

    @pytest.mark.parametrize("basis_kind", BASIS_KINDS)
    @pytest.mark.parametrize("packed", [True, False])
    def test_merge_associates(self, basis_kind, packed):
        rows = [encoded_rows(basis_kind, n, packed, seed=s)
                for n, s in ((3, 1), (5, 2), (8, 3))]
        left = acc_of(rows[0]).merge(acc_of(rows[1])).merge(acc_of(rows[2]))
        right_tail = acc_of(rows[1]).merge(acc_of(rows[2]))
        right = acc_of(rows[0]).merge(right_tail)
        assert np.array_equal(left.counts, right.counts)
        assert left.total == right.total

    @pytest.mark.parametrize("basis_kind", BASIS_KINDS)
    @pytest.mark.parametrize("packed", [True, False])
    def test_disjoint_shards_equal_monolithic(self, basis_kind, packed):
        rows = encoded_rows(basis_kind, 24, packed, seed=4)
        mono = acc_of(rows)
        sharded = BundleAccumulator(DIM)
        for lo, hi in ((0, 5), (5, 6), (6, 17), (17, 24)):
            sharded.merge(acc_of(rows[lo:hi]))
        assert np.array_equal(sharded.counts, mono.counts)
        assert sharded.total == mono.total

    def test_merge_identity_and_inverse(self):
        rows = encoded_rows("random", 9, True, seed=5)
        acc = acc_of(rows)
        before = acc.counts.copy()
        acc.merge(BundleAccumulator(DIM))  # empty accumulator is the identity
        assert np.array_equal(acc.counts, before)
        acc.subtract(rows)  # exact inverse: back to the identity
        assert acc.total == 0 and not acc.counts.any()


class TestModelDeltaLaws:
    """``model.shard`` / ``model.absorb``: one delta protocol, both families."""

    def _classifier_data(self, packed):
        rows = encoded_rows("circular", 20, packed, seed=6)
        labels = [i % 4 for i in range(20)]
        return rows, labels

    @pytest.mark.parametrize("packed", [True, False])
    def test_classifier_shard_merge_equals_monolithic(self, packed):
        rows, labels = self._classifier_data(packed)
        mono = CentroidClassifier(DIM, tie_break="zeros").fit(rows, labels)
        merged = CentroidClassifier(DIM, tie_break="zeros")
        for lo, hi in ((0, 7), (7, 13), (13, 20)):
            merged.absorb(merged.shard(rows[lo:hi], labels[lo:hi]))
        assert merged.classes == mono.classes
        for label in mono.classes:
            assert np.array_equal(
                merged.class_vector(label), mono.class_vector(label)
            )

    @pytest.mark.parametrize("packed", [True, False])
    def test_classifier_counts_commute(self, packed):
        """Per-class counts are order-free (class *order* is the one
        order-sensitive bit, which is why the cluster absorbs in stream
        order — asserted by tests/cluster)."""
        rows, labels = self._classifier_data(packed)
        d1 = CentroidClassifier(DIM).shard(rows[:10], labels[:10])
        d2 = CentroidClassifier(DIM).shard(rows[10:], labels[10:])
        ab = CentroidClassifier(DIM, tie_break="zeros").absorb(d1).absorb(d2)
        ba = CentroidClassifier(DIM, tie_break="zeros").absorb(d2).absorb(d1)
        assert sorted(ab.classes) == sorted(ba.classes)
        for label in ab.classes:
            assert np.array_equal(
                ab._accumulators[label].counts, ba._accumulators[label].counts
            )

    @pytest.mark.parametrize("basis_kind", BASIS_KINDS)
    @pytest.mark.parametrize("packed", [True, False])
    def test_regressor_shard_merge_equals_monolithic(self, basis_kind, packed):
        basis = make_basis("level", 12, DIM, seed=7)
        emb = basis.linear_embedding(0.0, 1.0)
        y = np.linspace(0.0, 1.0, 18)
        encoded = encoded_rows(basis_kind, 18, packed, seed=8)
        mono = HDRegressor(emb, tie_break="zeros").fit(encoded, y)
        merged = HDRegressor(emb, tie_break="zeros")
        for lo, hi in ((0, 4), (4, 11), (11, 18)):
            merged.absorb(merged.shard(encoded[lo:hi], y[lo:hi]))
        assert np.array_equal(merged.model, mono.model)
        assert merged.num_samples == mono.num_samples

    def test_absorb_type_errors(self):
        clf = CentroidClassifier(DIM)
        with pytest.raises(InvalidParameterError, match="classification"):
            clf.absorb(BundleAccumulator(DIM))
        with pytest.raises(InvalidParameterError, match="classification"):
            clf.absorb({0: np.zeros(DIM, dtype=np.int64)})
        basis = make_basis("level", 4, DIM, seed=0)
        reg = HDRegressor(basis.linear_embedding(0.0, 1.0))
        with pytest.raises(InvalidParameterError, match="regression"):
            reg.absorb({})
        with pytest.raises(DimensionMismatchError):
            reg.absorb(BundleAccumulator(DIM + 8))
        assert reg.num_samples == 0 and reg.version == 0

    def test_deltas_are_pure(self):
        """``shard`` never mutates the model it is called on."""
        rows, labels = self._classifier_data(True)
        clf = CentroidClassifier(DIM, tie_break="zeros")
        clf.shard(rows, labels)
        assert clf.classes == [] and clf.num_samples == 0 and clf.version == 0

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: BundleAccumulator(DIM + 8),  # wrong dim
            lambda: np.zeros(DIM, dtype=np.int64),  # not an accumulator
        ],
        ids=["dim", "type"],
    )
    def test_rejected_classifier_delta_is_not_half_applied(self, tmp_path, bad):
        """A delta whose *second* entry is invalid must not touch the
        model: counts, version, the cached prototypes and the saved
        bytes all stay as they were before the call."""
        rows, labels = self._classifier_data(True)
        clf = CentroidClassifier(DIM, tie_break="zeros", seed=0).fit(rows, labels)
        twin = CentroidClassifier(DIM, tie_break="zeros", seed=0).fit(rows, labels)
        before = clf.predict(rows)
        version = clf.version
        good = BundleAccumulator(DIM)
        good.add(rows[:5])
        with pytest.raises((DimensionMismatchError, InvalidParameterError)):
            clf.absorb({0: good, 1: bad()})
        assert clf.version == version
        assert clf.classes == twin.classes
        for label in twin.classes:
            assert np.array_equal(
                clf._accumulators[label].counts, twin._accumulators[label].counts
            )
            assert clf._accumulators[label].total == twin._accumulators[label].total
        assert clf.predict(rows) == before == twin.predict(rows)
        save_model(clf, tmp_path / "clf.npz")
        save_model(twin, tmp_path / "twin.npz")
        assert model_fingerprint(tmp_path / "clf.npz") == model_fingerprint(
            tmp_path / "twin.npz"
        )


class TestLabelNormalisation:
    """Class labels become plain Python values in one place, the model."""

    @pytest.mark.parametrize(
        "labels", [[2, 0, 1, 2, 0, 1], ["b", "a", "c", "b", "a", "c"]],
        ids=["int", "str"],
    )
    def test_ndarray_labels_fit_like_a_list(self, tmp_path, labels):
        rows = encoded_rows("circular", 6, True, seed=9)
        from_list = CentroidClassifier(DIM, tie_break="zeros", seed=0).fit(rows, labels)
        from_array = CentroidClassifier(DIM, tie_break="zeros", seed=0)
        from_array.fit(rows, np.array(labels))
        assert from_array.classes == from_list.classes
        assert [type(c) for c in from_array.classes] == [
            type(c) for c in from_list.classes
        ]
        save_model(from_list, tmp_path / "list.npz")
        save_model(from_array, tmp_path / "array.npz")
        assert model_fingerprint(tmp_path / "list.npz") == model_fingerprint(
            tmp_path / "array.npz"
        )

