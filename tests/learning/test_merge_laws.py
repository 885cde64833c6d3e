"""CRDT merge laws: the algebra the distributed tier stands on.

Bundle accumulators are integer count vectors and model deltas are
(dicts of) accumulators, so merging is elementwise addition — a
state-based CRDT.  These property tests pin the laws every consumer
(``partial_fit``, :class:`~repro.serve.OnlineLearner`, the ingest
cluster) relies on:
commutativity, associativity, and shard-merge == monolithic, across
packed/unpacked representations and every basis family.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.basis import make_basis
from repro.hdc.packed import BundleAccumulator, PackedHV
from repro.learning import CentroidClassifier, HDRegressor, absorb_delta, shard_delta
from repro.exceptions import InvalidParameterError

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
    """shard_delta / absorb_delta: the one merge entry point, both families."""

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
            delta = shard_delta(merged, rows[lo:hi], labels[lo:hi])
            absorb_delta(merged, delta)
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
        d1 = shard_delta(CentroidClassifier(DIM), rows[:10], labels[:10])
        d2 = shard_delta(CentroidClassifier(DIM), rows[10:], labels[10:])
        ab = CentroidClassifier(DIM, tie_break="zeros")
        absorb_delta(ab, d1)
        absorb_delta(ab, d2)
        ba = CentroidClassifier(DIM, tie_break="zeros")
        absorb_delta(ba, d2)
        absorb_delta(ba, d1)
        assert sorted(ab.classes) == sorted(ba.classes)
        for label in ab.classes:
            assert np.array_equal(
                ab._accumulators[label].counts, ba._accumulators[label].counts
            )

    def test_regressor_shard_merge_equals_monolithic(self):
        basis = make_basis("level", 12, DIM, seed=7)
        emb = basis.linear_embedding(0.0, 1.0)
        y = np.linspace(0.0, 1.0, 18)
        encoded = emb.encode_packed(y)
        mono = HDRegressor(emb, tie_break="zeros").fit(encoded, y)
        merged = HDRegressor(emb, tie_break="zeros")
        for lo, hi in ((0, 4), (4, 11), (11, 18)):
            absorb_delta(merged, shard_delta(merged, encoded[lo:hi], y[lo:hi]))
        assert np.array_equal(merged.model, mono.model)
        assert merged.num_samples == mono.num_samples

    def test_absorb_delta_type_errors(self):
        clf = CentroidClassifier(DIM)
        with pytest.raises(InvalidParameterError, match="classification"):
            absorb_delta(clf, BundleAccumulator(DIM))
        basis = make_basis("level", 4, DIM, seed=0)
        reg = HDRegressor(basis.linear_embedding(0.0, 1.0))
        with pytest.raises(InvalidParameterError, match="regression"):
            absorb_delta(reg, {})
        with pytest.raises(InvalidParameterError):
            absorb_delta(object(), BundleAccumulator(DIM))
        with pytest.raises(InvalidParameterError):
            shard_delta(object(), np.zeros((1, DIM), dtype=np.uint8), [0])

    def test_deltas_are_pure(self):
        """shard_delta never mutates the model it dispatches on."""
        rows, labels = self._classifier_data(True)
        clf = CentroidClassifier(DIM, tie_break="zeros")
        shard_delta(clf, rows, labels)
        assert clf.classes == [] and clf.num_samples == 0
