"""Tests for the centroid HDC classifier (Section 2.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    DimensionMismatchError,
    EmptyModelError,
    InvalidParameterError,
)
from repro.hdc import bundle, random_hypervectors
from repro.learning import CentroidClassifier

DIM = 2048


def make_separable(rng, num_classes=4, per_class=30, noise_bits=100, dim=DIM):
    """Clustered hypervectors: per-class prototype + bit-flip noise."""
    prototypes = random_hypervectors(num_classes, dim, rng)
    samples, labels = [], []
    for cls in range(num_classes):
        for _ in range(per_class):
            hv = prototypes[cls].copy()
            flips = rng.choice(dim, size=noise_bits, replace=False)
            hv[flips] ^= 1
            samples.append(hv)
            labels.append(cls)
    order = rng.permutation(len(labels))
    return np.stack(samples)[order], [labels[i] for i in order], prototypes


class TestFitPredict:
    def test_learns_separable_clusters(self, rng):
        x, y, _ = make_separable(rng)
        clf = CentroidClassifier(DIM, seed=0).fit(x, y)
        assert clf.score(x, y) == 1.0

    def test_generalises_to_fresh_noise(self, rng):
        x, y, prototypes = make_separable(rng)
        clf = CentroidClassifier(DIM, seed=0).fit(x, y)
        fresh = prototypes[1].copy()
        flips = rng.choice(DIM, size=300, replace=False)
        fresh[flips] ^= 1
        assert clf.predict(fresh[None, :]) == [1]

    def test_class_vector_is_majority_of_class(self, rng):
        x, y, _ = make_separable(rng, num_classes=2, per_class=5)
        clf = CentroidClassifier(DIM, tie_break="zeros").fit(x, y)
        mask = np.array([label == 0 for label in y])
        expected = bundle(x[mask], tie_break="zeros")
        np.testing.assert_array_equal(clf.class_vector(0), expected)

    def test_incremental_fit_accumulates(self, rng):
        x, y, _ = make_separable(rng)
        half = len(y) // 2
        clf_inc = CentroidClassifier(DIM, tie_break="zeros")
        clf_inc.fit(x[:half], y[:half]).fit(x[half:], y[half:])
        clf_all = CentroidClassifier(DIM, tie_break="zeros").fit(x, y)
        for cls in clf_all.classes:
            np.testing.assert_array_equal(
                clf_inc.class_vector(cls), clf_all.class_vector(cls)
            )

    def test_labels_can_be_any_hashable(self, rng):
        x, y, _ = make_separable(rng, num_classes=2)
        names = ["alpha" if label == 0 else "beta" for label in y]
        clf = CentroidClassifier(DIM, seed=1).fit(x, names)
        assert set(clf.predict(x[:4])) <= {"alpha", "beta"}

    def test_decision_distances_shape(self, rng):
        x, y, _ = make_separable(rng, num_classes=3)
        clf = CentroidClassifier(DIM, seed=2).fit(x, y)
        distances, order = clf.decision_distances(x[:7])
        assert distances.shape == (7, 3)
        assert sorted(order) == [0, 1, 2]

    def test_single_sample_shapes(self, rng):
        x, y, _ = make_separable(rng, num_classes=2)
        clf = CentroidClassifier(DIM, seed=3).fit(x, y)
        assert len(clf.predict(x[0])) == 1


class TestValidation:
    def test_predict_before_fit(self, rng):
        clf = CentroidClassifier(DIM)
        with pytest.raises(EmptyModelError):
            clf.predict(random_hypervectors(1, DIM, rng))

    def test_label_count_mismatch(self, rng):
        clf = CentroidClassifier(DIM)
        with pytest.raises(InvalidParameterError):
            clf.fit(random_hypervectors(3, DIM, rng), [0, 1])

    def test_dimension_mismatch(self, rng):
        clf = CentroidClassifier(DIM)
        with pytest.raises(DimensionMismatchError):
            clf.fit(random_hypervectors(2, DIM // 2, rng), [0, 1])

    def test_unknown_class_vector(self, rng):
        x, y, _ = make_separable(rng, num_classes=2)
        clf = CentroidClassifier(DIM).fit(x, y)
        with pytest.raises(KeyError):
            clf.class_vector(99)

    def test_invalid_dim(self):
        with pytest.raises(InvalidParameterError):
            CentroidClassifier(0)


class TestLabelMasks:
    @pytest.mark.parametrize(
        "labels",
        [
            [3, 1, 3, 0, 1, 1, 7],
            ["walk", "run", "walk", "sit", "run"],
            [np.int64(2), np.int64(5), np.int64(2), np.int32(5), np.int64(9)],
            [np.str_("b"), np.str_("a"), np.str_("b")],
            [1, np.int64(1), 2.0, np.float64(2), "1"],
        ],
    )
    def test_masks_and_first_seen_order(self, labels):
        pairs = CentroidClassifier._label_masks(labels, len(labels))
        order = list(dict.fromkeys(labels))
        assert [label for label, _ in pairs] == order
        for (label, mask), expected in zip(pairs, order):
            assert label is expected  # the first-seen object is the key
            assert mask.dtype == bool
            assert mask.tolist() == [l == label for l in labels]

    @pytest.mark.parametrize(
        "labels",
        [
            np.random.default_rng(0).permutation(np.arange(60) % 7),
            np.array([9, -2, 9, 0, -2], dtype=np.int32),
            np.random.default_rng(1).integers(0, 2, 25).astype(bool),
            np.full(6, 3, dtype=np.uint8),
        ],
    )
    def test_integer_arrays_match_the_list_path(self, labels):
        """Int and bool arrays take a vectorised path; the same values
        passed as a list take the dict path, the reference."""
        fast = CentroidClassifier._label_masks(labels, len(labels))
        slow = CentroidClassifier._label_masks(labels.tolist(), len(labels))
        assert [label for label, _ in fast] == [label for label, _ in slow]
        assert [type(label) for label, _ in fast] == [type(label) for label, _ in slow]
        for (_, got), (_, want) in zip(fast, slow):
            assert got.dtype == bool
            assert np.array_equal(got, want)

    def test_empty_and_mismatch(self):
        assert CentroidClassifier._label_masks([], 0) == []
        assert CentroidClassifier._label_masks(np.array([], dtype=np.int64), 0) == []
        for labels in ([1, 2], np.array([1, 2])):
            with pytest.raises(InvalidParameterError):
                CentroidClassifier._label_masks(labels, 3)


class TestRefinement:
    def test_refine_converges_on_training_data(self, rng):
        # Overlapping clusters: single-pass training is imperfect.
        x, y, _ = make_separable(rng, num_classes=6, per_class=20, noise_bits=700)
        clf = CentroidClassifier(DIM, seed=4).fit(x, y)
        base = clf.score(x, y)
        updates = clf.refine(x, y, epochs=10)
        assert clf.score(x, y) >= base
        assert updates >= 0

    def test_refine_zero_epochs_noop(self, rng):
        x, y, _ = make_separable(rng)
        clf = CentroidClassifier(DIM, seed=5).fit(x, y)
        before = {c: clf.class_vector(c).copy() for c in clf.classes}
        assert clf.refine(x, y, epochs=0) == 0
        for c, hv in before.items():
            np.testing.assert_array_equal(clf.class_vector(c), hv)

    def test_refine_stops_when_clean(self, rng):
        x, y, _ = make_separable(rng)  # perfectly separable
        clf = CentroidClassifier(DIM, seed=6).fit(x, y)
        assert clf.refine(x, y, epochs=50) == 0  # no misclassifications

    def test_refine_unseen_label_rejected(self, rng):
        x, y, _ = make_separable(rng, num_classes=2)
        clf = CentroidClassifier(DIM, seed=7).fit(x, y)
        with pytest.raises(InvalidParameterError):
            clf.refine(x, [99] * len(y), epochs=1)

    def test_negative_epochs(self, rng):
        x, y, _ = make_separable(rng, num_classes=2)
        clf = CentroidClassifier(DIM).fit(x, y)
        with pytest.raises(InvalidParameterError):
            clf.refine(x, y, epochs=-1)
