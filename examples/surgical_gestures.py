"""Surgical-gesture classification (the paper's Table 1 scenario).

Trains the Section 2.2 centroid classifier on the JIGSAWS-like surrogate
(15 gestures, 18 angular kinematic channels, train on surgeon "D", test
on the other seven) with each of the three basis-hypervector sets, and
prints the per-task accuracy comparison plus a per-gesture breakdown for
the circular model.

Run:  python examples/surgical_gestures.py [--dim 4096]
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path shim: run from checkout or install)

import argparse

import numpy as np

from repro.analysis import format_table
from repro.datasets import JIGSAWS_TASKS, make_jigsaws_like
from repro.experiments import (
    BASIS_KINDS,
    ClassificationConfig,
    run_classification,
)
from repro.learning import NearestCentroidBaseline, confusion_matrix


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=4096, help="hyperspace dimension")
    parser.add_argument("--seed", type=int, default=2023)
    args = parser.parse_args()

    config = ClassificationConfig(dim=args.dim, seed=args.seed)
    print(f"Hyperspace dimension: {config.dim}, circular r = {config.circular_r}\n")

    rows = []
    per_task_results = {}
    for task in JIGSAWS_TASKS:
        split = make_jigsaws_like(task=task, seed=args.seed)
        accs = {}
        for kind in BASIS_KINDS:
            result = run_classification(task, kind, config=config, split=split)
            accs[kind] = result.accuracy
        per_task_results[task] = (split, accs)

        baseline = NearestCentroidBaseline("circular")
        baseline.fit(split.train_features, split.train_labels.tolist())
        base_acc = baseline.score(split.test_features, split.test_labels.tolist())
        rows.append(
            [task.replace("_", " ").title()]
            + [100 * accs[k] for k in BASIS_KINDS]
            + [100 * base_acc]
        )

    print(
        format_table(
            ["Task", "Random %", "Level %", "Circular %", "circ-centroid baseline %"],
            rows,
            title="Accuracy per basis-hypervector set (test = 7 held-out surgeons)",
            digits=1,
        )
    )

    # Per-gesture breakdown for the hardest task under the circular model.
    task = "suturing"
    split, _ = per_task_results[task]
    result = run_classification(task, "circular", config=config, split=split)
    print(f"\nPer-gesture recall on {task} (circular basis, accuracy "
          f"{100 * result.accuracy:.1f}%):")

    # Re-run prediction to get the confusion structure.
    from repro._rng import ensure_rng
    from repro.basis import _value_embedding
    from repro.experiments.classification import encode_angular_records
    from repro.hdc import random_hypervectors
    from repro.learning import CentroidClassifier

    master = ensure_rng(config.seed)
    _, basis_rng, key_rng, tie_rng = master.spawn(4)
    low, high = split.metadata["feature_range"]
    embedding = _value_embedding(
        "circular", config.levels, config.dim, basis_rng, low, high, config.circular_r
    )
    keys = random_hypervectors(split.num_channels, config.dim, seed=key_rng)
    tie_key = int(tie_rng.integers(0, 2**63))
    n_train = split.train_features.shape[0]
    clf = CentroidClassifier(config.dim, seed=tie_rng)
    clf.fit(
        encode_angular_records(split.train_features, keys, embedding, seed=tie_key),
        split.train_labels.tolist(),
    )
    predictions = clf.predict(
        encode_angular_records(
            split.test_features, keys, embedding, seed=tie_key, start=n_train
        )
    )
    matrix, labels = confusion_matrix(split.test_labels.tolist(), predictions)
    recalls = np.diagonal(matrix) / np.maximum(matrix.sum(axis=1), 1)
    gesture_rows = [
        [f"G{label + 1}", int(matrix[i].sum()), 100 * float(recalls[i])]
        for i, label in enumerate(labels)
    ]
    print(
        format_table(
            ["gesture", "test samples", "recall %"], gesture_rows, digits=1
        )
    )


if __name__ == "__main__":
    main()
