"""Satellite power prediction (the paper's Mars Express scenario, Table 2).

A single circular feature — the orbital mean anomaly — predicts the
available power.  Compares the three basis sets, shows the r-sweep on
this task (the paper's Figure 8 mechanism), and prints the learned power
curve versus the ground-truth profile.

Run:  python examples/mars_power.py [--dim 4096]
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path shim: run from checkout or install)

import argparse
import math

import numpy as np

from repro.analysis import format_table
from repro.datasets import make_mars_express_like, mars_power_curve
from repro.experiments import RegressionConfig, run_mars_express
from repro.learning import TrigRegressionBaseline, mean_squared_error

TWO_PI = 2.0 * math.pi


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=2023)
    args = parser.parse_args()

    config = RegressionConfig(dim=args.dim, seed=args.seed)
    split = make_mars_express_like(seed=args.seed)
    print(
        f"Samples: {split.train_labels.size} train / {split.test_labels.size} test, "
        f"feature = mean anomaly, label = power (W)"
    )
    print(f"Test-set variance: {np.var(split.test_labels):.0f} W²\n")

    rows = []
    for kind in ("random", "level", "circular"):
        result = run_mars_express(kind, config=config, split=split)
        rows.append([kind, result.mse, np.sqrt(result.mse)])
    trig = TrigRegressionBaseline(harmonics=3).fit(
        split.train_features[:, 0], split.train_labels
    )
    trig_mse = mean_squared_error(
        split.test_labels, trig.predict(split.test_features[:, 0])
    )
    rows.append(["trig regression (classical)", trig_mse, np.sqrt(trig_mse)])
    print(
        format_table(
            ["anomaly encoding", "test MSE", "RMSE W"],
            rows,
            title=f"Mars-Express-like power prediction (d={config.dim})",
            digits=1,
        )
    )

    # r-sweep on this task alone.
    print("\nEffect of the r-hyperparameter (normalized against random):")
    from dataclasses import replace

    reference = run_mars_express("random", config=config, split=split).mse
    sweep_rows = []
    for r in (0.0, 0.01, 0.1, 0.3, 1.0):
        mse = run_mars_express(
            "circular", config=replace(config, circular_r=r), split=split
        ).mse
        sweep_rows.append([f"r={r:g}", mse, mse / reference])
    print(
        format_table(
            ["circular r", "MSE", "normalized vs random"],
            sweep_rows,
            digits=2,
        )
    )

    # Learned curve versus ground truth at a few anomalies.
    print("\nLearned power curve (circular basis) vs the true profile:")
    from repro._rng import ensure_rng
    from repro.basis import _value_embedding
    from repro.experiments.regression import _label_embedding
    from repro.learning import HDRegressor

    master = ensure_rng(config.seed)
    _, anomaly_rng, label_rng, tie_rng = master.spawn(4)
    emb = _value_embedding(
        "circular", config.anomaly_levels, config.dim, anomaly_rng,
        0.0, TWO_PI, config.circular_r,
    )
    label_emb = _label_embedding(split, config, label_rng)
    model = HDRegressor(label_emb, seed=tie_rng, model=config.model)
    model.fit(emb.encode(split.train_features[:, 0]), split.train_labels)

    probes = np.linspace(0.0, TWO_PI, 13)[:-1]
    predictions = model.predict(emb.encode(probes))
    truth = mars_power_curve(probes)
    curve_rows = [
        [f"{math.degrees(m):5.0f}°", truth[i], predictions[i]]
        for i, m in enumerate(probes)
    ]
    print(
        format_table(
            ["mean anomaly", "true curve W", "HDC prediction W"],
            curve_rows,
            digits=1,
        )
    )


if __name__ == "__main__":
    main()
