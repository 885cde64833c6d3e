"""Temperature forecasting (the paper's Beijing scenario, Table 2).

Builds the Section 2.3 regression memory with the ``Y ⊗ D ⊗ H`` encoding:
the year as a level-hypervector, day-of-year and hour-of-day drawn from
the basis under test.  Compares random / level / circular value bases and
a classical trigonometric regression baseline, then prints a sample week
of predictions from the circular model.

Run:  python examples/temperature_forecast.py [--dim 4096]
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path shim: run from checkout or install)

import argparse

import numpy as np

from repro.analysis import format_table
from repro.datasets import DAYS_PER_YEAR, make_beijing_like
from repro.experiments import RegressionConfig, run_beijing
from repro.learning import TrigRegressionBaseline, mean_squared_error
from repro.stats import time_to_angle


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=2023)
    args = parser.parse_args()

    config = RegressionConfig(dim=args.dim, seed=args.seed)
    split = make_beijing_like(seed=args.seed)
    print(
        f"Samples: {split.train_labels.size} train / {split.test_labels.size} test "
        f"(chronological 70/30), label = temperature °C"
    )
    print(f"Test-set variance: {np.var(split.test_labels):.1f} (the MSE of a "
          f"mean predictor)\n")

    rows = []
    for kind in ("random", "level", "circular"):
        result = run_beijing(kind, config=config, split=split)
        rows.append([kind, result.mse, np.sqrt(result.mse)])

    # Classical anchor: two-harmonic trig regression on both circular
    # features (day and hour angles).
    angles = np.stack(
        [
            time_to_angle(split.train_features[:, 1], DAYS_PER_YEAR),
            time_to_angle(split.train_features[:, 2], 24.0),
        ],
        axis=1,
    )
    trig = TrigRegressionBaseline(harmonics=2).fit(angles, split.train_labels)
    test_angles = np.stack(
        [
            time_to_angle(split.test_features[:, 1], DAYS_PER_YEAR),
            time_to_angle(split.test_features[:, 2], 24.0),
        ],
        axis=1,
    )
    trig_mse = mean_squared_error(split.test_labels, trig.predict(test_angles))
    rows.append(["trig regression (classical)", trig_mse, np.sqrt(trig_mse)])

    print(
        format_table(
            ["day/hour encoding", "test MSE", "RMSE °C"],
            rows,
            title=f"Beijing-like temperature forecast (d={config.dim})",
            digits=1,
        )
    )

    # A sample winter day under the circular model, via the experiment's
    # own encoding path.
    print("\nSpot-check: consecutive test samples (circular basis)")
    from repro._rng import ensure_rng
    from repro.basis import Embedding, LevelBasis, LinearDiscretizer, _value_embedding
    from repro.experiments.regression import _label_embedding
    from repro.hdc.encoders import encode_bound_records
    from repro.learning import HDRegressor

    master = ensure_rng(config.seed)
    _, year_rng, day_rng, hour_rng, label_rng, tie_rng = master.spawn(6)
    num_years = int(
        max(split.train_features[:, 0].max(), split.test_features[:, 0].max())
    ) + 1
    year_levels = max(2, num_years)
    year_emb = Embedding(
        LevelBasis(year_levels, config.dim, seed=year_rng),
        LinearDiscretizer(0.0, float(year_levels - 1), year_levels, clip=True),
    )
    day_emb = _value_embedding(
        "circular", config.day_levels, config.dim, day_rng,
        0.0, DAYS_PER_YEAR, config.circular_r,
    )
    hour_emb = _value_embedding(
        "circular", config.hour_levels, config.dim, hour_rng,
        0.0, 24.0, config.circular_r,
    )
    label_emb = _label_embedding(split, config, label_rng)

    def encode(features):
        return encode_bound_records(
            [
                year_emb.encode(features[:, 0]),
                day_emb.encode(features[:, 1]),
                hour_emb.encode(features[:, 2]),
            ]
        )

    model = HDRegressor(label_emb, seed=tie_rng, model=config.model)
    model.fit(encode(split.train_features), split.train_labels)
    probe = slice(0, 8)
    predictions = model.predict(encode(split.test_features[probe]))
    sample_rows = [
        [
            int(split.test_features[i, 0]),
            f"{split.test_features[i, 1]:.1f}",
            f"{split.test_features[i, 2]:.0f}",
            split.test_labels[i],
            predictions[i - probe.start],
        ]
        for i in range(probe.start, probe.stop)
    ]
    print(
        format_table(
            ["year", "day", "hour", "truth °C", "predicted °C"],
            sample_rows,
            digits=1,
        )
    )


if __name__ == "__main__":
    main()
