"""Ablation: regression decode and model-quantisation choices.

Two independent design axes of :class:`repro.learning.HDRegressor` on the
Mars Express workload with circular value encoding:

* **model** — the paper's binary majority bundle vs the unquantised
  integer accumulator (the torchhd-style practice and this repo's
  default; quantisation hurts correlated single-feature addressing),
* **decode** — the paper's arg-min cleanup vs similarity-weighted
  averaging over the label grid.
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path shim: run from checkout or install)

import itertools

from conftest import run_once, save_report

from repro.analysis import format_table
from repro.experiments import RegressionConfig, run_mars_express
from repro.datasets import make_mars_express_like

DIM = 8192


def test_decode_and_quantisation_ablation(benchmark):
    split = make_mars_express_like(seed=0)

    def sweep():
        results = {}
        for model, decode in itertools.product(("binary", "integer"), ("argmin", "weighted")):
            config = RegressionConfig(dim=DIM, seed=2023, model=model, decode=decode)
            results[(model, decode)] = run_mars_express(
                "circular", config=config, split=split
            ).mse
        return results

    results = run_once(benchmark, sweep)
    report = format_table(
        ["model", "decode", "Mars Express MSE (circular basis)"],
        [[m, d, results[(m, d)]] for (m, d) in results],
        title=f"Ablation — decode strategy × model quantisation (d={DIM})",
        digits=1,
    )
    save_report("ablation_decode", report)

    # The integer accumulator must clearly beat the binary bundle with
    # correlated addresses (the documented quantisation pathology).
    assert results[("integer", "argmin")] < results[("binary", "argmin")]
    # All four variants produce finite, positive errors.
    for value in results.values():
        assert value > 0
