"""Extension bench: fractional power encoding vs circular-hypervectors.

Head-to-head on two regression workloads:

* **Mars Express** — the paper's single-circular-feature task (first
  harmonic dominant plus an eclipse dip);
* **semidiurnal** — a synthetic second-harmonic signal, the documented
  bandwidth blind spot of the fixed walk-law kernel of binary circular
  sets.

The expectation encoded in the assertions: FPE matches or beats the
binary circular pipeline on Mars and decisively wins on the semidiurnal
task once its frequency range covers the second harmonic.
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (sys.path shim: run from checkout or install)

import math

import numpy as np
from conftest import run_once, save_report

from repro.analysis import format_table
from repro.datasets import make_mars_express_like
from repro.experiments import RegressionConfig, run_mars_express
from repro.fhrr import FPERegressor, FractionalPowerEncoding
from repro.basis import CircularBasis, Embedding, LevelBasis, LinearDiscretizer
from repro.basis.quantize import CircularDiscretizer
from repro.learning import HDRegressor

TWO_PI = 2.0 * math.pi
DIM = 8192


def _binary_circular_mse(theta_tr, y_tr, theta_te, y_te, label_range) -> float:
    emb = Embedding(
        CircularBasis(720, DIM, r=0.01, seed=1),
        CircularDiscretizer(720, low=0.0, period=TWO_PI),
    )
    lo, hi = label_range
    label_emb = Embedding(
        LevelBasis(128, DIM, seed=2), LinearDiscretizer(lo, hi, 128, clip=True)
    )
    model = HDRegressor(label_emb, seed=3, model="integer")
    model.fit(emb.encode(theta_tr), y_tr)
    return model.score(emb.encode(theta_te), y_te)


def test_fpe_vs_circular(benchmark):
    mars = make_mars_express_like(seed=0)
    rng = np.random.default_rng(4)
    theta_tr = rng.uniform(0, TWO_PI, 2000)
    theta_te = rng.uniform(0, TWO_PI, 500)
    semi_tr = 3.0 + 1.5 * np.sin(2 * theta_tr) + rng.normal(0, 0.1, 2000)
    semi_te = 3.0 + 1.5 * np.sin(2 * theta_te)

    def sweep():
        results = {}
        # Mars Express: reuse the experiment driver for the circular row.
        config = RegressionConfig(dim=DIM, seed=2023)
        results[("mars", "circular-hv")] = run_mars_express(
            "circular", config=config, split=mars
        ).mse
        fpe = FractionalPowerEncoding(DIM, max_frequency=12, seed=5)
        model = FPERegressor(fpe).fit(mars.train_features[:, 0], mars.train_labels)
        results[("mars", "fpe")] = model.score(
            mars.test_features[:, 0], mars.test_labels
        )
        # Semidiurnal signal.
        results[("semidiurnal", "circular-hv")] = _binary_circular_mse(
            theta_tr, semi_tr, theta_te, semi_te, (semi_tr.min(), semi_tr.max())
        )
        fpe2 = FractionalPowerEncoding(DIM, max_frequency=6, seed=6)
        model2 = FPERegressor(fpe2).fit(theta_tr, semi_tr)
        results[("semidiurnal", "fpe")] = model2.score(theta_te, semi_te)
        return results

    results = run_once(benchmark, sweep)
    rows = [
        [task, encoder, mse]
        for (task, encoder), mse in sorted(results.items())
    ]
    report = format_table(
        ["task", "encoder", "test MSE"],
        rows,
        title=f"Extension — fractional power encoding vs circular-hypervectors (d={DIM})",
        digits=2,
    )
    save_report("extension_fpe", report)

    semi_var = float(np.var(semi_te))
    # FPE captures the second harmonic; the fixed walk-law kernel cannot.
    assert results[("semidiurnal", "fpe")] < 0.2 * semi_var
    assert results[("semidiurnal", "fpe")] < results[("semidiurnal", "circular-hv")]
    # On the paper's task FPE is at least competitive.
    assert results[("mars", "fpe")] < 1.5 * results[("mars", "circular-hv")]
