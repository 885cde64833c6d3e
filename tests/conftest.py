"""Shared fixtures and helpers for the test-suite.

Conventions:

* every stochastic test fixes its seed — the suite is deterministic;
* statistical assertions on expected distances use tolerances derived
  from the binomial concentration at the test's dimension (documented at
  each call site);
* "small" dimensions (256–4096) keep the suite fast; the mathematical
  properties under test are dimension-independent.
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(0xC1DC0DE)


@pytest.fixture
def dim() -> int:
    """Default hypervector dimension for fast unit tests."""
    return 1024


#: ``AUTO_CROSSOVER`` values that send every non-empty distance call to
#: one similarity-kernel backend.
FORCED_CROSSOVER = {"xor": float("inf"), "gemm": 0.0}


@pytest.fixture(params=sorted(FORCED_CROSSOVER))
def kernel_side(request, monkeypatch) -> str:
    """Force the kernel dispatch onto one backend for the whole test."""
    from repro.hdc import kernels

    monkeypatch.setattr(kernels, "AUTO_CROSSOVER", FORCED_CROSSOVER[request.param])
    return request.param


def binomial_tolerance(dim: int, sigmas: float = 5.0) -> float:
    """Concentration bound for an empirical Hamming distance.

    A distance between ``d``-bit hypervectors is a mean of ``d`` Bernoulli
    variables, so its standard deviation is at most ``1/(2√d)``; allowing
    ``sigmas`` standard deviations gives a test that fails with
    probability < 1e-6 per comparison at 5σ.
    """
    return sigmas * 0.5 / np.sqrt(dim)
