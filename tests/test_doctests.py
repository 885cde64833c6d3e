"""Run the documented examples of every module in the package.

Mirrors the CI step ``pytest --doctest-modules src/repro`` inside the
tier-1 suite, so a docstring example can never rot unnoticed even in a
plain ``pytest`` run.  The module list is found by walking ``repro``,
so a new package is covered the day it lands.
"""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import repro


def _iter_modules():
    yield repro.__name__
    for info in pkgutil.walk_packages(repro.__path__, prefix=f"{repro.__name__}."):
        yield info.name


@pytest.mark.parametrize("module_name", sorted(_iter_modules()))
def test_module_doctests(module_name: str):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failure(s) in {module_name}"
