"""The stale-setting guard and the one knob the environment still sets.

Every scheduling knob is an argument checked by its owner (see
``tests/tuning/test_knobs.py``).  What the environment still carries is
the kernels' allocation budget, ``REPRO_KERNEL_BUDGET`` — a malformed
value raises :class:`~repro.exceptions.CalibrationError` naming it —
and a leftover ``REPRO_CALIBRATION`` setting, which fails loudly rather
than being ignored.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import CalibrationError
from repro.tuning import active_calibration


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for var in ("REPRO_CALIBRATION", "REPRO_KERNEL_BUDGET"):
        monkeypatch.delenv(var, raising=False)


class TestStaleCalibrationGuard:
    """``active_calibration`` is the guard the benchmark harness imports."""

    def test_unset_returns_none(self):
        assert active_calibration() is None

    def test_empty_returns_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_CALIBRATION", "")
        assert active_calibration() is None

    def test_set_raises_naming_the_variable(self, tmp_path, monkeypatch):
        # Even a well-formed knob file is refused: it would otherwise be
        # silently ignored while the process runs on other values.
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps({"schema": 1, "knobs": {}}))
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        with pytest.raises(CalibrationError, match="REPRO_CALIBRATION"):
            active_calibration()


class TestCellBudget:
    """``REPRO_KERNEL_BUDGET``: built-in when unset, checked when set."""

    def test_cell_budget_consumer(self, monkeypatch):
        from repro.hdc.kernels import DEFAULT_CELL_BUDGET, cell_budget

        assert cell_budget() == DEFAULT_CELL_BUDGET
        monkeypatch.setenv("REPRO_KERNEL_BUDGET", "2000000")
        assert cell_budget() == 2_000_000

    @pytest.mark.parametrize("raw", ["0", "fast"])
    def test_out_of_bound_or_unparsable_rejected(self, monkeypatch, raw):
        from repro.hdc.kernels import cell_budget

        monkeypatch.setenv("REPRO_KERNEL_BUDGET", raw)
        with pytest.raises(CalibrationError, match="REPRO_KERNEL_BUDGET"):
            cell_budget()
