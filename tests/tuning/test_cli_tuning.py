"""Subprocess smoke test for the ``REPRO_CALIBRATION`` guard at the CLI.

It runs the real ``python -m repro.experiments`` entry point, so it
covers exactly what a user types: a leftover ``REPRO_CALIBRATION``
setting fails the run instead of being ignored.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run_cli(
    args: list[str], env_extra: dict[str, str] | None = None
) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("REPRO_CALIBRATION", None)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=600,
    )


class TestCalibrationGuardCLI:
    ARGS = ["figure6", "--dim", "64", "--seed", "1"]

    def test_runs_without_the_setting(self):
        result = _run_cli(self.ARGS)
        assert result.returncode == 0, result.stderr
        assert "Figure 6" in result.stdout

    def test_stale_calibration_setting_fails(self, tmp_path):
        result = _run_cli(
            self.ARGS,
            env_extra={"REPRO_CALIBRATION": str(tmp_path / "calibration.json")},
        )
        assert result.returncode != 0
        assert "REPRO_CALIBRATION" in result.stderr
        assert "Figure 6" not in result.stdout
