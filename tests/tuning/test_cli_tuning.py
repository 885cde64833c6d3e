"""Subprocess smoke tests for the ``check-deadline`` CLI.

These run the real ``python -m repro.experiments`` entry point, so they
cover exactly what a user (and CI) types: check-deadline turns budget
misses into a non-zero exit code, and a leftover ``REPRO_CALIBRATION``
setting fails the run instead of being ignored.
"""

from __future__ import annotations

import json
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


def _spec(path: Path, budget: dict) -> Path:
    path.write_text(json.dumps({
        "schema": 1,
        "name": path.stem,
        "target": "serve_latency",
        "shape": {"dim": 256, "calls": 5, "repeats": 1},
        "budget": budget,
    }))
    return path


class TestCheckDeadlineCLI:
    def test_pass_exits_zero(self, tmp_path):
        spec = _spec(tmp_path / "ok.json", {"p99_ms": 10_000.0})
        result = _run_cli(["check-deadline", "--workload", str(spec)])
        assert result.returncode == 0, result.stderr
        assert "all deadlines met" in result.stdout

    def test_stale_calibration_setting_fails(self, tmp_path):
        spec = _spec(tmp_path / "ok.json", {"p99_ms": 10_000.0})
        result = _run_cli(
            ["check-deadline", "--workload", str(spec)],
            env_extra={"REPRO_CALIBRATION": str(tmp_path / "calibration.json")},
        )
        assert result.returncode != 0
        assert "REPRO_CALIBRATION" in result.stderr

    def test_miss_exits_nonzero(self, tmp_path):
        spec = _spec(tmp_path / "miss.json", {"p99_ms": 1e-9})
        result = _run_cli(["check-deadline", "--workload", str(spec)])
        assert result.returncode == 1
        assert "MISS" in result.stdout

    def test_malformed_spec_fails_cleanly(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        result = _run_cli(["check-deadline", "--workload", str(bad)])
        assert result.returncode != 0
        assert "check-deadline" in result.stderr

    def test_missing_workload_flag_errors(self):
        result = _run_cli(["check-deadline"])
        assert result.returncode != 0
        assert "--workload" in result.stderr

    def test_committed_specs_are_loadable(self):
        from repro.tuning import load_workload

        for name in ("serve_latency.json", "stream_rss.json"):
            spec = load_workload(REPO_ROOT / "benchmarks" / "workloads" / name)
            assert spec.budget, name
