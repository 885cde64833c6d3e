"""Tests for the ``python -m repro.experiments`` command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.__main__ import _TARGETS, main

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep every CLI invocation away from the repo's real results dir."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "cli-cache"))


def _run_cli(args: list[str], cache_dir: Path) -> subprocess.CompletedProcess:
    """Invoke the CLI as a real subprocess, isolated to a private cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_RESULTS_DIR"] = str(cache_dir)
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=600,
    )


class TestCLI:
    def test_unknown_target_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["table9"])

    def test_figure6_runs(self, capsys):
        assert main(["figure6", "--dim", "1024", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "r=0.0" in out or "r=0" in out

    def test_figure3_runs(self, capsys):
        assert main(["figure3", "--dim", "1024", "--size", "6"]) == 0
        out = capsys.readouterr().out
        assert "random" in out and "circular" in out

    def test_table1_runs_small(self, capsys):
        assert main(["table1", "--dim", "512", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Knot Tying" in out
        assert "%" in out

    def test_table2_runs_small(self, capsys):
        assert main(["table2", "--dim", "512", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Mars Express" in out

    def test_figure7_runs_small(self, capsys):
        assert main(["figure7", "--dim", "512", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "normalized" in out.lower()

    def test_figure8_fast_runs(self, capsys):
        assert main(["figure8", "--dim", "512", "--seed", "3", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "Suturing" in out

    def test_workers_flag_is_bit_identical(self, capsys):
        # --no-cache on both: otherwise the second run is a cache hit and
        # the parallel path is never exercised.
        args = ["table1", "--dim", "256", "--seed", "5", "--no-cache"]
        assert main([*args, "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*args, "--workers", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert main([*args, "--workers", "0"]) == 0  # one per CPU
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("target", ["serve", "serve-http"])
    def test_kernel_flag_is_an_unknown_argument(self, target, capsys):
        # The kernel picks its own backend; there is no flag to choose one.
        with pytest.raises(SystemExit) as exc:
            main([target, "--model", "m=missing.npz", "--kernel", "xor"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kernel xor" in capsys.readouterr().err

    def test_fast_caps_dimension(self, capsys):
        assert main(["table2", "--dim", "9999", "--seed", "3", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "d=1024" in out


class TestCLISubprocess:
    """End-to-end smoke tests: every subcommand via a real interpreter."""

    # train/serve need --out/--model; those have their own subprocess
    # smoke tests (tests/serve/test_cli_serve.py).  Smoke the artifact
    # targets.
    @pytest.mark.parametrize(
        "target",
        sorted(t for t in _TARGETS if t not in ("train", "serve", "serve-http")),
    )
    def test_fast_smoke(self, target, tmp_path):
        proc = _run_cli([target, "--fast", "--dim", "256", "--no-cache"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
        assert out.strip(), f"{target} produced no output"
        # Every artifact renders at least one aligned table/heatmap row.
        assert any(
            marker in out for marker in ("Table", "Figure", "---")
        ), out[:200]
        assert list(tmp_path.glob("*.json")) == []  # --no-cache honoured

    def test_second_invocation_is_a_cache_hit(self, tmp_path):
        args = ["table1", "--fast", "--dim", "256", "--seed", "11"]
        cold = _run_cli(args, tmp_path)
        assert cold.returncode == 0, cold.stderr
        assert "cache store" in cold.stderr
        assert len(list(tmp_path.glob("table1-*.json"))) == 1

        warm = _run_cli(args, tmp_path)
        assert warm.returncode == 0, warm.stderr
        assert "cache hit" in warm.stderr
        assert warm.stdout == cold.stdout  # same table, no recompute

    def test_cache_key_includes_config(self, tmp_path):
        first = _run_cli(["table1", "--fast", "--dim", "256", "--seed", "1"], tmp_path)
        second = _run_cli(["table1", "--fast", "--dim", "256", "--seed", "2"], tmp_path)
        assert first.returncode == 0 and second.returncode == 0
        assert "cache hit" not in second.stderr
        assert len(list(tmp_path.glob("table1-*.json"))) == 2

    @pytest.mark.parametrize("workers", ["-1", "-2"])
    def test_negative_workers_is_a_usage_error(self, workers, tmp_path):
        proc = _run_cli(["figure8", "--fast", "--workers", workers], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "--workers must be >= 0" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("target", ["serve", "serve-http", "train"])
    def test_workers_on_non_cell_targets_is_a_usage_error(self, target, tmp_path):
        proc = _run_cli([target, "--model", "m=missing.npz", "--workers", "2"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert f"--workers has no effect on {target}" in proc.stderr
        if target == "train":
            assert "use --stream --cluster-workers N" in proc.stderr
        assert "Traceback" not in proc.stderr
