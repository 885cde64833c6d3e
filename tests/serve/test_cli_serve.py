"""Subprocess smoke tests for the ``train`` / ``serve`` CLI targets.

These run the real ``python -m repro.experiments`` entry point, so they
cover exactly what a user types: train writes a model artifact, serve
loads it in a *fresh process* and answers JSONL requests — the
full cross-process persistence path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import make_jigsaws_like

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run_cli(args: list[str], stdin: str | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=600,
    )


@pytest.fixture(scope="module")
def classification_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "gestures.npz"
    result = _run_cli([
        "train", "--task", "suturing", "--basis", "circular",
        "--dim", "256", "--out", str(path),
    ])
    assert result.returncode == 0, result.stderr
    assert path.is_file()
    return path, result.stdout


@pytest.fixture(scope="module")
def regression_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "mars.npz"
    result = _run_cli([
        "train", "--task", "mars_express", "--dim", "256", "--out", str(path),
    ])
    assert result.returncode == 0, result.stderr
    assert path.is_file()
    return path, result.stdout


class TestTrainCLI:
    def test_train_reports_metrics_and_path(self, classification_model):
        path, stdout = classification_model
        assert "classification pipeline" in stdout
        assert "test accuracy" in stdout
        assert str(path) in stdout

    def test_train_regression_reports_mse(self, regression_model):
        _, stdout = regression_model
        assert "regression pipeline" in stdout
        assert "test MSE" in stdout

    def test_train_without_out_fails(self):
        result = _run_cli(["train", "--dim", "64"])
        assert result.returncode != 0
        assert "--out" in result.stderr

    def test_model_is_small_on_disk(self, classification_model):
        """Packed persistence: a d=256 gesture model fits in well under 1 MB."""
        path, _ = classification_model
        assert path.stat().st_size < 1_000_000


class TestServeCLI:
    def test_serve_classification_stdin(self, classification_model):
        path, _ = classification_model
        split = make_jigsaws_like(task="suturing", seed=5)
        records = split.test_features[:8]
        stdin = "\n".join(json.dumps([float(v) for v in row]) for row in records)
        result = _run_cli(["serve", "--model", str(path)], stdin=stdin)
        assert result.returncode == 0, result.stderr
        responses = [json.loads(line) for line in result.stdout.splitlines()]
        assert len(responses) == len(records)
        labels = set(split.train_labels.tolist())
        assert all(r["prediction"] in labels for r in responses)

    def test_serve_regression_from_file(self, regression_model, tmp_path):
        path, _ = regression_model
        requests = tmp_path / "requests.jsonl"
        anomalies = np.linspace(0.0, 2 * np.pi, 6)
        requests.write_text(
            "\n".join(json.dumps({"features": [float(a)]}) for a in anomalies) + "\n"
        )
        result = _run_cli(["serve", "--model", str(path), "--input", str(requests)])
        assert result.returncode == 0, result.stderr
        responses = [json.loads(line) for line in result.stdout.splitlines()]
        assert len(responses) == len(anomalies)
        assert all(isinstance(r["prediction"], float) for r in responses)

    def test_serve_batching_preserves_order(self, regression_model):
        """Responses come back in request order for any micro-batch size."""
        path, _ = regression_model
        anomalies = np.linspace(0.0, 2 * np.pi, 10)
        stdin = "\n".join(json.dumps([float(a)]) for a in anomalies)
        big = _run_cli(["serve", "--model", str(path), "--batch-size", "64"], stdin=stdin)
        small = _run_cli(["serve", "--model", str(path), "--batch-size", "1"], stdin=stdin)
        assert big.returncode == 0 and small.returncode == 0
        assert big.stdout == small.stdout

    def test_malformed_request_reports_line_number(self, regression_model):
        """A bad request fails with a pointed error, not a numpy traceback —
        and requests accepted before it still get their responses."""
        path, _ = regression_model
        result = _run_cli(
            ["serve", "--model", str(path)], stdin='[1.0]\n[1.0, 2.0]\n'
        )
        assert result.returncode != 0
        assert "line 2" in result.stderr
        assert "feature" in result.stderr
        answered = [json.loads(line) for line in result.stdout.splitlines()]
        assert len(answered) == 1  # the valid first request was served

    def test_non_finite_request_rejected(self, regression_model):
        """json.loads accepts NaN; the request validator must not."""
        path, _ = regression_model
        result = _run_cli(
            ["serve", "--model", str(path), "--batch-size", "10"],
            stdin="[1.0]\n[NaN]\n[3.0]\n",
        )
        assert result.returncode != 0
        assert "finite" in result.stderr
        answered = [json.loads(line) for line in result.stdout.splitlines()]
        assert len(answered) == 1  # [1.0] answered before the failure

    def test_integer_beyond_float64_rejected(self, regression_model):
        """An integer too large for a float64 is a bad value, not a crash."""
        path, _ = regression_model
        result = _run_cli(
            ["serve", "--model", str(path)], stdin="[1.0]\n[1%s]\n" % ("0" * 400)
        )
        assert result.returncode != 0
        assert "request line 2 must contain only finite numbers" in result.stderr
        assert "OverflowError" not in result.stderr
        answered = [json.loads(line) for line in result.stdout.splitlines()]
        assert len(answered) == 1

    def test_missing_input_file_fails_cleanly(self, regression_model):
        path, _ = regression_model
        result = _run_cli(["serve", "--model", str(path), "--input", "nosuch.jsonl"])
        assert result.returncode != 0
        assert "cannot open --input" in result.stderr
        assert "Traceback" not in result.stderr

    def test_serve_without_model_fails(self):
        result = _run_cli(["serve"], stdin="")
        assert result.returncode != 0
        assert "--model" in result.stderr

    @pytest.mark.parametrize("window", ["nan", "inf", "-inf", "-1"])
    def test_non_finite_or_negative_batch_window_is_a_usage_error(self, window):
        # Checked before any model loads, so the missing model is never read.
        result = _run_cli([
            "serve-http", "--model", "m=missing.npz", f"--batch-window-ms={window}",
        ])
        assert result.returncode == 2, result.stderr
        assert "--batch-window-ms must be finite and >= 0" in result.stderr
        assert "Traceback" not in result.stderr

    def test_cli_served_predictions_match_in_memory_engine(self, classification_model):
        """Acceptance: CLI-trained artifact served in a fresh process is
        bit-identical to the same pipeline trained and queried in-memory."""
        from repro.experiments.config import ClassificationConfig
        from repro.experiments.serving import train_classification_pipeline
        from repro.serve import InferenceEngine

        path, _ = classification_model  # trained by the CLI at dim=256, seed=2023
        pipeline = train_classification_pipeline(
            "suturing", "circular", config=ClassificationConfig(dim=256, seed=2023)
        )
        split = make_jigsaws_like(task="suturing", seed=17)
        records = split.test_features[:12]
        with InferenceEngine(pipeline) as engine:
            expected = [int(label) for label in engine.predict(records)]
        stdin = "\n".join(json.dumps([float(v) for v in row]) for row in records)
        result = _run_cli(["serve", "--model", str(path)], stdin=stdin)
        assert result.returncode == 0, result.stderr
        served = [json.loads(line)["prediction"] for line in result.stdout.splitlines()]
        assert served == expected
