"""Performance knobs: precedence, env validation, the stale-setting guard.

The contract under test: every knob resolves through the one precedence
chain *explicit arg > env var > built-in*; a malformed env value
(unparsable, non-finite, out of bounds) raises
:class:`~repro.exceptions.CalibrationError` instead of silently
mis-tuning the process; and a leftover ``REPRO_CALIBRATION`` setting
fails loudly rather than being ignored.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import CalibrationError
from repro.tuning import active_calibration, resolve_knob

#: Every knob variable a consumer reads; cleared before each test so the
#: built-ins are what an unconfigured test sees.
KNOB_VARS = (
    "REPRO_CALIBRATION",
    "REPRO_CHUNK_ROWS",
    "REPRO_WORKERS",
    "REPRO_CLUSTER_WORKERS",
    "REPRO_KERNEL_BUDGET",
    "REPRO_SERVE_BATCH_WINDOW_MS",
    "REPRO_SERVE_BATCH_MAX",
    "REPRO_SERVE_MAX_QUEUE",
)


@pytest.fixture(autouse=True)
def _clean_knob_env(monkeypatch):
    for var in KNOB_VARS:
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

    def test_set_fails_every_knob_lookup(self, tmp_path, monkeypatch):
        from repro.streaming import default_chunk_rows

        path = tmp_path / "calibration.json"
        path.write_text(json.dumps({"schema": 1, "knobs": {}}))
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        with pytest.raises(CalibrationError, match="REPRO_CALIBRATION"):
            default_chunk_rows()
        with pytest.raises(CalibrationError, match="REPRO_CALIBRATION"):
            resolve_knob(builtin=1, arg=2)


class TestPrecedence:
    """arg > env > built-in, at every link of the chain."""

    ENV = "REPRO_CHUNK_ROWS"

    def _resolve(self, **kwargs):
        return resolve_knob(builtin=1024, env_var=self.ENV, **kwargs)

    def test_builtin_when_nothing_configured(self):
        assert self._resolve() == 1024

    def test_env_beats_builtin(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "512")
        assert self._resolve() == 512

    def test_arg_beats_everything(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "512")
        assert self._resolve(arg=64) == 64

    @pytest.mark.parametrize("raw", ["lots", "1.5", ""])
    def test_malformed_env_raises_or_is_ignored(self, monkeypatch, raw):
        monkeypatch.setenv(self.ENV, raw)
        if raw:
            with pytest.raises(CalibrationError):
                self._resolve()
        else:  # empty string means unset
            assert self._resolve() == 1024

    def test_env_below_minimum_raises(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "0")
        with pytest.raises(CalibrationError, match=">= 1"):
            self._resolve(minimum=1)

    def test_env_change_takes_effect_immediately(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "128")
        assert self._resolve() == 128
        monkeypatch.setenv(self.ENV, "2048")
        assert self._resolve() == 2048


class TestEnvValidation:
    """Env vars are the only outside input; they check what a knob needs."""

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_float_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_X", raw)
        with pytest.raises(CalibrationError, match="finite"):
            resolve_knob(builtin=1.0, env_var="REPRO_X", cast=float)

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_batch_window_rejects_non_finite(self, monkeypatch, raw):
        from repro.serve.batching import default_batch_window_ms

        monkeypatch.setenv("REPRO_SERVE_BATCH_WINDOW_MS", raw)
        with pytest.raises(CalibrationError, match="REPRO_SERVE_BATCH_WINDOW_MS"):
            default_batch_window_ms()

    def test_batch_window_zero_still_allowed(self, monkeypatch):
        from repro.serve.batching import default_batch_window_ms

        monkeypatch.setenv("REPRO_SERVE_BATCH_WINDOW_MS", "0")
        assert default_batch_window_ms() == 0.0


def _kernel_budget():
    from repro.hdc.kernels import cell_budget

    return cell_budget()


def _chunk_rows():
    from repro.streaming import default_chunk_rows

    return default_chunk_rows()


def _workers():
    from repro.runtime import default_workers

    return default_workers()


def _cluster_workers():
    from repro.cluster import default_cluster_workers

    return default_cluster_workers()


def _batch_window_ms():
    from repro.serve.batching import default_batch_window_ms

    return default_batch_window_ms()


def _batch_max():
    from repro.serve.batching import default_batch_max

    return default_batch_max()


def _max_queue():
    from repro.serve.batching import default_max_queue

    return default_max_queue()


#: Every env knob: its variable, the consumer that reads it, and a value
#: just outside its bound.
KNOB_BOUNDS = (
    ("REPRO_KERNEL_BUDGET", _kernel_budget, "0"),
    ("REPRO_CHUNK_ROWS", _chunk_rows, "0"),
    ("REPRO_WORKERS", _workers, "0"),
    ("REPRO_CLUSTER_WORKERS", _cluster_workers, "0"),
    ("REPRO_SERVE_BATCH_WINDOW_MS", _batch_window_ms, "-0.001"),
    ("REPRO_SERVE_BATCH_MAX", _batch_max, "0"),
    ("REPRO_SERVE_MAX_QUEUE", _max_queue, "0"),
)

#: Every knob, the cell budget included, goes through ``resolve_knob``.
KNOB_ERRORS = CalibrationError


class TestValidation:
    """Every knob refuses what its bound refuses, naming the variable.

    These are the checks a knob value used to pass on its way in from a
    measured knob file; env vars now carry them alone.
    """

    @pytest.mark.parametrize("value", ["0", "-1", "fast", "None", "True"])
    def test_non_positive_or_non_numeric_knob_rejected(self, monkeypatch, value):
        from repro.streaming import default_chunk_rows

        monkeypatch.setenv("REPRO_CHUNK_ROWS", value)
        with pytest.raises(CalibrationError, match="REPRO_CHUNK_ROWS"):
            default_chunk_rows()

    @pytest.mark.parametrize(
        "env_var, consumer, raw", KNOB_BOUNDS, ids=[k[0] for k in KNOB_BOUNDS]
    )
    def test_every_knob_enforces_its_bound(self, monkeypatch, env_var, consumer, raw):
        monkeypatch.setenv(env_var, raw)
        with pytest.raises(KNOB_ERRORS, match=env_var):
            consumer()

    @pytest.mark.parametrize(
        "env_var, consumer",
        [k[:2] for k in KNOB_BOUNDS],
        ids=[k[0] for k in KNOB_BOUNDS],
    )
    def test_every_knob_rejects_unparsable(self, monkeypatch, env_var, consumer):
        monkeypatch.setenv(env_var, "fast")
        with pytest.raises(KNOB_ERRORS, match=env_var):
            consumer()


class TestConsumers:
    """The knob owners resolve through the env chain end to end."""

    def test_chunk_rows_consumer(self, monkeypatch):
        from repro.streaming import default_chunk_rows

        assert default_chunk_rows() == 1024
        monkeypatch.setenv("REPRO_CHUNK_ROWS", "200")
        assert default_chunk_rows() == 200
        assert default_chunk_rows(77) == 77  # explicit arg still wins

    def test_workers_consumer(self, monkeypatch):
        from repro.runtime import default_workers

        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert default_workers() == 2
        assert default_workers(3) == 3

    def test_cluster_workers_consumer(self, monkeypatch):
        from repro.cluster import default_cluster_workers

        assert default_cluster_workers() == 1
        monkeypatch.setenv("REPRO_CLUSTER_WORKERS", "4")
        assert default_cluster_workers() == 4
        assert default_cluster_workers(2) == 2

    def test_cell_budget_consumer(self, monkeypatch):
        from repro.hdc.kernels import DEFAULT_CELL_BUDGET, cell_budget

        assert cell_budget() == DEFAULT_CELL_BUDGET
        monkeypatch.setenv("REPRO_KERNEL_BUDGET", "2000000")
        assert cell_budget() == 2_000_000

