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

from repro.exceptions import CalibrationError, InvalidParameterError
from repro.tuning import active_calibration, resolve_knob

#: Every knob variable a consumer reads; cleared before each test so the
#: built-ins are what an unconfigured test sees.
KNOB_VARS = (
    "REPRO_CALIBRATION",
    "REPRO_CHUNK_ROWS",
    "REPRO_WORKERS",
    "REPRO_CLUSTER_WORKERS",
    "REPRO_KERNEL_BUDGET",
    "REPRO_KERNEL_CROSSOVER",
    "REPRO_KERNEL_MT_CELLS",
    "REPRO_KERNEL_THREADS",
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

    def test_strict_minimum_excludes_the_bound(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "1")
        assert self._resolve(minimum=1) == 1
        with pytest.raises(CalibrationError, match="> 1"):
            self._resolve(minimum=1, strict=True)

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

    @pytest.mark.parametrize("raw", ["-5", "0", "nan", "inf"])
    def test_crossover_must_be_positive_and_finite(self, monkeypatch, raw):
        from repro.hdc.kernels import use_gemm

        monkeypatch.setenv("REPRO_KERNEL_CROSSOVER", raw)
        with pytest.raises(CalibrationError, match="REPRO_KERNEL_CROSSOVER"):
            use_gemm(1, 1000, 10_000)

    def test_small_positive_crossover_accepted(self, monkeypatch):
        from repro.hdc.kernels import use_gemm

        monkeypatch.setenv("REPRO_KERNEL_CROSSOVER", "0.1")
        assert use_gemm(1, 1000, 10_000)


def _kernel_budget():
    from repro.hdc.kernels import cell_budget

    return cell_budget()


def _kernel_crossover():
    from repro.hdc.kernels import _gemm_crossover

    return _gemm_crossover()


def _kernel_mt_cells():
    from repro.hdc.kernels import _xor_mt_min_cells

    return _xor_mt_min_cells()


def _kernel_threads():
    from repro.hdc.kernels import kernel_threads

    return kernel_threads()


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
    ("REPRO_KERNEL_CROSSOVER", _kernel_crossover, "0"),
    ("REPRO_KERNEL_MT_CELLS", _kernel_mt_cells, "0"),
    ("REPRO_KERNEL_THREADS", _kernel_threads, "0"),
    ("REPRO_CHUNK_ROWS", _chunk_rows, "0"),
    ("REPRO_WORKERS", _workers, "0"),
    ("REPRO_CLUSTER_WORKERS", _cluster_workers, "0"),
    ("REPRO_SERVE_BATCH_WINDOW_MS", _batch_window_ms, "-0.001"),
    ("REPRO_SERVE_BATCH_MAX", _batch_max, "0"),
    ("REPRO_SERVE_MAX_QUEUE", _max_queue, "0"),
)

#: The cell budget is read below the tuning layer and raises the
#: parameter error; every other knob goes through ``resolve_knob``.
KNOB_ERRORS = (CalibrationError, InvalidParameterError)


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

    def test_kernel_thresholds_consumer(self, monkeypatch):
        from repro.hdc.kernels import use_gemm, use_xor_mt

        assert not use_gemm(4, 4, 64)  # harmonic 2 < built-in 16
        assert not use_xor_mt(1, 1, 8)
        monkeypatch.setenv("REPRO_KERNEL_CROSSOVER", "2.0")
        monkeypatch.setenv("REPRO_KERNEL_MT_CELLS", "1")
        assert use_gemm(4, 4, 64)      # harmonic 2 >= 2.0
        assert use_xor_mt(1, 1, 8)     # every cube is over a 1-cell floor
        monkeypatch.setenv("REPRO_KERNEL_CROSSOVER", "1000000")
        assert not use_gemm(4, 4, 64)

    def test_kernel_threads_consumer(self, monkeypatch):
        from repro.hdc.kernels import kernel_threads

        monkeypatch.setenv("REPRO_KERNEL_THREADS", "5")
        assert kernel_threads() == 5
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "2")
        assert kernel_threads() == 2
        assert kernel_threads(9) == 9


class TestKernelKnobCacheInvalidation:
    """The memoised kernel dispatch knobs never serve a stale env value.

    The kernel tier memoises its resolved ``(gemm_crossover,
    xor_mt_min_cells)`` pair and thread count for hot-loop dispatch,
    keyed on the raw environment strings, so flipping a variable
    mid-process re-resolves on the next call with no cache hook.
    """

    def test_env_switch_mid_process_re_resolves(self, monkeypatch):
        from repro.hdc import kernels

        monkeypatch.setenv("REPRO_KERNEL_MT_CELLS", "11")
        assert kernels._xor_mt_min_cells() == 11
        assert kernels._knob_memo  # warmed
        monkeypatch.setenv("REPRO_KERNEL_MT_CELLS", "222")
        assert kernels._xor_mt_min_cells() == 222
        monkeypatch.delenv("REPRO_KERNEL_MT_CELLS")
        assert kernels._xor_mt_min_cells() == kernels.XOR_MT_MIN_CELLS

    def test_crossover_switch_mid_process_re_resolves(self, monkeypatch):
        from repro.hdc import kernels

        monkeypatch.setenv("REPRO_KERNEL_CROSSOVER", "3.5")
        assert kernels._gemm_crossover() == 3.5
        monkeypatch.setenv("REPRO_KERNEL_CROSSOVER", "7")
        assert kernels._gemm_crossover() == 7.0
        monkeypatch.delenv("REPRO_KERNEL_CROSSOVER")
        assert kernels._gemm_crossover() == kernels.AUTO_CROSSOVER

    def test_thread_switch_mid_process_re_resolves(self, monkeypatch):
        from repro.hdc import kernels

        monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
        assert kernels.kernel_threads() == 3
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "6")
        assert kernels.kernel_threads() == 6

    def test_invalid_value_is_never_memoised(self, monkeypatch):
        from repro.hdc import kernels

        monkeypatch.setenv("REPRO_KERNEL_CROSSOVER", "-5")
        for _ in range(2):  # a raise on the first call must not be cached
            with pytest.raises(CalibrationError):
                kernels._gemm_crossover()
