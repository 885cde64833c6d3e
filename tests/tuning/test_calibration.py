"""The calibration artifact: round-trip, validation, precedence.

The contract under test: an artifact survives a save/load round-trip
unchanged; anything malformed raises
:class:`~repro.exceptions.CalibrationError` instead of silently
mis-tuning the process; and every knob resolves through the one
precedence chain *explicit arg > env var > artifact > built-in*.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import CalibrationError
from repro.tuning import (
    SCHEMA_VERSION,
    Calibration,
    active_calibration,
    invalidate_cache,
    load_calibration,
    resolve_knob,
    save_calibration,
)


@pytest.fixture(autouse=True)
def _clean_calibration_env(monkeypatch):
    """Each test starts with no active artifact and cold caches."""
    monkeypatch.delenv("REPRO_CALIBRATION", raising=False)
    invalidate_cache()
    yield
    invalidate_cache()


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        cal = Calibration.from_knobs(
            {
                "kernels": {"gemm_crossover": 24.0, "xor_mt_min_cells": 500_000},
                "streaming": {"chunk_rows": 512},
                "runtime": {"workers": 2},
            }
        )
        path = save_calibration(cal, tmp_path / "calibration.json")
        loaded = load_calibration(path)
        assert loaded.knobs == cal.knobs
        assert loaded.get("kernels", "gemm_crossover") == 24.0
        assert loaded.get("runtime", "workers") == 2

    def test_artifact_records_schema_and_host(self, tmp_path):
        path = save_calibration(
            Calibration.from_knobs({"runtime": {"workers": 1}}),
            tmp_path / "calibration.json",
        )
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert "host" in payload

    def test_save_creates_parent_dirs(self, tmp_path):
        path = save_calibration(
            Calibration.from_knobs({"runtime": {"workers": 1}}),
            tmp_path / "deep" / "nested" / "calibration.json",
        )
        assert path.exists()

    def test_save_never_leaves_temp_files(self, tmp_path):
        save_calibration(
            Calibration.from_knobs({"runtime": {"workers": 1}}),
            tmp_path / "calibration.json",
        )
        assert [p.name for p in tmp_path.iterdir()] == ["calibration.json"]


class TestValidation:
    def test_wrong_schema_version_rejected(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps({"schema": 999, "knobs": {}}))
        with pytest.raises(CalibrationError, match="schema"):
            load_calibration(path)

    def test_unknown_section_rejected(self):
        with pytest.raises(CalibrationError, match="section"):
            Calibration.from_knobs({"quantum": {"flux": 1}})

    def test_unknown_knob_rejected(self):
        with pytest.raises(CalibrationError, match="knob"):
            Calibration.from_knobs({"kernels": {"warp_factor": 9}})

    def test_retired_process_pool_knob_rejected(self, tmp_path):
        """Artifacts written while serving had a worker-process tier carry
        a knob that no longer exists; loading one fails and names it.
        (The name is assembled so a search for it finds no live use.)"""
        retired = "_".join(("proc", "workers"))
        path = tmp_path / "calibration.json"
        path.write_text(
            json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "knobs": {"serve": {"batch_max": 32, retired: 2}},
                }
            )
        )
        with pytest.raises(CalibrationError, match=f"serve\\.{retired}"):
            load_calibration(path)

    def test_retired_ingest_section_rejected(self, tmp_path):
        """Artifacts from before ingest lost its tuning knobs carry an
        ``ingest`` section; loading one fails and names it rather than
        silently falling back to the built-ins."""
        path = tmp_path / "calibration.json"
        path.write_text(
            json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "knobs": {"ingest": {"block_rows": 256}},
                }
            )
        )
        with pytest.raises(CalibrationError, match="'ingest'"):
            load_calibration(path)

    @pytest.mark.parametrize("value", [0, -1, "fast", None, True])
    def test_non_positive_or_non_numeric_knob_rejected(self, value):
        with pytest.raises(CalibrationError):
            Calibration.from_knobs({"streaming": {"chunk_rows": value}})

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text('{"schema": 1, "knobs": {')
        with pytest.raises(CalibrationError, match="JSON"):
            load_calibration(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CalibrationError):
            load_calibration(tmp_path / "nope.json")


class TestActivation:
    def test_no_env_means_no_calibration(self):
        assert active_calibration() is None

    def test_env_activates_artifact(self, tmp_path, monkeypatch):
        path = save_calibration(
            Calibration.from_knobs({"streaming": {"chunk_rows": 333}}),
            tmp_path / "calibration.json",
        )
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        active = active_calibration()
        assert active is not None
        assert active.get("streaming", "chunk_rows") == 333

    def test_env_pointing_nowhere_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CALIBRATION", str(tmp_path / "missing.json"))
        with pytest.raises(CalibrationError):
            active_calibration()

    def test_rewritten_artifact_is_picked_up(self, tmp_path, monkeypatch):
        path = tmp_path / "calibration.json"
        save_calibration(
            Calibration.from_knobs({"runtime": {"workers": 1}}), path
        )
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        assert active_calibration().get("runtime", "workers") == 1
        save_calibration(
            Calibration.from_knobs({"runtime": {"workers": 3}}), path
        )
        assert active_calibration().get("runtime", "workers") == 3


class TestPrecedence:
    """arg > env > calibration > built-in, at every link of the chain."""

    ENV = "REPRO_CHUNK_ROWS"

    def _resolve(self, **kwargs):
        return resolve_knob(
            "streaming", "chunk_rows", builtin=1024, env_var=self.ENV, **kwargs
        )

    def _activate(self, tmp_path, monkeypatch, chunk_rows):
        path = save_calibration(
            Calibration.from_knobs({"streaming": {"chunk_rows": chunk_rows}}),
            tmp_path / "calibration.json",
        )
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))

    def test_builtin_when_nothing_configured(self):
        assert self._resolve() == 1024

    def test_calibration_beats_builtin(self, tmp_path, monkeypatch):
        self._activate(tmp_path, monkeypatch, 256)
        assert self._resolve() == 256

    def test_env_beats_calibration(self, tmp_path, monkeypatch):
        self._activate(tmp_path, monkeypatch, 256)
        monkeypatch.setenv(self.ENV, "512")
        assert self._resolve() == 512

    def test_arg_beats_everything(self, tmp_path, monkeypatch):
        self._activate(tmp_path, monkeypatch, 256)
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
        with pytest.raises(CalibrationError):
            resolve_knob(
                "streaming", "chunk_rows", builtin=1024, env_var=self.ENV, minimum=1
            )

    def test_env_change_takes_effect_immediately(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "128")
        assert self._resolve() == 128
        monkeypatch.setenv(self.ENV, "2048")
        assert self._resolve() == 2048  # resolved-knob memo keys on the raw value


class TestConsumers:
    """The knob owners resolve through the artifact end to end."""

    def _activate(self, tmp_path, monkeypatch, knobs):
        path = save_calibration(
            Calibration.from_knobs(knobs), tmp_path / "calibration.json"
        )
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))

    def test_chunk_rows_consumer(self, tmp_path, monkeypatch):
        from repro.streaming import default_chunk_rows

        assert default_chunk_rows() == 1024
        self._activate(tmp_path, monkeypatch, {"streaming": {"chunk_rows": 200}})
        assert default_chunk_rows() == 200
        assert default_chunk_rows(77) == 77  # explicit arg still wins

    def test_workers_consumer(self, tmp_path, monkeypatch):
        from repro.runtime import default_workers

        assert default_workers() == 1
        self._activate(tmp_path, monkeypatch, {"runtime": {"workers": 2}})
        assert default_workers() == 2
        assert default_workers(3) == 3

    def test_cell_budget_consumer(self, tmp_path, monkeypatch):
        from repro.hdc.kernels import DEFAULT_CELL_BUDGET, cell_budget

        assert cell_budget() == DEFAULT_CELL_BUDGET
        self._activate(tmp_path, monkeypatch, {"kernels": {"cell_budget": 1_000_000}})
        assert cell_budget() == 1_000_000
        monkeypatch.setenv("REPRO_KERNEL_BUDGET", "2000000")
        assert cell_budget() == 2_000_000  # env still beats the artifact

    def test_kernel_thresholds_consumer(self, tmp_path, monkeypatch):
        from repro.hdc.kernels import use_gemm, use_xor_mt

        self._activate(
            tmp_path,
            monkeypatch,
            {"kernels": {"gemm_crossover": 2.0, "xor_mt_min_cells": 1}},
        )
        assert use_gemm(4, 4, 64)      # harmonic 2 >= 2.0
        assert use_xor_mt(1, 1, 8)     # every cube is over a 1-cell floor
        monkeypatch.setenv("REPRO_KERNEL_CROSSOVER", "1000000")
        assert not use_gemm(4, 4, 64)

    def test_kernel_threads_consumer(self, tmp_path, monkeypatch):
        from repro.hdc.kernels import kernel_threads

        self._activate(tmp_path, monkeypatch, {"kernels": {"xor_mt_threads": 5}})
        assert kernel_threads() == 5
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "2")
        assert kernel_threads() == 2
        assert kernel_threads(9) == 9


class TestKernelKnobCacheInvalidation:
    """The memoised kernel dispatch knobs never serve a stale artifact.

    The kernel tier memoises its resolved ``(gemm_crossover,
    xor_mt_min_cells)`` pair for hot-loop dispatch, so the memo must be
    dropped whenever the active calibration can have changed: an
    explicit ``invalidate_cache()``, an in-process ``save_calibration``
    (re-calibration), or the process flipping ``REPRO_CALIBRATION`` to a
    different artifact mid-run.
    """

    @pytest.fixture(autouse=True)
    def _no_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_MT_CELLS", raising=False)

    def _artifact(self, tmp_path, name, min_cells):
        return save_calibration(
            Calibration.from_knobs({"kernels": {"xor_mt_min_cells": min_cells}}),
            tmp_path / name,
        )

    def test_env_switch_mid_process_re_resolves(self, tmp_path, monkeypatch):
        from repro.hdc import kernels

        first = self._artifact(tmp_path, "a.json", 11)
        second = self._artifact(tmp_path, "b.json", 222)
        monkeypatch.setenv("REPRO_CALIBRATION", str(first))
        assert kernels._xor_mt_min_cells() == 11
        # Flip the artifact without touching any cache hook: the memo
        # key includes the raw env string, so this alone must re-resolve.
        monkeypatch.setenv("REPRO_CALIBRATION", str(second))
        assert kernels._xor_mt_min_cells() == 222
        monkeypatch.delenv("REPRO_CALIBRATION")
        assert kernels._xor_mt_min_cells() == kernels.XOR_MT_MIN_CELLS

    def test_save_calibration_invalidates_warm_memo(self, tmp_path, monkeypatch):
        from repro.hdc import kernels

        path = self._artifact(tmp_path, "calibration.json", 33)
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        assert kernels._xor_mt_min_cells() == 33  # warm the memo
        # Re-calibrating over the same path (same env string, so the
        # memo key alone would not notice) must still be picked up:
        # save_calibration clears every registered knob cache.
        self._artifact(tmp_path, "calibration.json", 44)
        assert kernels._xor_mt_min_cells() == 44

    def test_invalidate_cache_clears_the_memo(self, tmp_path, monkeypatch):
        from repro.hdc import kernels

        path = self._artifact(tmp_path, "calibration.json", 55)
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        assert kernels._xor_mt_min_cells() == 55
        assert kernels._knob_memo  # warmed
        invalidate_cache()
        assert not kernels._knob_memo
        assert kernels._xor_mt_min_cells() == 55  # re-resolves cleanly
