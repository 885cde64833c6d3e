"""repro.tuning — performance knobs.

:mod:`repro.tuning.calibration` holds the **knobs**: :func:`resolve_knob`
gives every consumer the one precedence rule, explicit arg > ``REPRO_*``
env var > built-in.  Malformed env values (unparsable, non-finite, out
of bounds) raise :class:`~repro.exceptions.CalibrationError`.

Knobs move only blocking and scheduling decisions — results
are bit-identical for any value (property-tested through arguments and
environment variables in ``tests/tuning/``).  The budgets those
decisions must meet are gated by the benchmark scripts CI runs; see
``docs/PERFORMANCE.md``.

>>> from repro.tuning import resolve_knob
>>> resolve_knob(builtin=1, arg=2)
2
"""

from __future__ import annotations

from .calibration import ENV_CALIBRATION, active_calibration, resolve_knob

__all__ = ["ENV_CALIBRATION", "active_calibration", "resolve_knob"]
