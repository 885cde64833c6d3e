"""repro.tuning — performance knobs and the deadlines that gate them.

* :mod:`repro.tuning.calibration` — the **knobs**: :func:`resolve_knob`
  gives every consumer the one precedence rule, explicit arg >
  ``REPRO_*`` env var > built-in.  Malformed env values (unparsable,
  non-finite, out of bounds) raise
  :class:`~repro.exceptions.CalibrationError`.
* :mod:`repro.tuning.deadline` — the **gate**: ``repro check-deadline``
  replays a recorded workload spec (JSON: target, shape, latency / RSS
  budget) against the current configuration and fails non-zero on a
  miss, which is what CI runs.

Knobs move only crossover, blocking and scheduling decisions — results
are bit-identical for any value (property-tested through arguments and
environment variables in ``tests/tuning/``).

>>> from repro.tuning import resolve_knob
>>> resolve_knob(builtin=1, arg=2)
2
"""

from __future__ import annotations

from .calibration import ENV_CALIBRATION, active_calibration, resolve_knob
from .deadline import WorkloadSpec, check_deadline, load_workload, run_workload

__all__ = [
    "ENV_CALIBRATION",
    "active_calibration",
    "resolve_knob",
    "WorkloadSpec",
    "load_workload",
    "run_workload",
    "check_deadline",
]
