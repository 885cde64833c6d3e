"""repro.tuning — the stale-calibration guard.

Every performance knob is an argument with a built-in default, checked
once by the object that owns it (see ``docs/PERFORMANCE.md``); knobs
move only blocking and scheduling decisions, never results.  What is
left here is :func:`~repro.tuning.calibration.active_calibration`: a
leftover ``REPRO_CALIBRATION`` setting (measured knob files are no
longer read) raises :class:`~repro.exceptions.CalibrationError`.

>>> from repro.tuning import ENV_CALIBRATION
>>> ENV_CALIBRATION
'REPRO_CALIBRATION'
"""

from __future__ import annotations

from .. import _lazy

_EXPORTS = {
    "ENV_CALIBRATION": "calibration",
    "active_calibration": "calibration",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_namespace(__name__, _EXPORTS)
