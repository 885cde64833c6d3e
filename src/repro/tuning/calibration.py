"""The stale-calibration guard.

Measured per-host knob files are no longer read: every performance
knob is an argument (and a CLI flag) with a built-in default, checked
by the object that owns it.  A leftover ``REPRO_CALIBRATION`` setting
fails loudly (see :func:`active_calibration`) rather than being
silently ignored.
"""

from __future__ import annotations

import os

from ..exceptions import CalibrationError

__all__ = ["ENV_CALIBRATION", "active_calibration"]

#: Environment variable that used to point at a measured knob file.
#: Setting it is now an error (see :func:`active_calibration`).
ENV_CALIBRATION = "REPRO_CALIBRATION"


def active_calibration() -> None:
    """Guard against a stale ``REPRO_CALIBRATION`` setting.

    Returns ``None`` when the variable is unset (or empty).  When it is
    set, raises :class:`~repro.exceptions.CalibrationError` naming the
    variable, so a process configured for measured knob files fails at
    start-up (the CLI's ``main`` and the benchmark harness call this
    first) instead of quietly running on other values.

    >>> import os
    >>> os.environ.pop("REPRO_CALIBRATION", None) and None
    >>> active_calibration() is None
    True
    """
    raw = os.environ.get(ENV_CALIBRATION)
    if raw:
        raise CalibrationError(
            f"{ENV_CALIBRATION} is set ({raw!r}), but measured knob files are "
            "no longer read; unset it and pass the knob as an argument or "
            "CLI flag instead"
        )
    return None
