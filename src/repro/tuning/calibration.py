"""Performance knobs: one precedence chain, ``arg > env var > built-in``.

Every performance knob in this repository — the kernel crossovers, the
streaming chunk size, the worker counts, the serving batch window —
resolves through :func:`resolve_knob`: an explicit argument wins, then
the knob's own ``REPRO_*`` environment variable, then the built-in
constant.  A knob can therefore be forced per call (tests) or per
process (env), and an unconfigured process runs on the built-ins.

Knobs only move crossover, blocking and scheduling decisions.  Every
consumer is bit-identical for any knob value (property-tested through
arguments and environment variables in ``tests/tuning/``), so a wrong
value can cost time but never correctness.  Malformed environment
values — unparsable, non-finite, or below the knob's bound — raise
:class:`~repro.exceptions.CalibrationError` instead of silently
mis-tuning the process.

Measured per-host knob files are no longer read.  A leftover
``REPRO_CALIBRATION`` setting fails loudly (see
:func:`active_calibration`) rather than being silently ignored.
"""

from __future__ import annotations

import math
import os
from typing import Callable, TypeVar

from ..exceptions import CalibrationError

__all__ = ["ENV_CALIBRATION", "active_calibration", "resolve_knob"]

#: Environment variable that used to point at a measured knob file.
#: Setting it is now an error (see :func:`active_calibration`).
ENV_CALIBRATION = "REPRO_CALIBRATION"

T = TypeVar("T", int, float)


def active_calibration() -> None:
    """Guard against a stale ``REPRO_CALIBRATION`` setting.

    Returns ``None`` when the variable is unset (or empty): every knob
    takes its explicit argument, its environment variable or its
    built-in.  When it is set, raises
    :class:`~repro.exceptions.CalibrationError` naming the variable, so
    a process configured for measured knob files fails at its first
    knob lookup instead of quietly running on other values.

    >>> import os
    >>> os.environ.pop("REPRO_CALIBRATION", None) and None
    >>> active_calibration() is None
    True
    """
    raw = os.environ.get(ENV_CALIBRATION)
    if raw:
        raise CalibrationError(
            f"{ENV_CALIBRATION} is set ({raw!r}), but measured knob files are "
            "no longer read; unset it and set the knob's own REPRO_* "
            "variable instead"
        )
    return None


def resolve_knob(
    builtin: T,
    arg: T | None = None,
    env_var: str | None = None,
    cast: Callable[[str], T] = int,
    minimum: T | None = None,
    strict: bool = False,
) -> T:
    """Resolve one performance knob through the precedence chain.

    ``explicit arg > env var > built-in`` — the one rule every consumer
    follows.  Each lookup first runs :func:`active_calibration`, so a
    stale ``REPRO_CALIBRATION`` raises here too.

    Parameters
    ----------
    builtin:
        The built-in default used when nothing else resolves.
    arg:
        An explicit caller argument; ``None`` means "not given".
    env_var:
        The knob's own environment variable, consulted when set and
        non-empty.  A malformed value raises
        :class:`~repro.exceptions.CalibrationError`.
    cast:
        Parser for the env string (``int`` or ``float``).  Non-finite
        floats (``nan``, ``inf``) are rejected.
    minimum, strict:
        Lower bound enforced on env values: ``value >= minimum``, or
        ``value > minimum`` when ``strict``.

    >>> resolve_knob(builtin=1024, arg=512)
    512
    >>> resolve_knob(builtin=1024)
    1024
    """
    active_calibration()
    if arg is not None:
        return arg
    raw = os.environ.get(env_var) if env_var else None
    if not raw:
        return builtin
    try:
        value = cast(raw)
    except ValueError:
        raise CalibrationError(
            f"{env_var} must parse as {cast.__name__}, got {raw!r}"
        ) from None
    if isinstance(value, float) and not math.isfinite(value):
        raise CalibrationError(f"{env_var} must be finite, got {raw!r}")
    if minimum is not None and (value <= minimum if strict else value < minimum):
        raise CalibrationError(
            f"{env_var} must be {'>' if strict else '>='} {minimum}, got {raw!r}"
        )
    return value
