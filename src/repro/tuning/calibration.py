"""The calibration artifact: measured performance knobs as data.

Every performance knob in this repository — the kernel crossover, the
allocation budget, the streaming chunk size, the worker count — used to
be a built-in constant tuned on one development machine.  This module
turns them into a **versioned, schema-checked JSON artifact** measured
on the host that will actually run the workload (``repro calibrate``,
:mod:`repro.tuning.measure`) and consumed by every layer that owns a
knob (kernel dispatch, the streaming trainer, the serving engine).

The contract:

* **Artifact** — one JSON file with a ``schema`` version, host
  provenance, and a ``knobs`` mapping of section → name → value.
  Written atomically (temp file + ``os.replace``), validated on load;
  an unreadable or wrong-schema file raises
  :class:`~repro.exceptions.CalibrationError` instead of silently
  mis-tuning the process.
* **Activation** — the ``REPRO_CALIBRATION`` environment variable
  points at the artifact.  When unset, every knob falls back to its
  built-in default, so nothing changes for uncalibrated processes.
* **Precedence** — consumers resolve each knob through
  :func:`resolve_knob`: an explicit argument wins, then the knob's own
  environment variable (``REPRO_KERNEL_BUDGET`` and friends), then the
  calibration artifact, then the built-in constant.
* **Bit-identity** — calibration only moves crossover, blocking and
  scheduling decisions.  Every consumer is bit-identical for any knob
  value (property-tested with adversarial artifacts in
  ``tests/tuning/``), so a stale or wrong artifact can cost time but
  never correctness.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
from pathlib import Path
from typing import Any, Callable, TypeVar, Union

from ..exceptions import CalibrationError

__all__ = [
    "SCHEMA_VERSION",
    "ENV_CALIBRATION",
    "KNOB_SCHEMA",
    "Calibration",
    "load_calibration",
    "save_calibration",
    "active_calibration",
    "resolve_knob",
    "register_cache",
    "invalidate_cache",
]

#: Artifact schema version this library writes and understands.
SCHEMA_VERSION = 1

#: Environment variable pointing at the active calibration artifact.
ENV_CALIBRATION = "REPRO_CALIBRATION"

T = TypeVar("T", int, float)


def _positive_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _positive_real(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and float(value) > 0.0
    )


#: The knobs a valid artifact may carry: section → name → validator.
#: Extra sections/names are rejected (a typo'd knob should fail loudly,
#: not silently fall back to the built-in).
KNOB_SCHEMA: dict[str, dict[str, Callable[[Any], bool]]] = {
    "kernels": {
        "gemm_crossover": _positive_real,
        "xor_mt_min_cells": _positive_int,
        "xor_mt_threads": _positive_int,
        "cell_budget": _positive_int,
    },
    "streaming": {
        "chunk_rows": _positive_int,
    },
    "cluster": {
        "workers": _positive_int,
    },
    "runtime": {
        "workers": _positive_int,
    },
    "serve": {
        "batch_window_ms": _positive_real,
        "batch_max": _positive_int,
        "max_queue": _positive_int,
    },
}


class Calibration:
    """A loaded calibration artifact: validated knobs plus provenance.

    Construct with :meth:`from_knobs` (fresh measurement) or
    :func:`load_calibration` (from disk).  The payload is validated on
    construction — a :class:`Calibration` in hand is always usable.

    >>> cal = Calibration.from_knobs({"kernels": {"gemm_crossover": 24.0}})
    >>> cal.get("kernels", "gemm_crossover")
    24.0
    >>> cal.get("streaming", "chunk_rows") is None   # not measured
    True
    """

    __slots__ = ("payload", "path")

    def __init__(self, payload: dict, path: Union[Path, None] = None) -> None:
        _validate_payload(payload)
        self.payload = payload
        self.path = path

    @classmethod
    def from_knobs(
        cls, knobs: dict[str, dict[str, Any]], meta: Union[dict, None] = None
    ) -> "Calibration":
        """Wrap freshly measured knobs in a full artifact payload."""
        payload = {
            "schema": SCHEMA_VERSION,
            "host": {
                "platform": platform.platform(),
                "machine": platform.machine(),
                "python": platform.python_version(),
                "cpus": os.cpu_count() or 1,
            },
            "knobs": knobs,
        }
        if meta:
            payload["meta"] = dict(meta)
        return cls(payload)

    @property
    def knobs(self) -> dict:
        """The section → name → value mapping."""
        return self.payload["knobs"]

    def get(self, section: str, name: str) -> Any:
        """One knob's value, or ``None`` when the artifact omits it."""
        return self.payload["knobs"].get(section, {}).get(name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sections = {k: sorted(v) for k, v in self.knobs.items()}
        return f"Calibration(path={self.path}, knobs={sections})"


def _validate_payload(payload: Any) -> None:
    if not isinstance(payload, dict):
        raise CalibrationError(
            f"calibration artifact must be a JSON object, got {type(payload).__name__}"
        )
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise CalibrationError(
            f"calibration schema {schema!r} is not supported "
            f"(this library reads schema {SCHEMA_VERSION}); re-run `repro calibrate`"
        )
    knobs = payload.get("knobs")
    if not isinstance(knobs, dict):
        raise CalibrationError("calibration artifact is missing its 'knobs' object")
    for section, values in knobs.items():
        if section not in KNOB_SCHEMA:
            raise CalibrationError(
                f"unknown calibration section {section!r} "
                f"(expected one of {sorted(KNOB_SCHEMA)})"
            )
        if not isinstance(values, dict):
            raise CalibrationError(f"calibration section {section!r} must be an object")
        for name, value in values.items():
            validator = KNOB_SCHEMA[section].get(name)
            if validator is None:
                raise CalibrationError(
                    f"unknown calibration knob {section}.{name} "
                    f"(expected one of {sorted(KNOB_SCHEMA[section])})"
                )
            if not validator(value):
                raise CalibrationError(
                    f"calibration knob {section}.{name} has invalid value {value!r}"
                )


def save_calibration(
    calibration: Union[Calibration, dict], path: Union[str, os.PathLike]
) -> Path:
    """Atomically write a calibration artifact; returns the final path.

    The payload is validated first, then written to a temporary file in
    the destination directory and renamed into place (``os.replace``),
    so the artifact on disk is always either the previous complete
    version or the new complete version — a crashed calibrate never
    leaves a truncated file for ``REPRO_CALIBRATION`` to trip over.

    >>> import tempfile, pathlib
    >>> cal = Calibration.from_knobs({"runtime": {"workers": 2}})
    >>> with tempfile.TemporaryDirectory() as d:
    ...     out = save_calibration(cal, pathlib.Path(d) / "calibration.json")
    ...     load_calibration(out).get("runtime", "workers")
    2
    """
    if isinstance(calibration, Calibration):
        payload = calibration.payload
    else:
        _validate_payload(calibration)
        payload = calibration
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    invalidate_cache()  # a rewritten artifact must be re-read everywhere
    return path


def load_calibration(path: Union[str, os.PathLike]) -> Calibration:
    """Load and validate a calibration artifact from disk.

    Raises :class:`~repro.exceptions.CalibrationError` for unreadable
    files, non-JSON content, unsupported schema versions and malformed
    knob values — a bad artifact fails loudly at load time, never as a
    mysterious mis-dispatch later.

    >>> import tempfile, pathlib
    >>> with tempfile.TemporaryDirectory() as d:
    ...     p = save_calibration(
    ...         Calibration.from_knobs({"kernels": {"cell_budget": 1000}}),
    ...         pathlib.Path(d) / "c.json")
    ...     load_calibration(p).get("kernels", "cell_budget")
    1000
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CalibrationError(f"cannot read calibration artifact {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise CalibrationError(
            f"calibration artifact {path} is not valid JSON: {exc}"
        ) from exc
    calibration = Calibration(payload, path=path)
    return calibration


#: Cache of the env-activated artifact: (path, mtime_ns, size) → Calibration.
_active_cache: dict[tuple[str, int, int], Calibration] = {}


#: Memo of fully resolved knob values, keyed by everything the answer
#: depends on (knob coordinates, raw env string, active artifact).  The
#: kernel dispatcher resolves knobs on every similarity call, so the
#: cast/validate work must not be repaid per call.
_resolved_cache: dict[tuple, Any] = {}

#: Consumer-side memos (see :func:`register_cache`), cleared together
#: with the caches above.
_consumer_caches: list[dict] = []


def register_cache(cache: dict) -> None:
    """Register a consumer-side knob memo with the invalidation hooks.

    Hot consumers (the kernel dispatcher) keep their own resolved-knob
    memo keyed on raw environment strings, cheaper to probe than the
    full precedence chain.  Registering it here makes
    :func:`invalidate_cache` (and every :func:`save_calibration`) clear
    it, so an in-process re-calibration is picked up immediately.
    """
    _consumer_caches.append(cache)


def invalidate_cache() -> None:
    """Drop the cached env-activated artifact (tests, hot re-calibration)."""
    _active_cache.clear()
    _resolved_cache.clear()
    for cache in _consumer_caches:
        cache.clear()


def active_calibration() -> Union[Calibration, None]:
    """The calibration the current process should consume, or ``None``.

    Resolution: the ``REPRO_CALIBRATION`` environment variable names the
    artifact path; unset (or empty) means *no calibration* and every
    knob falls back through its remaining precedence chain.  The loaded
    artifact is cached keyed by the file's identity (path, mtime, size),
    so the hot paths pay one ``stat`` per call, not a JSON parse — and a
    re-written artifact is picked up without restarting.

    A set-but-unusable artifact raises
    :class:`~repro.exceptions.CalibrationError`: an explicitly activated
    calibration must be valid.

    >>> import os
    >>> os.environ.pop("REPRO_CALIBRATION", None) and None
    >>> active_calibration() is None
    True
    """
    raw = os.environ.get(ENV_CALIBRATION)
    if not raw:
        return None
    path = Path(raw)
    try:
        stat = path.stat()
    except OSError as exc:
        raise CalibrationError(
            f"{ENV_CALIBRATION} points at {path}, which cannot be read: {exc}"
        ) from exc
    key = (str(path), stat.st_mtime_ns, stat.st_size)
    cached = _active_cache.get(key)
    if cached is None:
        cached = load_calibration(path)
        _active_cache.clear()  # one active artifact at a time
        _resolved_cache.clear()  # resolved knobs may have changed
        _active_cache[key] = cached
    return cached


def resolve_knob(
    section: str,
    name: str,
    builtin: T,
    arg: Union[T, None] = None,
    env_var: Union[str, None] = None,
    cast: Callable[[str], T] = int,
    minimum: Union[T, None] = None,
) -> T:
    """Resolve one performance knob through the precedence chain.

    ``explicit arg > env var > calibration artifact > built-in`` — the
    one rule every consumer follows, so a knob can always be forced per
    call (tests), per process (env), per host (artifact) or not at all.

    Parameters
    ----------
    section, name:
        The knob's coordinates in the artifact (see :data:`KNOB_SCHEMA`).
    builtin:
        The built-in default used when nothing else resolves.
    arg:
        An explicit caller argument; ``None`` means "not given".
    env_var:
        The knob's own environment variable, consulted when set and
        non-empty.  A malformed value raises
        :class:`~repro.exceptions.CalibrationError`.
    cast:
        Parser for the env string (``int`` or ``float``).
    minimum:
        Lower bound enforced on env values.

    >>> resolve_knob("streaming", "chunk_rows", builtin=1024, arg=512)
    512
    >>> resolve_knob("streaming", "chunk_rows", builtin=1024)   # no artifact
    1024
    """
    if arg is not None:
        return arg
    raw = os.environ.get(env_var) if env_var else None
    calibration = active_calibration()
    key = (section, name, env_var, raw, calibration)
    if key in _resolved_cache:
        return _resolved_cache[key]
    if raw:
        try:
            value = cast(raw)
        except ValueError:
            raise CalibrationError(
                f"{env_var} must parse as {cast.__name__}, got {raw!r}"
            ) from None
        if minimum is not None and value < minimum:
            raise CalibrationError(
                f"{env_var} must be >= {minimum}, got {raw!r}"
            )
    elif calibration is not None and calibration.get(section, name) is not None:
        knob = calibration.get(section, name)
        value = cast(knob) if not isinstance(knob, bool) else builtin
    else:
        value = builtin
    if len(_resolved_cache) > 128:
        _resolved_cache.clear()
    _resolved_cache[key] = value
    return value
