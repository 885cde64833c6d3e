"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` from numpy, etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DimensionMismatchError",
    "InvalidHypervectorError",
    "InvalidParameterError",
    "EncodingDomainError",
    "EmptyModelError",
    "ModelFormatError",
    "CalibrationError",
    "BackpressureError",
    "ClusterError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class DimensionMismatchError(ReproError, ValueError):
    """Raised when hypervectors of incompatible dimensionality are combined.

    HDC arithmetic is element-wise, so every operand of ``bind``, ``bundle``
    and distance computations must share its trailing (dimension) axis.
    """

    def __init__(self, expected: int, received: int, context: str = "") -> None:
        self.expected = expected
        self.received = received
        suffix = f" in {context}" if context else ""
        super().__init__(
            f"hypervector dimension mismatch{suffix}: "
            f"expected {expected}, received {received}"
        )


class InvalidHypervectorError(ReproError, ValueError):
    """Raised when an array is not a valid hypervector for the target space.

    For the binary spatter code (BSC) space used throughout the paper this
    means the array does not contain exclusively ``{0, 1}`` entries.
    """


class InvalidParameterError(ReproError, ValueError):
    """Raised when a constructor or function parameter is out of range.

    Examples: a non-positive dimension, a basis-set size below two, an
    ``r``-value outside ``[0, 1]``, or an odd circular set size where an
    even one is required.
    """


class EncodingDomainError(ReproError, ValueError):
    """Raised when a value lies outside the domain of a discretizer.

    Linear discretizers cover a closed interval ``[low, high]``; circular
    discretizers accept any real number (angles wrap), so they never raise
    this error.
    """


class EmptyModelError(ReproError, RuntimeError):
    """Raised when inference is attempted on a model with no training data."""


class ModelFormatError(ReproError, ValueError):
    """Raised when a persisted model file cannot be decoded.

    Covers unreadable containers, missing or malformed manifests, format
    versions newer than this library understands, and objects whose type
    has no registered serializer (see :mod:`repro.serve.persist`).
    """


class CalibrationError(ReproError, ValueError):
    """Raised when the process environment configures a knob unusably.

    Covers a ``REPRO_KERNEL_BUDGET`` that is not an integer ``>= 1``
    (:func:`repro.hdc.packed.cell_budget`) and a set
    ``REPRO_CALIBRATION`` (measured knob files are no longer read; see
    :mod:`repro.tuning`).  A knob passed as an argument is checked by
    its owner, which raises :class:`InvalidParameterError`.
    """


class BackpressureError(ReproError, RuntimeError):
    """Raised when a serving queue rejects a request under admission control.

    The serving tier bounds every per-model request queue; a submit
    against a full queue fails fast with this error instead of growing
    the queue without limit.  The HTTP front end maps it to a
    ``429 Too Many Requests`` response (see :mod:`repro.serve.server`).
    """


class ClusterError(ReproError, RuntimeError):
    """Raised when a distributed ingest run cannot be completed.

    Covers workers that exhaust their restart budget, workers that
    disagree about the stream length, and protocol violations on the
    coordinator's pipes (see :mod:`repro.cluster`).  A transient worker
    crash is *not* an error — the coordinator restarts the worker from
    its chunk cursor and the run continues.
    """
