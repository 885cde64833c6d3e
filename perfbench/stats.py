"""Sampling rules and interval arithmetic shared by every workload.

Two rules from the benchmark's contract live here so that the tests can
pin them:

* a percentile is reported only when at least ``MIN_BEYOND`` samples lie
  beyond it (:func:`percentile` raises :class:`RefusedPercentile`
  otherwise), and it is always reported with its sample count;
* a layer's self time is its span minus the part of that span that its
  children cover, where children may nest or overlap (:func:`self_time`).
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Sequence

#: Samples that must lie strictly beyond a percentile before it is reported.
MIN_BEYOND = 10

#: Metric names: a letter or digit, then letters, digits, ``_``, ``.``, ``-``.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Metric units: letters, digits, ``_``, ``/``, ``%``, ``.``, ``-``.
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class RefusedPercentile(ValueError):
    """A percentile was asked of a sample too small to support it."""


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    """Return ``unit`` if it is a valid metric unit, else raise ValueError."""
    if not UNIT_RE.match(unit):
        raise ValueError(f"invalid metric unit {unit!r}")
    return unit


def percentile(values: Sequence[float], q: float, weights: Sequence[int] | None = None) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``values``.

    ``weights`` (positive integers) count each value that many times, for
    samples that share one measurement, such as the rows of one chunk.
    Raises :class:`RefusedPercentile` when fewer than ``MIN_BEYOND``
    samples lie beyond the quantile's rank.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    if weights is None:
        weights = [1] * len(values)
    if len(weights) != len(values):
        raise ValueError("values and weights differ in length")
    pairs = sorted(zip(values, weights))
    total = sum(w for _, w in pairs)
    rank = math.ceil(q * total)  # 1-based rank of the quantile sample
    if total - rank < MIN_BEYOND:
        raise RefusedPercentile(
            f"p{q * 100:g} needs {MIN_BEYOND} samples beyond it; "
            f"{total} samples leave {max(total - rank, 0)}"
        )
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen >= rank:
            return float(value)
    raise AssertionError("unreachable: rank exceeds total weight")


def merge(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Overlapping or touching ``(start, end)`` intervals joined, in order."""
    out: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    return sum(hi - lo for lo, hi in merge(intervals))


def clip(interval: tuple[float, float], within: tuple[float, float]) -> tuple[float, float]:
    """``interval`` cut to ``within`` (empty intervals come back with end == start)."""
    lo = max(interval[0], within[0])
    hi = min(interval[1], within[1])
    return (lo, max(lo, hi))


def self_time(span: tuple[float, float], children: Iterable[tuple[float, float]]) -> float:
    """``span``'s duration minus the part of it that ``children`` cover."""
    covered = union_length(clip(child, span) for child in children)
    return (span[1] - span[0]) - covered
