"""Canonical benchmark result paths: one writer, one layout.

Every benchmark that records a machine-readable report writes it through
:func:`write_result`, which puts the full report under
``benchmarks/results/`` (``benchmarks/results/<name>.json``) next to the
cached experiment artifacts — one directory holds every measurement the
repo produces.

See ``docs/PERFORMANCE.md`` for the layout story and what each report
contains.
"""

from __future__ import annotations

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"


def write_result(name: str, payload: dict) -> Path:
    """Write a benchmark report to its canonical location.

    ``name`` is the bare report name (``"BENCH_kernels"``); the full
    ``payload`` lands at ``benchmarks/results/<name>.json``.  Returns the
    canonical path.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    canonical = RESULTS_DIR / f"{name}.json"
    canonical.write_text(json.dumps(payload, indent=2) + "\n")
    return canonical
