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
import os
import platform
from pathlib import Path

import numpy as np

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


def host() -> dict:
    """The machine a recorded number was measured on."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:  # not Linux
        pass
    return {
        "cpu_model": model or platform.processor(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
