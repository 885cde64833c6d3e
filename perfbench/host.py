"""The checkout, the child-process environment and the host fingerprint."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def require_program() -> None:
    """Fail (before any result is printed) when the program's source is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"program source not found under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def require_builtin_knobs() -> None:
    """Refuse to run when any ``REPRO_*`` knob or calibration artifact is active."""
    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        raise SystemExit(f"unset {', '.join(knobs)}: every knob must take its built-in value")
    from repro.tuning.calibration import active_calibration

    if active_calibration() is not None:
        raise SystemExit("a calibration artifact is active; the benchmark needs built-in knobs")


def child_env() -> dict[str, str]:
    """Environment for the program's processes: no ``REPRO_*``, ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def cpu_times() -> tuple[int, int]:
    """(all CPU time, time stolen by the hypervisor) from /proc/stat, in ticks."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return (0, 0)
    return sum(fields), fields[7] if len(fields) > 7 else 0


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the CPU time between two :func:`cpu_times` readings that was stolen."""
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


def least_disturbed(steals: list[float], count: int) -> list[int]:
    """Indices of the ``count`` windows that lost the least CPU time, in order."""
    return sorted(sorted(range(len(steals)), key=lambda w: steals[w])[:count])


def steal_line(steals: list[float], used: list[int]) -> str:
    shares = ", ".join(f"{100 * x:.2f}%" for x in steals)
    return f"  windows measured {len(steals)}, CPU stolen by the host {shares}; used {used}"


def fingerprint() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        pass
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "repro_env": "unset",
        "calibration": "none",
    }
