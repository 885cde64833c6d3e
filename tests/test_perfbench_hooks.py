"""The benchmark's tracing wrappers still find every name they patch.

``perfbench/tracing.py`` wraps library functions at the names their
callers look up (class attributes and module globals such as
``BatchEncoder.chunk_counts`` or ``runtime.batch.majority_from_counts``).
A refactor that deletes or renames one of them breaks traced benchmark
runs; this test makes it fail here instead.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
from tracing import Recorder, install_serving, install_training

install_serving(Recorder())
install_training(Recorder())
"""


def test_tracing_hooks_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
