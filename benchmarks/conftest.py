"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at full
scale, prints the measured rows next to the paper's published numbers,
persists the comparison under ``benchmarks/results/``, and asserts the
*qualitative shape* (who wins, roughly by how much).  Timing is collected
through pytest-benchmark (``--benchmark-only`` runs exactly these files).

Absolute numbers are not expected to match the paper: the datasets are
synthetic surrogates (:mod:`repro.datasets`).  Each run writes its
paper-vs-measured comparison to ``results/<name>.txt`` (not committed).

Pytest's default file pattern does not match ``bench_*.py``, so name the
files: ``python -m pytest benchmarks/bench_table*.py
benchmarks/bench_figure*.py benchmarks/bench_ablation*.py
benchmarks/bench_extension*.py --benchmark-only``.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Paper Table 1 — classification accuracy (percent).
PAPER_TABLE1 = {
    "knot_tying": {"random": 76.6, "level": 75.9, "circular": 84.0},
    "needle_passing": {"random": 76.0, "level": 76.0, "circular": 83.6},
    "suturing": {"random": 73.0, "level": 60.4, "circular": 78.7},
}

#: Paper Table 2 — regression MSE.
PAPER_TABLE2 = {
    "beijing": {"random": 441.1, "level": 126.8, "circular": 21.9},
    "mars_express": {"random": 1294.1, "level": 715.6, "circular": 339.1},
}


def save_report(name: str, text: str) -> None:
    """Print a benchmark report and persist it under ``results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments are seconds-long deterministic runs; repeating them
    for statistical timing would multiply the suite's duration without
    adding information.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
