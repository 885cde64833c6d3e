"""The ``--fast`` outputs docs/REPRODUCING.md prints are exactly reproducible.

REPRODUCING.md promises its sample outputs (``d = 1024``, seed 2023)
"are exactly reproducible".  These tests regenerate the Table 1 and
Figure 8 blocks with the CLI, bypassing the artifact cache, and compare
them line for line with the fenced blocks in the document.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.__main__ import main

DOC = Path(__file__).resolve().parents[2] / "docs" / "REPRODUCING.md"


def _documented_block(title: str) -> list[str]:
    """The fenced block of REPRODUCING.md whose first line starts with ``title``."""
    blocks = DOC.read_text(encoding="utf-8").split("```")
    for body in blocks[1::2]:
        lines = [line.rstrip() for line in body.strip("\n").splitlines()]
        if lines and lines[0].startswith(title):
            return lines
    raise AssertionError(f"no block starting with {title!r} in {DOC}")


@pytest.mark.parametrize(
    "target, title",
    [
        ("table1", "Table 1: classification accuracy"),
        ("figure8", "Figure 8: normalized error vs r"),
    ],
)
def test_fast_output_matches_the_document(target, title, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert main([target, "--fast", "--no-cache"]) == 0
    printed = [line.rstrip() for line in capsys.readouterr().out.strip("\n").splitlines()]
    assert printed == _documented_block(title)
    assert list(tmp_path.iterdir()) == []  # --no-cache wrote nothing
