"""Traced server launcher: install the span wrappers, then run the CLI.

Usage::

    python perfbench/serve_child.py SPANS.json serve-http --model NAME=PATH ...

Everything after ``SPANS.json`` goes to ``repro.experiments``' own
``main``, so the traced server is the same program as the untraced one
(``python -m repro.experiments serve-http ...``) plus the wrappers.  On
exit (SIGINT stops the server) the recorded spans are written to
``SPANS.json``.
"""

from __future__ import annotations

import sys

from tracing import Recorder, install_serving


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from repro.tuning.calibration import active_calibration

    if active_calibration() is not None:
        raise SystemExit("a calibration artifact is active; the benchmark needs built-in knobs")
    rec = Recorder()
    install_serving(rec)
    from repro.experiments.__main__ import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
