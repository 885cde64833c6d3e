"""Concurrent ``:predict`` traffic for the HTTP tests.

The socket client is ``perfbench/loadgen.py``'s ``Connection`` and
``build_request``, imported read-only, so the tests and the benchmark
speak to the server through one client.  Rows come from
``np.random.default_rng(seed).uniform``; answers are checked against
:func:`repro.serve.oracle_transcript`.
"""

from __future__ import annotations

import asyncio
import importlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.serve import TraceRequest

PERFBENCH_DIR = Path(__file__).resolve().parents[2] / "perfbench"
if str(PERFBENCH_DIR) not in sys.path:
    sys.path.append(str(PERFBENCH_DIR))

loadgen = importlib.import_module("loadgen")


def mixed_trace(specs: dict[str, tuple[int, float, float]], n: int, seed: int) -> list:
    """``n`` requests cycling through ``specs``' models in sorted order.

    ``specs`` maps a model name to ``(num_features, low, high)``; each
    row is uniform in ``[low, high)``.
    """
    rng = np.random.default_rng(seed)
    names = sorted(specs)
    trace = []
    for i in range(n):
        model = names[i % len(names)]
        num_features, low, high = specs[model]
        row = tuple(float(v) for v in rng.uniform(low, high, num_features))
        trace.append(TraceRequest(id=i, t=0.0, model=model, features=row))
    return trace


async def post_all(host: str, port: int, trace: list, connections: int) -> tuple[list, int]:
    """POST every request of ``trace`` over ``connections`` keep-alive connections.

    Each connection sends its next request as soon as its last one is
    answered.  Returns every request's ``(status, decoded body)`` in
    trace order, and the most requests that were in flight at once.
    """
    wire = [
        loadgen.build_request(f"{host}:{port}", req.model, {"features": list(req.features)})
        for req in trace
    ]
    answers: list = [None] * len(wire)
    pending = iter(range(len(wire)))
    gauge = {"now": 0, "peak": 0}

    async def worker(conn) -> None:
        for i in pending:
            gauge["now"] += 1
            gauge["peak"] = max(gauge["peak"], gauge["now"])
            try:
                status, body = await conn.roundtrip(wire[i])
            finally:
                gauge["now"] -= 1
            answers[i] = status, json.loads(body)

    conns = await loadgen.open_connections(host, port, connections)
    try:
        await asyncio.gather(*(worker(conn) for conn in conns))
    finally:
        await loadgen.close_connections(conns)
    return answers, gauge["peak"]
