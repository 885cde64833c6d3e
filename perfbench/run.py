"""Run one benchmark workload against the program and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0

Workloads are defined, with why each was chosen, in ``workloads.py``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``; every per-layer metric with ``--trace 1``.
A traced run measures the workload twice, untraced and then with span
recording switched on, so it can also report the cost of tracing
(``trace.overhead_frac.*``).  Human-readable lines above it give each
percentile with its sample count, the host fingerprint and, for traced
runs, the layer -> end-to-end prediction table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import sys

sys.dont_write_bytecode = True

from host import ROOT, fingerprint, require_builtin_knobs, require_program  # noqa: E402
from stats import check_name, check_unit  # noqa: E402

#: The metric declarations every run reports against.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: Per-layer metrics; a workload reports 0 for layers it does not run
#: (the serving layers on train_file and the other way round).
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
HIGHER_IS_BETTER = {m["name"] for m in SPEC["end_to_end"] if m["better"] == "higher"}

for _name, _unit in list(END_TO_END.items()) + list(PER_LAYER.items()):
    check_name(_name)
    check_unit(_unit)


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    values = {name: 0.0 for name in PER_LAYER}
    for name, (value, _unit, _n) in traced["layers"].items():
        if name not in PER_LAYER:
            raise KeyError(f"layer metric {name} is not declared in BENCHMARK.json")
        values[name] = value
    batching = traced["batching"]
    values["serve.batching.rows_per_batch"] = batching["rows_per_batch"]
    values["serve.batching.batches"] = batching["batches"]
    values["serve.batching.rejected"] = batching["rejected"]
    values["p99_ms"] = plain["p99_ms"]
    for name in END_TO_END:
        # Oriented so that a positive share is what tracing cost the metric.
        change = (traced[name] - plain[name]) / plain[name]
        values[f"trace.overhead_frac.{name}"] = -change if name in HIGHER_IS_BETTER else change
    return values


def report(workload, host: dict, plain: dict, traced: dict | None, search: dict | None) -> None:
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"workload {workload.name}: {workload.why}")
    for label, result in (("untraced", plain), ("traced", traced)):
        if result is None:
            continue
        print(f"{label} pass:")
        for line in result["report"]:
            print(line)
        for name, unit in list(END_TO_END.items()) + [("p99_ms", "ms")]:
            print(f"  {name}: {result[name]:.6g} {unit}")
        setups = ", ".join(f"{s:.3f}" for s in result["setups"])
        print(f"  set-ups timed: {setups} s (median reported)")
        print(f"  operations: {result['attempted']} attempted, {result['failed']} failed "
              f"(fail_frac {result['failed'] / result['attempted']:.6g}), "
              f"{result['mismatched']} oracle mismatches")
    if traced is not None and traced["lag_ms"]:
        from stats import percentile

        for stat in ("lag_ms", "conn_wait_ms"):
            print(f"  loadgen.{stat}: p50 {percentile(traced[stat], 0.5):.4f} ms, "
                  f"p99 {percentile(traced[stat], 0.99):.4f} ms (n={len(traced[stat])})")
    if search is not None:
        print("max_rps search (untraced, untimed server):")
        for line in search["report"]:
            print(line)
        print(f"  max_rps: {search['max_rps']:.6g} 1/s; operations: {search['attempted']} "
              f"attempted, {search['failed']} failed, {search['mismatched']} oracle mismatches")
    if traced is not None:
        print("per-layer (traced pass; n = samples):")
        for name, (value, unit, n) in sorted(traced["layers"].items()):
            print(f"  {name}: {value:.6g} {unit} (n={n})")
        frac = traced["layers"]["trace.layer_sum_frac"][0]
        if not 0.9 <= frac <= 1.1:
            print(f"  WARNING: layer self times sum to {frac:.3f} of end-to-end time")
        from workloads import PREDICTIONS

        print("layer -> end-to-end predictions:")
        for layer, where, moves in PREDICTIONS:
            print(f"  {layer} [{where}] -> {moves}")


#: A run that has not finished after this many seconds is abandoned (its
#: servers are stopped on the way out) rather than left to hang.
DEADLINE_S = 170


def _overrun(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    require_program()
    require_builtin_knobs()
    host = fingerprint()
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(DEADLINE_S)
    try:
        if workload.name == "train_file":
            from training import TrainRun

            run = TrainRun(args.seed, args.seconds, workdir)
        else:
            from serving import ServeRun

            run = ServeRun(workload.name, args.seed, args.seconds, workdir)
        plain = run.measure(traced=False)
        traced = run.measure(traced=True) if args.trace else None
        search = run.max_rps() if args.trace and workload.name == "serve_mixed" else None
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    report(workload, host, plain, traced, search)
    passes = [p for p in (plain, traced, search) if p is not None]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and all(p.get("lag_ok", True) for p in passes)
    if traced:
        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in per_layer(plain, traced).items()}
    else:
        metrics = {name: {"value": plain[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
