"""train_file: file-streamed training of the Suturing pipeline, end to end.

A run writes the training file from the workload seed: the first
``FILE_SAMPLES_PER_GESTURE`` rows of every gesture group of the
same-seeded ``JigsawsStream`` training part that a synthetic
``train --stream`` run would consume (so held-out accuracy stays
meaningful), as ``DATA.npy`` plus ``DATA.targets.npy``.  It then trains a
reference model through ``ingest="ref"`` once, untimed, and times fresh
child processes training with the built-in ingest backend until the run's
seconds are used (at least ``MIN_TRAININGS``).  Every timed model must
equal the reference: same classes, class vectors and held-out accuracy.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from statistics import median

import numpy as np

import analysis
import workloads as W
from host import HERE, child_env, cpu_times, least_disturbed, steal_line, steal_share
from stats import percentile
from tracing import now


def write_file(workdir: Path, train_seed: int) -> Path:
    """The training file: rows of the same-seeded synthetic training stream."""
    from repro._rng import ensure_rng
    from repro.streaming.sources import JigsawsStream

    # train_pipeline_stream seeds its stream from the first of four
    # children of the training seed; do the same to draw the same rows.
    data_rng = ensure_rng(train_seed).spawn(4)[0]
    stream = JigsawsStream(
        task="suturing",
        part="train",
        chunk_size=W.CHUNK_SIZE,
        seed=np.random.SeedSequence(int(data_rng.integers(0, 2**63))),
        samples_per_gesture=W.FILE_SAMPLES_PER_GESTURE,
    )
    features, labels = stream.materialize()
    path = workdir / "train.npy"
    np.save(path, np.ascontiguousarray(features, dtype=np.float64))
    np.save(workdir / "train.targets.npy", labels)
    return path


def train_once(workdir: Path, data: Path, seed: int, ingest: str, tag: str,
               traced: bool) -> tuple[dict, Path, list | None]:
    """Run one training child; returns its result, model path and spans."""
    result_path = workdir / f"result-{tag}.json"
    out = workdir / f"model-{tag}.npz"
    spans_path = workdir / f"spans-{tag}.json"
    argv = [sys.executable, str(HERE / "train_child.py"), str(result_path), str(data),
            str(out), str(workdir / f"ckpt-{tag}.npz"), str(seed), ingest]
    if traced:
        argv.append(str(spans_path))
    launched = now()
    with open(workdir / f"train-{tag}.log", "wb") as log:
        proc = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                              cwd=str(HERE.parent), timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"training child failed; see {workdir / f'train-{tag}.log'}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["launched"] = launched
    spans = None
    if traced:
        with open(spans_path, encoding="utf-8") as fh:
            spans = analysis.load_spans(json.load(fh))
    return result, out, spans


def same_model(path: Path, ref_path: Path) -> bool:
    """Class vectors and held-out accuracy equal the reference model's."""
    from repro.serve.persist import load_model

    got, ref = load_model(path), load_model(ref_path)
    if got.metadata["test_accuracy"] != ref.metadata["test_accuracy"]:
        return False
    if list(got.model.classes) != list(ref.model.classes):
        return False
    return all(
        np.array_equal(got.model.class_vector(c), ref.model.class_vector(c))
        for c in ref.model.classes
    )


class TrainRun:
    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.seconds = seconds
        self.workdir = workdir
        self.train_seed = W.train_seed(W.seeds(seed))
        self.data = write_file(workdir, self.train_seed)
        _, self.ref_path, _ = train_once(workdir, self.data, self.train_seed, "ref", "ref", False)

    def measure(self, traced: bool) -> dict:
        tag = "traced" if traced else "plain"
        trainings, span_runs, steals = [], [], []
        failed = 0
        start = now()

        def train() -> None:
            nonlocal failed
            t0 = cpu_times()
            result, out, spans = train_once(self.workdir, self.data, self.train_seed, "auto",
                                            f"{tag}{len(trainings)}", traced)
            steals.append(steal_share(t0, cpu_times()))
            if not same_model(out, self.ref_path):
                failed += 1
            trainings.append(result)
            if spans is not None:
                span_runs.append(spans)

        while len(trainings) < W.MIN_TRAININGS or now() - start < self.seconds:
            train()
        # Like the serving windows: a training that lost CPU time to the
        # host gets one spare, and the least-disturbed trainings are used.
        nominal = len(trainings)
        if sum(share <= W.STEAL_LIMIT for share in steals) < nominal:
            for _ in range(W.SPARE_WINDOWS):
                train()
        used = least_disturbed(steals, nominal)
        report = [steal_line(steals, used)]
        latencies, weights, setups, rates, rss = [], [], [], [], []
        for t in (trainings[i] for i in used):
            first, first_rows = t["absorbed"][0]
            setups.append(first - t["launched"])
            rates.append((t["rows"] - first_rows) / (t["saved"] - first))
            rss.append(t["maxrss_kb"] / 1024.0)
            for (t0, r0), (t1, r1) in zip(t["absorbed"], t["absorbed"][1:]):
                latencies.append((t1 - t0) * 1e3)
                weights.append(r1 - r0)
        result = {
            "setup_s": median(setups),
            "rows_per_s": median(rates),
            "peak_rss_mb": median(rss),
            "setups": setups,
            "attempted": len(trainings),
            "failed": failed,
            "mismatched": failed,
            "ok_frac": (len(trainings) - failed) / len(trainings),
            "lag_ok": True,
            "lag_ms": [],
            "conn_wait_ms": [],
            "batching": {"rows_per_batch": 0.0, "batches": 0.0, "rejected": 0.0},
            "report": report,
        }
        for key, q in (("p50_ms", 0.50), ("p99_ms", 0.99)):
            result[key] = percentile(latencies, q, weights)
            report.append(f"  {key[:3]} per-row chunk latency: {result[key]:.4f} ms "
                          f"(n={sum(weights)} rows in {len(latencies)} chunks)")
        report.append(f"  trainings: {len(trainings)}, held-out accuracy "
                      f"{trainings[0]['test_accuracy']:.4f}")
        if traced:
            result["layers"] = analysis.training_layers(span_runs)
        return result
