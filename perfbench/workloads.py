"""The workloads, why each was chosen, and what each layer should move.

Every input is derived from one workload seed through named
``SeedSequence`` children (the request trace, the request rows, the
training file and the model-training seeds), following the
``get_single_train_test_split`` idiom: one root ``random_state`` hands
each split its own seed, so changing how one input is drawn never shifts
another.  The program only ever sees the generated artifacts: saved
``.npz`` models, HTTP request bodies and an ``.npy`` training file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: Hyperspace dimensionality of every pipeline (the paper's d).
DIM = 10_000

#: Model names as the server registers them, with their feature counts.
MODELS = {"suturing": 18, "mars": 1}

#: At most this many keep-alive connections carry the load (nproc = 2).
CONNECTIONS = 2
#: serve_mixed: each model's requests travel on their own connection, as
#: from two independent clients, so a Suturing request never waits on the
#: client side behind a slower Mars Express one.
LANES = {"suturing": 0, "mars": 1}

#: serve_mixed: offered Poisson rate of the base phase, about a third of
#: the rate at which the unmodified server saturates (~450 req/s).
BASE_RATE = 150.0
#: serve_mixed: share of requests per model (exact counts, shuffled), and
#: the distinct rows each model's requests cycle through.  Three Suturing
#: requests to one Mars Express request: a Mars request takes ~4x longer
#: and slows the Suturing requests that overlap it, so with a 50/50 (or
#: 2:1) mix the median falls between the latency modes, where it swung by
#: 10-40% from run to run; at 3:1 it sits among the unhindered Suturing
#: requests and the p99 among the Mars ones.
MIX = {"suturing": 3 / 4, "mars": 1 / 4}
ROW_POOL = 512
#: serve_mixed measures in windows of this many requests (enough for a
#: p99 with 10 samples beyond), serve_bulk in BULK_WINDOWS.  On a virtual
#: machine whose CPUs the host steals, latency and throughput follow the
#: stolen share: when windows lost more than STEAL_LIMIT of their CPU
#: time, up to SPARE_WINDOWS more are run and the least-disturbed windows
#: are used.  Each metric is the median of those windows' own figures.
WINDOW_REQUESTS = 1000
STEAL_LIMIT = 0.03
SPARE_WINDOWS = 1
#: max_rps: latency limit on p99 and the backlog a passing probe may leave.
P99_LIMIT_MS = 50.0
BACKLOG_LIMIT = 8
#: max_rps: requests per probe (enough for a p99 with 10 samples beyond),
#: bisection steps, and the top of the searched range as a multiple of
#: the base rate.
PROBE_REQUESTS = 1000
PROBE_STEPS = 6
TOP_FACTOR = 4.0

#: serve_bulk: rows per ``records`` body, and distinct bodies each
#: connection cycles through per model.  The server keeps no result
#: cache, so repeating a body costs it the same work as a new one.
BULK_ROWS = 64
BULK_BODIES = 4
#: serve_bulk: ``--seconds`` is cut into this many windows, each run on
#: until BULK_WINDOW_REQUESTS requests are answered (at most twice its
#: length); p99_ms pools the windows used.  (serve_mixed runs as many
#: WINDOW_REQUESTS windows as ``--seconds`` holds at the base rate.)
BULK_WINDOWS = 3
BULK_WINDOW_REQUESTS = 500

#: Set-up: the fixed warm-up request set every serving set-up sends
#: (single records per model, then bulk bodies per model), and how many
#: set-ups a run times.
WARMUP_SINGLE = 256
WARMUP_BULK = 2
SETUP_REPEATS = 3

#: train_file: rows per gesture in the file (15 gestures, ~100k rows) and
#: the arguments of the training call.
FILE_SAMPLES_PER_GESTURE = 6_700
CHUNK_SIZE = 1024
CHECKPOINT_EVERY = 8
STREAM_SAMPLES = 300
MIN_TRAININGS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


#: The workloads ``--workload`` accepts.  BENCHMARK.json gates serve_bulk
#: and train_file.  serve_mixed runs the same way but is not gated: on a
#: 2-CPU virtual machine its millisecond latencies follow the CPU time the
#: host steals (0-16% per window was measured); over five to ten seeds its p50_ms
#: and p99_ms spread by 0.09 and 0.16 of their medians on a quiet host and
#: by 0.3-1.3 on a busy one, beyond the largest bound (0.25) a metric may
#: carry, and its max_rps search by 0.11-0.5.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve_mixed",
            "Open loop of single-record requests, 3:1 Suturing to Mars Express, at "
            "150 req/s: at most 2 in flight, so the HTTP front end and the "
            "single-record encode, scan and decode path do the work.",
        ),
        Workload(
            "serve_bulk",
            "Closed loop of 2 connections sending 64-row bodies, alternating models: "
            "rows coalesce into full batches, so batch encode, the similarity scan "
            "and JSON body parsing dominate.",
        ),
        Workload(
            "train_file",
            "train_pipeline_stream over a ~100k-row mmap'd .npy file of Suturing rows: "
            "fused ingest dominates, with checkpoint writes and held-out scoring; "
            "no serving layer runs.",
        ),
    )
}

#: The layer -> end-to-end prediction table: per-layer metric, where it
#: is measured, and which end-to-end metric on which workload it should
#: move.  Printed with every traced run.
PREDICTIONS = (
    ("serve.server.self_ms", "client latency minus the request's MicroBatcher.submit spans",
     "p50_ms on serve_mixed; rows_per_s on serve_bulk through body parsing"),
    ("serve.batching.wait_ms", "MicroBatcher.submit minus the predict_coalesced that answered it",
     "p50_ms and p99_ms on serve_mixed"),
    ("serve.batching.rows_per_batch, serve.batching.batches", "/metrics batch histogram",
     "rows_per_s on serve_bulk; ~1 on serve_mixed"),
    ("serve.batching.rejected", "/metrics repro_serve_rejected_total", "ok_frac"),
    ("serve.engine.busy_s, serve.engine.self_ms", "InferenceEngine.predict_coalesced minus children",
     "rows_per_s on serve_bulk"),
    ("runtime.batch.encode_ms, runtime.batch.encode_share", "BatchEncoder.encode, share of predict_coalesced",
     "rows_per_s on serve_bulk"),
    ("runtime.batch.indices_s, runtime.batch.chunk_counts_s, hdc.ops.majority_s",
     "BatchEncoder.indices, BatchEncoder.chunk_counts, majority_from_counts",
     "the encode metric, split by stage"),
    ("basis.embedding.encode_packed_ms", "Embedding.encode_packed (keyless Mars path)",
     "p99_ms on serve_mixed (small)"),
    ("learning.classifier.predict_ms", "CentroidClassifier.predict",
     "p50_ms on serve_mixed; rows_per_s on serve_bulk"),
    ("learning.regression.predict_ms", "HDRegressor.predict",
     "p99_ms and max_rps on serve_mixed"),
    ("max_rps (serve_mixed, printed)", "bisection over offered rates, p99 <= 50 ms and no growing backlog",
     "capacity of the single-record path; the regression predict sets it"),
    ("hdc.kernels.hamming_ms, hdc.kernels.calls", "pairwise_hamming as the models look it up",
     "the scan share of both predicts"),
    ("streaming.files.chunk_ms", "each pull from the file_chunk_source source",
     "rows_per_s on train_file (small)"),
    ("streaming.reduce.prefetch_wait_s", "consumer wait on prefetch_chunks",
     "rows_per_s on train_file once ingest outruns the source"),
    ("hdc.ingest.busy_s, hdc.ingest.chunk_ms", "hdc.ingest.ingest_chunk", "rows_per_s on train_file"),
    ("hdc.ingest.fused_frac", "ingest_chunk calls returning True", "rows_per_s on train_file"),
    ("learning.classifier.partial_fit_s", "CentroidClassifier.partial_fit (reference fallback)",
     "~0 on train_file"),
    ("serve.persist.save_s, serve.persist.saves", "save_model (checkpoints and final save)",
     "rows_per_s on train_file"),
    ("streaming.train.score_s", "stream_score_classifier", "rows_per_s on train_file"),
    ("loadgen.lag_ms, loadgen.conn_wait_ms (serve_mixed, printed)",
     "generator lateness; wait for a free connection", "validity of serve_mixed"),
    ("trace.overhead_frac.*", "(traced - untraced) / untraced per end-to-end metric", "none"),
)


@dataclass(frozen=True)
class Seeds:
    """Per-input seed children of one workload seed."""

    trace: np.random.SeedSequence
    rows: np.random.SeedSequence
    data: np.random.SeedSequence
    models: np.random.SeedSequence


def seeds(seed: int) -> Seeds:
    trace, rows, data, models = np.random.SeedSequence(seed).spawn(4)
    return Seeds(trace=trace, rows=rows, data=data, models=models)


def model_seeds(s: Seeds) -> dict[str, int]:
    """Integer master seeds of the two served models."""
    rng = np.random.default_rng(s.models)
    suturing, mars = (int(v) for v in rng.integers(0, 2**31 - 1, size=2))
    return {"suturing": suturing, "mars": mars}


def train_seed(s: Seeds) -> int:
    """Master seed of the train_file run; it also fixes the file's rows."""
    return int(np.random.default_rng(s.data).integers(0, 2**31 - 1))


def uniform_rows(rng: np.random.Generator, model: str, n: int) -> list[list[float]]:
    """``n`` feature rows for ``model``, values uniform in [0, 2*pi)."""
    return rng.uniform(0.0, TWO_PI, size=(n, MODELS[model])).tolist()


def poisson_dues(rng: np.random.Generator, rate: float, count: int) -> list[float]:
    """Send offsets of ``count`` Poisson arrivals at ``rate``.

    Conditioned on the count: the arrival times of a Poisson process are
    uniform order statistics over its span, so every run offers exactly
    ``count`` requests over ``count / rate`` seconds.
    """
    return sorted(rng.uniform(0.0, count / rate, size=count).tolist())


def mixed_models(rng: np.random.Generator, count: int) -> list[str]:
    """The model of each serve_mixed request: exact MIX shares, shuffled."""
    names = []
    for model, share in MIX.items():
        names += [model] * int(round(share * count))
    names += [next(iter(MIX))] * (count - len(names))
    return [names[i] for i in rng.permutation(count)]
