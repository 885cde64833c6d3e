"""Distributed exact-merge ingest: multi-process training with failover.

The count accumulators behind every training path are exact,
order-independent merges (integer sums — effectively CRDTs), so ingest
scales out without approximation: shard the chunk stream across worker
*processes*, compute per-chunk deltas independently, and fold them back
deterministically.  This package is that scale-out tier:

* :mod:`repro.cluster.worker` — the worker process: iterates its own
  copy of the (picklable, deterministically re-iterable) chunk source,
  encodes its assigned chunks, and ships the model's ``shard`` results
  back over a pipe;
* :mod:`repro.cluster.coordinator` —
  :class:`~repro.cluster.coordinator.ClusterCoordinator`: round-robin
  chunk assignment, strict in-order delta absorption (a reorder buffer
  keyed by global chunk index, so classifier class order matches a
  serial fit bit for bit), crash detection with per-worker restart from
  the chunk cursor, and cursor-bearing atomic checkpoints;
* :mod:`repro.cluster.fault` — :class:`~repro.cluster.fault.CrashPlan`,
  the deterministic ``kill -9`` schedule that makes "simulated cluster
  with seeded failures" a reusable test fixture (``tests/cluster/``).

The contract, proven by the fault-injection suite: for any worker
count, chunk size, checkpoint cadence, or crash schedule, the final
model is **bit-identical** (arrays and RNG state) to the single-process
:func:`~repro.streaming.train.stream_fit_classifier` /
:func:`~repro.streaming.train.stream_fit_regressor` run on the same
source.  Topology, cursor format and a failover walkthrough live in
``docs/DISTRIBUTED.md``.
"""

from .coordinator import ClusterCoordinator
from .fault import PHASE_CHUNK_SENT, PHASE_CHUNK_START, CrashPlan
from .worker import WorkerPlan, worker_main

__all__ = [
    "ClusterCoordinator",
    "CrashPlan",
    "PHASE_CHUNK_START",
    "PHASE_CHUNK_SENT",
    "WorkerPlan",
    "worker_main",
]
