"""Experiment runtime: batched encoding, a cell worker pool and artifact caching.

This package is the orchestration layer between the learning models and
the experiment drivers (see ``docs/ARCHITECTURE.md`` for the full layer
map).  It contributes two independent capabilities, plus the pool that
fans experiment cells out:

* :class:`BatchEncoder` (:mod:`repro.runtime.batch`) — whole-split
  record encoding with fused key⊗basis tables, chunked to bound memory
  and optionally bit-packed;
* :class:`ArtifactStore` (:mod:`repro.runtime.artifacts`) — a
  content-addressed JSON cache under ``benchmarks/results/`` that turns
  repeated ``python -m repro.experiments`` invocations into logged
  cache hits.

:class:`WorkerPool` (:mod:`repro.runtime.pool`) runs the independent
cells of a table, figure or sweep on threads, in task order.  The
experiment drivers in :mod:`repro.experiments` accept ``workers=`` and
``store=`` arguments that activate the pool and the cache; nothing here
depends on the experiments, so the runtime is equally usable for new
workloads.
"""

from .artifacts import ArtifactStore, canonical_digest
from .batch import BatchEncoder
from .pool import WorkerPool, default_workers, resolve_workers

__all__ = [
    "ArtifactStore",
    "BatchEncoder",
    "WorkerPool",
    "default_workers",
    "canonical_digest",
    "resolve_workers",
]
