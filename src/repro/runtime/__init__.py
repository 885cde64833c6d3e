"""Experiment runtime: batched encoding, the process tree and artifact caching.

This package is the orchestration layer between the learning models and
the experiment drivers (see ``docs/ARCHITECTURE.md`` for the full layer
map).  It contributes:

* :class:`BatchEncoder` (:mod:`repro.runtime.batch`) — whole-split
  record encoding through a key⊗basis binding table, chunked to bound memory
  and optionally bit-packed;
* :class:`ArtifactStore` (:mod:`repro.runtime.artifacts`) — a
  content-addressed JSON cache under ``benchmarks/results/`` that turns
  repeated ``python -m repro.experiments`` invocations into logged
  cache hits;
* :mod:`repro.runtime.tree` — the one place the package forks.  Its
  :func:`fan_out` runs the independent cells of a table, figure or
  sweep on forked processes, in task order; serving members and
  ingest cluster workers fork through the same module.

The experiment drivers in :mod:`repro.experiments` accept ``workers=``
and ``store=`` arguments that activate the fan-out and the cache;
nothing here depends on the experiments, so the runtime is equally
usable for new workloads.
"""

from .. import _lazy

_EXPORTS = {
    "ArtifactStore": "artifacts",
    "BatchEncoder": "batch",
    "canonical_digest": "artifacts",
    "fan_out": "tree",
    "resolve_workers": "tree",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_namespace(__name__, _EXPORTS)
