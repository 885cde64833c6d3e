"""Named multi-model registry with zero-downtime hot swap.

One serving process, many models: the registry maps URL-safe names to
live :class:`~repro.serve.engine.InferenceEngine` instances so a single
front end (:mod:`repro.serve.server`) can serve every pipeline the
process has loaded.  Its second job is **zero-downtime replacement**:
:meth:`ModelRegistry.swap` builds a fresh engine from a new artifact
(the expensive part — reading the container, unpacking the basis,
building the fused encode table) *before* touching the live entry, then
flips the entry's engine pointer atomically and lets the old engine
drain: every request that already leased the old engine finishes on it,
and the old engine is closed exactly when the last lease returns.

Crash safety falls out of the write path being read-only here: a swap
never mutates the artifact on disk (checkpoints are written atomically
elsewhere, see :meth:`~repro.serve.online.OnlineLearner.checkpoint`),
so a process killed at any instant of a swap — even ``kill -9`` between
load and flip — leaves both artifacts complete on disk, and a restarted
server configured with the original paths serves the old model.

Example
-------
>>> from repro.experiments.config import RegressionConfig
>>> from repro.experiments.serving import train_regression_pipeline
>>> from repro.serve import ModelRegistry
>>> pipe = train_regression_pipeline("circular", config=RegressionConfig(dim=128, seed=3))
>>> with ModelRegistry() as registry:
...     lease = registry.register("mars", pipe)
...     registry.names()
['mars']
"""

from __future__ import annotations

import os
import re
import threading
from typing import Iterator, Union

from ..exceptions import InvalidParameterError
from .engine import InferenceEngine
from .pipeline import TrainedPipeline

__all__ = ["ModelRegistry", "EngineLease"]

#: Model names must be URL-path safe: they appear in ``/v1/models/<name>``.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

#: What :meth:`ModelRegistry.register` and :meth:`~ModelRegistry.swap`
#: accept as a model source.
ModelSource = Union[str, os.PathLike, TrainedPipeline, InferenceEngine]


class EngineLease:
    """One generation of a model: an engine plus its in-flight refcount.

    Callers never construct these; :meth:`ModelRegistry.lease` hands one
    out per request (or per coalesced batch) and
    :meth:`ModelRegistry.release` returns it.  A lease pins its engine:
    a hot swap that lands mid-request flips the registry pointer
    immediately but only closes this engine after its final release —
    the drain step of zero-downtime replacement.
    """

    __slots__ = ("engine", "generation", "source", "_count", "_retired")

    def __init__(self, engine: InferenceEngine, generation: int, source: str) -> None:
        self.engine = engine
        self.generation = generation
        self.source = source
        self._count = 0
        self._retired = False

    @property
    def in_flight(self) -> int:
        """Requests currently holding this lease."""
        return self._count


class ModelRegistry:
    """Thread-safe name → engine mapping with atomic hot swap.

    Paths and pipelines are wrapped in a new :class:`InferenceEngine`;
    pre-built engines are registered as-is.  The registry owns its engines: :meth:`close` (or leaving the
    ``with`` block) closes every live engine, and swapped-out engines
    are closed as soon as they drain.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, EngineLease] = {}
        self._closed = False

    # -- construction ----------------------------------------------------------
    def _build(self, source: ModelSource) -> tuple[InferenceEngine, str]:
        if isinstance(source, InferenceEngine):
            return source, f"<{type(source.pipeline).__name__}>"
        if isinstance(source, TrainedPipeline):
            return InferenceEngine(source), f"<{type(source).__name__}>"
        engine = InferenceEngine.from_path(source)
        return engine, str(source)

    def register(self, name: str, source: ModelSource) -> EngineLease:
        """Add a model under ``name``; rejects duplicates and bad names.

        ``source`` is an artifact path (loaded via
        :meth:`InferenceEngine.from_path`), a live
        :class:`TrainedPipeline`, or a pre-built engine.
        """
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise InvalidParameterError(
                f"model name {name!r} must match {_NAME_RE.pattern} "
                "(it becomes part of the request URL)"
            )
        engine, source_label = self._build(source)
        with self._lock:
            if self._closed:
                engine.close()
                raise InvalidParameterError("registry is closed")
            if name in self._entries:
                engine.close()
                raise InvalidParameterError(f"model {name!r} is already registered")
            entry = EngineLease(engine, generation=1, source=source_label)
            self._entries[name] = entry
        return entry

    # -- lookup ----------------------------------------------------------------
    def names(self) -> list[str]:
        """Registered model names, sorted."""
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _entry(self, name: str) -> EngineLease:
        entry = self._entries.get(name)
        if entry is None:
            raise InvalidParameterError(
                f"unknown model {name!r}; registered: {sorted(self._entries) or '(none)'}"
            )
        return entry

    def engine(self, name: str) -> InferenceEngine:
        """The model's *current* engine (unleased — prefer :meth:`lease`
        inside request handlers, which pins the generation across a
        concurrent swap)."""
        with self._lock:
            return self._entry(name).engine

    def describe(self) -> dict[str, dict]:
        """JSON-ready listing of every model: kind, shape, provenance."""
        with self._lock:
            entries = dict(self._entries)
        info = {}
        for name, entry in sorted(entries.items()):
            pipeline = entry.engine.pipeline
            info[name] = {
                "kind": pipeline.kind,
                "dim": pipeline.dim,
                "num_features": pipeline.num_features,
                "generation": entry.generation,
                "source": entry.source,
                "metadata": dict(pipeline.metadata),
            }
        return info

    # -- leasing (the drain protocol) ------------------------------------------
    def lease(self, name: str) -> EngineLease:
        """Pin the model's current engine for one request/batch.

        Must be paired with :meth:`release`.  Between the two, the
        leased engine stays open even if a swap replaces it — so a
        response is always computed by exactly one model generation,
        never a mix.
        """
        with self._lock:
            if self._closed:
                raise InvalidParameterError("registry is closed")
            entry = self._entry(name)
            entry._count += 1
            return entry

    def release(self, lease: EngineLease) -> None:
        """Return a lease; closes a swapped-out engine on its last release."""
        close_engine = None
        with self._lock:
            lease._count -= 1
            if lease._count <= 0 and lease._retired:
                close_engine = lease.engine
        if close_engine is not None:
            close_engine.close()

    # -- hot swap ---------------------------------------------------------------
    def swap(self, name: str, source: ModelSource) -> EngineLease:
        """Replace ``name``'s engine with one built from ``source``.

        Zero-downtime: the new engine is fully constructed *before* the
        flip (requests keep landing on the old engine meanwhile), the
        pointer flip is atomic under the registry lock, and the old
        engine drains — it closes when its last in-flight lease is
        released (immediately, if idle).  Returns the new entry.
        """
        engine, source_label = self._build(source)
        with self._lock:
            if self._closed:
                engine.close()
                raise InvalidParameterError("registry is closed")
            try:
                old = self._entry(name)
            except InvalidParameterError:
                engine.close()
                raise
            entry = EngineLease(
                engine, generation=old.generation + 1, source=source_label
            )
            self._entries[name] = entry
            old._retired = True
            drain_now = old._count <= 0
        if drain_now:
            old.engine.close()
        return entry

    # -- lifecycle --------------------------------------------------------------
    def close(self) -> None:
        """Close every live engine (idempotent).  In-flight leases on
        swapped-out engines still close on their final release."""
        with self._lock:
            self._closed = True
            entries = list(self._entries.values())
            for entry in entries:
                entry._retired = True
            self._entries.clear()
        for entry in entries:
            entry.engine.close()

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ModelRegistry(models={self.names()})"
