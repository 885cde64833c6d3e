"""Named multi-model registry with zero-downtime hot swap.

One registry, many models: the registry maps URL-safe names to live
:class:`~repro.serve.engine.InferenceEngine` instances so a single
front end (:mod:`repro.serve.server`) can serve every pipeline the
process has loaded.  Its second job is **zero-downtime replacement**:
:meth:`ModelRegistry.swap` builds a fresh engine from a new artifact
(the expensive part — reading the container, unpacking the basis,
building the packed encode table; :meth:`~ModelRegistry.build`) *before*
touching the live entry, then flips the entry's engine pointer under the
registry lock (:meth:`~ModelRegistry.flip`).  An engine
owns no file, thread or process, so there is nothing to drain: a batch
that already read the old engine finishes on it, and Python frees the
old engine once the last such batch lets go of it.

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
...     entry = registry.register("mars", pipe)
...     registry.names()
['mars']
"""

from __future__ import annotations

import os
import re
import threading
from typing import Iterator, NamedTuple, Union

from ..exceptions import InvalidParameterError
from .engine import InferenceEngine
from .pipeline import TrainedPipeline

__all__ = ["ModelRegistry"]

#: Model names must be URL-path safe: they appear in ``/v1/models/<name>``.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

#: What :meth:`ModelRegistry.register` and :meth:`~ModelRegistry.swap`
#: accept as a model source.
ModelSource = Union[str, os.PathLike, TrainedPipeline, InferenceEngine]


class ModelEntry(NamedTuple):
    """One generation of a model: what :meth:`ModelRegistry.register`
    and :meth:`~ModelRegistry.swap` return."""

    engine: InferenceEngine
    generation: int
    source: str


class ModelRegistry:
    """Thread-safe name → engine mapping with atomic hot swap.

    Paths and pipelines are wrapped in a new :class:`InferenceEngine`;
    pre-built engines are registered as-is.  :meth:`close` (or leaving
    the ``with`` block) drops every model.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, ModelEntry] = {}

    # -- construction ----------------------------------------------------------
    def build(self, source: ModelSource) -> tuple[InferenceEngine, str]:
        """``(engine, source label)`` for ``source``; the registry is untouched.

        The expensive half of :meth:`swap`, safe to run off the loop
        thread.  Hand the result to :meth:`flip`, or drop it.
        """
        if isinstance(source, InferenceEngine):
            return source, f"<{type(source.pipeline).__name__}>"
        if isinstance(source, TrainedPipeline):
            return InferenceEngine(source), f"<{type(source).__name__}>"
        engine = InferenceEngine.from_path(source)
        return engine, str(source)

    def register(self, name: str, source: ModelSource) -> ModelEntry:
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
        engine, source_label = self.build(source)
        with self._lock:
            if name in self._entries:
                raise InvalidParameterError(f"model {name!r} is already registered")
            entry = ModelEntry(engine, generation=1, source=source_label)
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

    def _entry(self, name: str) -> ModelEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise InvalidParameterError(
                f"unknown model {name!r}; registered: {sorted(self._entries) or '(none)'}"
            )
        return entry

    def engine(self, name: str) -> InferenceEngine:
        """The model's *current* engine.

        Read it once per unit of work: the returned engine keeps
        answering with its own generation even if a swap lands while
        the caller still holds it.
        """
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

    # -- hot swap ---------------------------------------------------------------
    def swap(self, name: str, source: ModelSource) -> ModelEntry:
        """Replace ``name``'s engine with one built from ``source``.

        Zero-downtime: :meth:`build` constructs the new engine *before*
        :meth:`flip` stores it (requests keep landing on the old engine
        meanwhile).  Work that already read the old engine finishes on
        it.  Returns the new entry.
        """
        return self.flip(name, *self.build(source))

    def flip(self, name: str, engine: InferenceEngine, source: str) -> ModelEntry:
        """Make a built ``engine`` ``name``'s next generation.

        One pointer store under the registry lock.  A multi-process
        server builds in every process first and flips only once every
        build succeeded, so its generations stay equal.
        """
        with self._lock:
            old = self._entry(name)
            entry = ModelEntry(engine, old.generation + 1, source)
            self._entries[name] = entry
        return entry

    # -- lifecycle --------------------------------------------------------------
    def close(self) -> None:
        """Drop every model (idempotent)."""
        with self._lock:
            self._entries.clear()

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ModelRegistry(models={self.names()})"
