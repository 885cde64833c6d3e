"""Content-addressed artifact cache for experiment results.

Every paper artifact (Table 1/2, the Figure 8 sweep, …) is a pure
function of its configuration: dimension, seed, basis kinds, task list,
grid sizes.  :class:`ArtifactStore` content-hashes that configuration
(canonical JSON → SHA-256) and maps it to a JSON result file under
``benchmarks/results/`` (override with the ``REPRO_RESULTS_DIR``
environment variable or the ``root`` argument), so re-running
``python -m repro.experiments table1`` with an unchanged config is a
logged cache hit that recomputes nothing.

Cache entries are self-describing — each file records the experiment
name, the full parameter dictionary, the digest and a creation
timestamp next to the result — and writes are atomic (temp file +
``os.replace``), so a crashed run never leaves a corrupt entry.

Example
-------
>>> import tempfile
>>> from repro.runtime import ArtifactStore
>>> store = ArtifactStore(root=tempfile.mkdtemp())
>>> calls = []
>>> def compute():
...     calls.append(1)
...     return {"accuracy": 0.9}
>>> store.fetch("demo", {"dim": 64, "seed": 7}, compute)
{'accuracy': 0.9}
>>> store.fetch("demo", {"dim": 64, "seed": 7}, compute)  # served from cache
{'accuracy': 0.9}
>>> len(calls)
1
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Mapping

from ..exceptions import InvalidParameterError

__all__ = ["ArtifactStore", "canonical_digest", "default_root"]

logger = logging.getLogger("repro.runtime.artifacts")

#: Bump when a change to the experiment pipeline invalidates old results.
#: Version 2: record-encoding ties take position-keyed coins.
SCHEMA_VERSION = 2

#: Default cache location, relative to the repository root (see
#: :func:`default_root`).
DEFAULT_ROOT = "benchmarks/results"

#: Environment variable overriding the default cache location.
ROOT_ENV_VAR = "REPRO_RESULTS_DIR"


def default_root() -> Path:
    """Resolve the default cache directory.

    Precedence: the ``REPRO_RESULTS_DIR`` environment variable; then the
    repository's ``benchmarks/results`` when running from a source
    checkout (anchored to the tree containing this file, not the current
    working directory, so the CLI never scatters stray ``benchmarks/``
    directories); then ``~/.cache/repro-hdc/results`` for installed
    packages.

    >>> isinstance(default_root(), Path)
    True
    """
    env = os.environ.get(ROOT_ENV_VAR)
    if env:
        return Path(env)
    repo_root = Path(__file__).resolve().parents[3]
    if (repo_root / "pyproject.toml").is_file():
        return repo_root / DEFAULT_ROOT
    return Path.home() / ".cache" / "repro-hdc" / "results"


def canonical_digest(params: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON serialisation of ``params``.

    Keys are sorted and separators fixed, so logically equal parameter
    dictionaries hash identically regardless of insertion order; tuples
    serialise as JSON lists.

    >>> canonical_digest({"a": 1, "b": 2}) == canonical_digest({"b": 2, "a": 1})
    True
    """
    try:
        blob = json.dumps(dict(params), sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"experiment parameters must be JSON-serialisable: {exc}"
        ) from exc
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ArtifactStore:
    """JSON result cache keyed by content-hashed experiment configs.

    Parameters
    ----------
    root:
        Directory holding the cache files.  Defaults to
        :func:`default_root` (``REPRO_RESULTS_DIR``, the repo's
        ``benchmarks/results``, or ``~/.cache/repro-hdc/results``).
        Created on first write.
    enabled:
        When ``False`` every lookup misses and every store is skipped —
        the object form of the CLI's ``--no-cache`` flag, so call sites
        need no branching.

    Example
    -------
    >>> import tempfile
    >>> store = ArtifactStore(root=tempfile.mkdtemp())
    >>> store.load("demo", {"dim": 8}) is None   # cold cache
    True
    >>> _ = store.store("demo", {"dim": 8}, {"acc": 1.0})
    >>> store.load("demo", {"dim": 8})
    {'acc': 1.0}
    """

    def __init__(self, root: str | Path | None = None, enabled: bool = True) -> None:
        self.root = Path(root) if root is not None else default_root()
        self.enabled = bool(enabled)

    # -- addressing ------------------------------------------------------------
    def _key(self, experiment: str, params: Mapping[str, Any]) -> tuple[str, dict[str, Any]]:
        if not experiment or not isinstance(experiment, str):
            raise InvalidParameterError(f"experiment must be a non-empty string, got {experiment!r}")
        full = {"experiment": experiment, "schema": SCHEMA_VERSION, **dict(params)}
        return canonical_digest(full), full

    def _path(self, experiment: str, digest: str) -> Path:
        """The single source of truth for the cache-file naming scheme."""
        return self.root / f"{experiment}-{digest[:16]}.json"

    def path_for(self, experiment: str, params: Mapping[str, Any]) -> Path:
        """Cache-file path an entry for these parameters would occupy."""
        digest, _ = self._key(experiment, params)
        return self._path(experiment, digest)

    # -- lookup / store ----------------------------------------------------------
    def load(self, experiment: str, params: Mapping[str, Any]) -> Any | None:
        """Return the cached result for this config, or ``None`` on a miss.

        A hit is logged at INFO level (``repro.runtime.artifacts``); an
        unreadable or mismatched entry is treated as a miss.
        """
        if not self.enabled:
            return None
        digest, _ = self._key(experiment, params)
        path = self._path(experiment, digest)
        if not path.is_file():
            return None
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            logger.warning("cache entry %s is unreadable; recomputing", path)
            return None
        if entry.get("digest") != digest:
            logger.warning("cache entry %s has a stale digest; recomputing", path)
            return None
        logger.info("cache hit: %s served from %s", experiment, path)
        return entry["result"]

    def store(self, experiment: str, params: Mapping[str, Any], result: Any) -> Path | None:
        """Persist a result atomically; returns the path (``None`` if disabled)."""
        if not self.enabled:
            return None
        digest, full = self._key(experiment, params)
        path = self._path(experiment, digest)
        entry = {
            "experiment": experiment,
            "digest": digest,
            "params": full,
            "created_unix": time.time(),
            "result": result,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle, indent=2, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        logger.info("cache store: %s written to %s", experiment, path)
        return path

    def fetch(
        self,
        experiment: str,
        params: Mapping[str, Any],
        compute: Callable[[], Any],
        decode: Callable[[Any], Any] | None = None,
        encode: Callable[[Any], Any] | None = None,
    ) -> Any:
        """Return the cached result, computing and storing it on a miss.

        ``encode``/``decode`` optionally convert between the in-memory
        result type and its JSON payload (e.g. dataclasses with tuple
        fields); both default to the identity.  A cached payload that
        ``decode`` rejects (``KeyError``, ``TypeError`` or ``ValueError``:
        an entry written in an older layout) is a miss, and the entry is
        recomputed and rewritten.
        """
        cached = self.load(experiment, params)
        if cached is not None:
            try:
                return decode(cached) if decode else cached
            except (KeyError, TypeError, ValueError) as exc:
                logger.warning("cache entry for %s does not decode (%r); recomputing",
                               experiment, exc)
        result = compute()
        self.store(experiment, params, encode(result) if encode else result)
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore(root={str(self.root)!r}, enabled={self.enabled})"
