"""File-backed chunk sources: stream training data from disk, O(chunk) RAM.

The synthetic generators (:mod:`repro.streaming.sources`) exercise the
out-of-core machinery, but real deployments ingest *files*.  These
sources implement the same :class:`~repro.streaming.chunks.ChunkSource`
protocol — chunks in row order, absolute ``start`` offsets, identical
chunks on every pass — over the two formats the serving tier already
speaks:

* :class:`JsonlChunkSource` — one JSON object per line with a
  ``"features"`` array and (for training) a ``"target"`` scalar, the
  exact record shape of the ``serve`` JSONL loop.  Lines are read
  lazily, so the file never loads whole.
* :class:`CsvChunkSource` — a header-led CSV file whose column named
  ``target`` (if present) carries the label/value and every other
  column is a numeric feature; rows are read lazily and validation
  errors point at the offending ``path:lineno``.
* :class:`NpyMmapChunkSource` — a ``(n, k)`` float ``.npy`` array;
  each chunk's rows are read from the file into a fresh array, so the
  process holds one chunk of the file at a time.

Both plug straight into ``train --stream --input PATH``
(:func:`file_chunk_source` picks the reader from the extension): the
positional tie-coin discipline keys randomness by ``chunk.start``, so a
file replayed with any ``chunk_size`` trains the identical model.
"""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path
from typing import Any, Iterator, Union

import numpy as np

from ..exceptions import InvalidParameterError
from .chunks import DEFAULT_CHUNK_ROWS, Chunk, iter_slices

__all__ = [
    "JsonlChunkSource",
    "CsvChunkSource",
    "NpyMmapChunkSource",
    "file_chunk_source",
]


def _as_targets(values: list) -> np.ndarray:
    """Target buffer → array: float64 when numeric, object otherwise.

    Numeric targets become the float64 array the regression reducer
    expects; anything else (string class labels) stays an object array,
    which the classifier path converts with ``.tolist()`` — the same
    normalisation every other source's targets go through.
    """
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return np.asarray(values, dtype=np.float64)
    return np.asarray(values, dtype=object)


class JsonlChunkSource:
    """Stream ``{"features": [...], "target": ...}`` JSONL as chunks.

    One JSON object per line, in row order; ``features`` must be a
    fixed-width numeric array (the width of the first line binds the
    source's ``num_features``) and ``target`` carries the label or
    regression value.  A source whose *first* line has no ``target``
    is an unlabelled prediction stream — then no line may have one
    (and vice versa); mixing raises, pointing at the offending line.

    Lines are parsed lazily and buffered ``chunk_size`` rows at a time,
    so peak memory is O(chunk) however large the file.  Iterating twice
    re-reads the file from the top — identical chunks each pass, as the
    :class:`~repro.streaming.chunks.ChunkSource` protocol requires.

    Example
    -------
    >>> import tempfile, os, json
    >>> path = os.path.join(tempfile.mkdtemp(), "rows.jsonl")
    >>> with open(path, "w") as fh:
    ...     for i in range(5):
    ...         _ = fh.write(json.dumps(
    ...             {"features": [float(i), float(-i)], "target": i % 2}) + "\\n")
    >>> src = JsonlChunkSource(path, chunk_size=2)
    >>> src.num_features
    2
    >>> [(c.start, c.rows) for c in src]
    [(0, 2), (2, 2), (4, 1)]
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        chunk_size: int = DEFAULT_CHUNK_ROWS,
        split: str = "train",
        meta: Union[dict[str, Any], None] = None,
    ) -> None:
        self.path = Path(path)
        iter_slices(0, chunk_size)  # validate chunk_size
        self.chunk_size = int(chunk_size)
        self.split = split
        self.meta = dict(meta or {})
        self.meta.setdefault("source", str(self.path))
        first = self._parse_line(self._first_line(), 1)
        self.num_features = len(first[0])
        self._labelled = first[1] is not None

    def _first_line(self) -> str:
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    return line
        raise InvalidParameterError(f"{self.path} holds no records")

    def _parse_line(self, line: str, lineno: int) -> tuple[list, Any]:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(
                f"{self.path}:{lineno}: not valid JSON ({exc})"
            ) from exc
        if not isinstance(record, dict) or "features" not in record:
            raise InvalidParameterError(
                f'{self.path}:{lineno}: each line needs a "features" array'
            )
        features = record["features"]
        if not isinstance(features, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in features
        ):
            raise InvalidParameterError(
                f'{self.path}:{lineno}: "features" must be a numeric array'
            )
        return features, record.get("target")

    @property
    def labelled(self) -> bool:
        """Whether the stream carries targets (decided by line 1)."""
        return self._labelled

    def __iter__(self) -> Iterator[Chunk]:
        features: list[list] = []
        targets: list = []
        start = 0

        def emit() -> Chunk:
            nonlocal start, features, targets
            chunk = Chunk(
                features=np.asarray(features, dtype=np.float64),
                targets=_as_targets(targets) if self._labelled else None,
                start=start,
                split=self.split,
                meta=self.meta,
            )
            start += len(features)
            features, targets = [], []
            return chunk

        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                row, target = self._parse_line(line, lineno)
                if len(row) != self.num_features:
                    raise InvalidParameterError(
                        f"{self.path}:{lineno}: expected {self.num_features} "
                        f"features, got {len(row)}"
                    )
                if (target is None) == self._labelled:
                    raise InvalidParameterError(
                        f"{self.path}:{lineno}: "
                        + (
                            'missing "target" in a labelled stream'
                            if self._labelled
                            else '"target" in an unlabelled stream'
                        )
                    )
                features.append(row)
                targets.append(target)
                if len(features) == self.chunk_size:
                    yield emit()
        if features:
            yield emit()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JsonlChunkSource({str(self.path)!r}, k={self.num_features}, "
            f"chunk_size={self.chunk_size}, split={self.split!r})"
        )


class CsvChunkSource:
    """Stream a header-led CSV file as chunks.

    The first non-blank row is the header: the column literally named
    ``target`` (if present) carries the label or regression value and
    every other column is a numeric feature, in header order.  A file
    without a ``target`` column is an unlabelled prediction stream.
    The header binds ``num_features``; every data row must then match
    the header width and parse, and any violation — empty or duplicate
    column names, a ragged row, a non-numeric feature cell, an empty
    target cell — raises with the offending ``path:lineno``.

    Rows are read lazily through :mod:`csv` (quoting and embedded
    commas handled) and buffered ``chunk_size`` rows at a time, so peak
    memory is O(chunk); iterating twice re-reads the file from the top,
    yielding identical chunks, as the
    :class:`~repro.streaming.chunks.ChunkSource` protocol requires.

    Example
    -------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "rows.csv")
    >>> with open(path, "w") as fh:
    ...     _ = fh.write("x,y,target\\n")
    ...     _ = fh.write("0.0,1.0,g0\\n1.0,2.0,g1\\n2.0,3.0,g0\\n")
    >>> src = CsvChunkSource(path, chunk_size=2)
    >>> (src.num_features, src.labelled)
    (2, True)
    >>> [(c.start, c.rows) for c in src]
    [(0, 2), (2, 1)]
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        chunk_size: int = DEFAULT_CHUNK_ROWS,
        split: str = "train",
        meta: Union[dict[str, Any], None] = None,
    ) -> None:
        self.path = Path(path)
        iter_slices(0, chunk_size)  # validate chunk_size
        self.chunk_size = int(chunk_size)
        self.split = split
        self.meta = dict(meta or {})
        self.meta.setdefault("source", str(self.path))
        self._columns = self._read_header()
        self._target_index = (
            self._columns.index("target") if "target" in self._columns else None
        )
        self.feature_names = [c for c in self._columns if c != "target"]
        self.num_features = len(self.feature_names)

    def _read_header(self) -> list[str]:
        with open(self.path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or all(not cell.strip() for cell in row):
                    continue
                lineno = reader.line_num
                names = [cell.strip() for cell in row]
                if any(not name for name in names):
                    raise InvalidParameterError(
                        f"{self.path}:{lineno}: header has an empty column name"
                    )
                duplicates = sorted({n for n in names if names.count(n) > 1})
                if duplicates:
                    raise InvalidParameterError(
                        f"{self.path}:{lineno}: duplicate column name(s) "
                        f"{duplicates}"
                    )
                if names == ["target"]:
                    raise InvalidParameterError(
                        f"{self.path}:{lineno}: header needs at least one "
                        "feature column besides 'target'"
                    )
                return names
        raise InvalidParameterError(f"{self.path} holds no header row")

    @property
    def labelled(self) -> bool:
        """Whether the header declares a ``target`` column."""
        return self._target_index is not None

    def _parse_feature(self, name: str, cell: str, lineno: int) -> float:
        try:
            value = float(cell)
        except ValueError:
            raise InvalidParameterError(
                f"{self.path}:{lineno}: column {name!r} must be numeric, "
                f"got {cell!r}"
            ) from None
        if not math.isfinite(value):
            raise InvalidParameterError(
                f"{self.path}:{lineno}: column {name!r} must be finite, "
                f"got {cell!r}"
            )
        return value

    def _parse_target(self, cell: str, lineno: int) -> Any:
        text = cell.strip()
        if not text:
            raise InvalidParameterError(
                f"{self.path}:{lineno}: empty 'target' cell in a labelled stream"
            )
        try:
            value = float(text)
        except ValueError:
            return text  # a string class label
        if not math.isfinite(value):
            raise InvalidParameterError(
                f"{self.path}:{lineno}: 'target' must be finite, got {cell!r}"
            )
        return value

    def __iter__(self) -> Iterator[Chunk]:
        features: list[list] = []
        targets: list = []
        start = 0

        def emit() -> Chunk:
            nonlocal start, features, targets
            chunk = Chunk(
                features=np.asarray(features, dtype=np.float64),
                targets=_as_targets(targets) if self.labelled else None,
                start=start,
                split=self.split,
                meta=self.meta,
            )
            start += len(features)
            features, targets = [], []
            return chunk

        with open(self.path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header_seen = False
            for row in reader:
                if not row or all(not cell.strip() for cell in row):
                    continue
                if not header_seen:  # validated in __init__
                    header_seen = True
                    continue
                lineno = reader.line_num
                if len(row) != len(self._columns):
                    raise InvalidParameterError(
                        f"{self.path}:{lineno}: expected {len(self._columns)} "
                        f"column(s), got {len(row)}"
                    )
                feats = []
                target = None
                for i, cell in enumerate(row):
                    if i == self._target_index:
                        target = self._parse_target(cell, lineno)
                    else:
                        feats.append(
                            self._parse_feature(self._columns[i], cell, lineno)
                        )
                features.append(feats)
                targets.append(target)
                if len(features) == self.chunk_size:
                    yield emit()
        if features:
            yield emit()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CsvChunkSource({str(self.path)!r}, k={self.num_features}, "
            f"chunk_size={self.chunk_size}, split={self.split!r})"
        )


class _NpyRows:
    """Row ranges of one ``.npy`` array, each read from the file into a fresh array.

    ``np.load(..., mmap_mode="r")`` checks the header; its mapping is dropped at once.
    """

    def __init__(self, path: Path) -> None:
        mapped = np.load(path, mmap_mode="r")
        self.path, self.shape, self.dtype = path, mapped.shape, mapped.dtype
        self.offset = mapped.offset
        self.fortran = not mapped.flags.c_contiguous

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo:hi`` in the file's memory order; the file is open for this read only."""
        out = np.empty((hi - lo,) + self.shape[1:], self.dtype, order="F" if self.fortran else "C")
        if self.fortran:  # column j holds rows 0..n-1 of feature j
            size, n = self.dtype.itemsize, self.shape[0]
            runs = [(self.offset + (j * n + lo) * size, col) for j, col in enumerate(out.T)]
        else:
            runs = [(self.offset + lo * (out.nbytes // len(out)), out)]
        with open(self.path, "rb", buffering=0) as fh:
            for position, target in runs:
                fh.seek(position)
                if fh.readinto(target) != target.nbytes:
                    raise InvalidParameterError(f"{self.path}: file ends inside its array")
        return out


class NpyMmapChunkSource:
    """Stream a ``.npy`` feature matrix from disk as chunks.

    ``features_path`` holds the ``(n, k)`` feature array and
    ``targets_path`` (optional) the matching ``(n,)`` targets.  Only the
    headers are read up front; each chunk's rows are then read into a
    fresh array, so the resident set stays O(chunk) for any ``n`` (the
    name dates from when chunks were views of a memory mapping).

    Example
    -------
    >>> import tempfile, os
    >>> d = tempfile.mkdtemp()
    >>> fp, tp = os.path.join(d, "x.npy"), os.path.join(d, "y.npy")
    >>> np.save(fp, np.arange(10.0).reshape(5, 2))
    >>> np.save(tp, np.arange(5.0))
    >>> src = NpyMmapChunkSource(fp, tp, chunk_size=2)
    >>> (src.num_rows, src.num_features)
    (5, 2)
    >>> [c.rows for c in src]
    [2, 2, 1]
    """

    def __init__(
        self,
        features_path: Union[str, os.PathLike],
        targets_path: Union[str, os.PathLike, None] = None,
        chunk_size: int = DEFAULT_CHUNK_ROWS,
        split: str = "train",
        meta: Union[dict[str, Any], None] = None,
    ) -> None:
        self.path = Path(features_path)
        self.targets_path = None if targets_path is None else Path(targets_path)
        iter_slices(0, chunk_size)  # validate chunk_size
        self.chunk_size = int(chunk_size)
        self.split = split
        self.meta = dict(meta or {})
        self.meta.setdefault("source", str(self.path))
        self._features = _NpyRows(self.path)
        if len(self._features.shape) != 2:
            raise InvalidParameterError(
                f"{self.path}: expected a (n, k) array, got shape "
                f"{self._features.shape}"
            )
        self._targets = None
        if self.targets_path is not None:
            self._targets = _NpyRows(self.targets_path)
            if self._targets.shape != (self._features.shape[0],):
                raise InvalidParameterError(
                    f"{self.targets_path}: expected shape "
                    f"({self._features.shape[0]},), got {self._targets.shape}"
                )

    @property
    def num_rows(self) -> int:
        return int(self._features.shape[0])

    @property
    def num_features(self) -> int:
        return int(self._features.shape[1])

    @property
    def labelled(self) -> bool:
        """Whether a targets array rides along."""
        return self._targets is not None

    def __iter__(self) -> Iterator[Chunk]:
        for lo in range(0, self.num_rows, self.chunk_size):
            hi = min(self.num_rows, lo + self.chunk_size)
            yield Chunk(
                features=self._features.read(lo, hi),
                targets=None if self._targets is None else self._targets.read(lo, hi),
                start=lo,
                split=self.split,
                meta=self.meta,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NpyMmapChunkSource({str(self.path)!r}, rows={self.num_rows}, "
            f"k={self.num_features}, chunk_size={self.chunk_size})"
        )


def file_chunk_source(
    path: Union[str, os.PathLike],
    chunk_size: int = DEFAULT_CHUNK_ROWS,
    split: str = "train",
):
    """Open ``path`` as a chunk source, picking the reader by extension.

    The ``train --stream --input PATH`` entry point: ``.jsonl`` opens a
    :class:`JsonlChunkSource`; ``.csv`` opens a :class:`CsvChunkSource`
    (the column named ``target`` carries the label, everything else is
    a feature); ``.npy`` opens a :class:`NpyMmapChunkSource`, looking
    for targets in a sibling ``<stem>.targets.npy`` file (``x.npy`` +
    ``x.targets.npy``).  Anything else raises
    :class:`~repro.exceptions.InvalidParameterError`.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".jsonl":
        return JsonlChunkSource(path, chunk_size=chunk_size, split=split)
    if suffix == ".csv":
        return CsvChunkSource(path, chunk_size=chunk_size, split=split)
    if suffix == ".npy":
        targets = path.with_suffix(".targets.npy")
        return NpyMmapChunkSource(
            path,
            targets_path=targets if targets.exists() else None,
            chunk_size=chunk_size,
            split=split,
        )
    raise InvalidParameterError(
        f"unsupported --input extension {suffix!r} "
        f"(expected .jsonl, .csv or .npy): {path}"
    )
