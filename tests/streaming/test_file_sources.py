"""File-backed chunk sources and the ``train --stream --input`` wiring."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.config import ClassificationConfig
from repro.streaming import (
    CsvChunkSource,
    JsonlChunkSource,
    NpyMmapChunkSource,
    file_chunk_source,
    train_pipeline_stream,
)

TWO_PI = 2.0 * np.pi


def write_jsonl(path, rows, labelled=True, label=lambda i: i % 4):
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(rows):
            record = {"features": [float(v) for v in row]}
            if labelled:
                record["target"] = label(i)
            fh.write(json.dumps(record) + "\n")
    return path


def write_csv(path, rows, labelled=True, label=lambda i: f"g{i % 4}"):
    names = [f"f{j}" for j in range(len(rows[0]))]
    header = ",".join(names + (["target"] if labelled else []))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i, row in enumerate(rows):
            cells = [repr(float(v)) for v in row]
            if labelled:
                cells.append(str(label(i)))
            fh.write(",".join(cells) + "\n")
    return path


@pytest.fixture()
def gesture_rows():
    rng = np.random.default_rng(5)
    return rng.uniform(0.0, TWO_PI, (120, 18))


class TestJsonlChunkSource:
    def test_chunk_boundaries_and_starts(self, tmp_path, gesture_rows):
        path = write_jsonl(tmp_path / "rows.jsonl", gesture_rows)
        src = JsonlChunkSource(path, chunk_size=50)
        chunks = list(src)
        assert [(c.start, c.rows) for c in chunks] == [(0, 50), (50, 50), (100, 20)]
        assert np.array_equal(
            np.concatenate([c.features for c in chunks]), gesture_rows
        )
        assert src.num_features == 18 and src.labelled

    def test_two_passes_are_identical(self, tmp_path, gesture_rows):
        path = write_jsonl(tmp_path / "rows.jsonl", gesture_rows)
        src = JsonlChunkSource(path, chunk_size=33)
        first = [(c.start, c.features.copy(), c.targets.copy()) for c in src]
        second = [(c.start, c.features, c.targets) for c in src]
        assert len(first) == len(second)
        for (s1, f1, t1), (s2, f2, t2) in zip(first, second):
            assert s1 == s2
            assert np.array_equal(f1, f2) and np.array_equal(t1, t2)

    def test_string_labels_stay_objects(self, tmp_path, gesture_rows):
        path = write_jsonl(
            tmp_path / "s.jsonl", gesture_rows[:6], label=lambda i: f"G{i % 2}"
        )
        chunk = next(iter(JsonlChunkSource(path, chunk_size=6)))
        assert chunk.targets.dtype == object
        assert chunk.targets.tolist() == ["G0", "G1"] * 3

    def test_numeric_labels_become_float64(self, tmp_path, gesture_rows):
        path = write_jsonl(tmp_path / "n.jsonl", gesture_rows[:4])
        chunk = next(iter(JsonlChunkSource(path, chunk_size=4)))
        assert chunk.targets.dtype == np.float64

    def test_unlabelled_stream(self, tmp_path, gesture_rows):
        path = write_jsonl(tmp_path / "u.jsonl", gesture_rows[:8], labelled=False)
        src = JsonlChunkSource(path, chunk_size=3)
        assert not src.labelled
        assert all(c.targets is None for c in src)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text(
            json.dumps({"features": [1.0], "target": 0}) + "\n\n   \n"
            + json.dumps({"features": [2.0], "target": 1}) + "\n"
        )
        chunks = list(JsonlChunkSource(path, chunk_size=10))
        assert chunks[0].rows == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ("not json", "not valid JSON"),
            ('{"notfeatures": [1.0]}', '"features" array'),
            ('{"features": [1.0, "x"], "target": 0}', "numeric array"),
            ('{"features": [1.0, 2.0, 3.0], "target": 0}', "expected 2 features"),
            ('{"features": [1.0, 2.0]}', 'missing "target"'),
        ],
    )
    def test_malformed_line_points_at_lineno(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"features": [0.0, 1.0], "target": 0}) + "\n" + line + "\n"
        )
        with pytest.raises(InvalidParameterError, match=message) as excinfo:
            list(JsonlChunkSource(path, chunk_size=10))
        assert f"{path}:2" in str(excinfo.value)

    def test_target_in_unlabelled_stream_rejected(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            json.dumps({"features": [0.0]}) + "\n"
            + json.dumps({"features": [1.0], "target": 2}) + "\n"
        )
        with pytest.raises(InvalidParameterError, match="unlabelled stream"):
            list(JsonlChunkSource(path, chunk_size=10))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n  \n")
        with pytest.raises(InvalidParameterError, match="no records"):
            JsonlChunkSource(path)


class TestNpyMmapChunkSource:
    def test_chunks_are_mmap_views(self, tmp_path, gesture_rows):
        fp = tmp_path / "x.npy"
        np.save(fp, gesture_rows)
        src = NpyMmapChunkSource(fp, chunk_size=64)
        chunks = list(src)
        assert [(c.start, c.rows) for c in chunks] == [(0, 64), (64, 56)]
        assert isinstance(chunks[0].features, np.memmap)
        assert np.array_equal(
            np.concatenate([c.features for c in chunks]), gesture_rows
        )

    def test_targets_ride_along(self, tmp_path, gesture_rows):
        fp, tp = tmp_path / "x.npy", tmp_path / "y.npy"
        np.save(fp, gesture_rows)
        np.save(tp, np.arange(120.0) % 4)
        src = NpyMmapChunkSource(fp, tp, chunk_size=50)
        assert src.labelled
        got = np.concatenate([np.asarray(c.targets) for c in src])
        assert np.array_equal(got, np.arange(120.0) % 4)

    def test_non_2d_features_rejected(self, tmp_path):
        fp = tmp_path / "flat.npy"
        np.save(fp, np.arange(10.0))
        with pytest.raises(InvalidParameterError, match=r"\(n, k\)"):
            NpyMmapChunkSource(fp)

    def test_target_shape_mismatch_rejected(self, tmp_path, gesture_rows):
        fp, tp = tmp_path / "x.npy", tmp_path / "y.npy"
        np.save(fp, gesture_rows)
        np.save(tp, np.arange(7.0))
        with pytest.raises(InvalidParameterError, match="expected shape"):
            NpyMmapChunkSource(fp, tp)


class TestFileChunkSource:
    def test_extension_dispatch(self, tmp_path, gesture_rows):
        jl = write_jsonl(tmp_path / "a.jsonl", gesture_rows[:10])
        np.save(tmp_path / "b.npy", gesture_rows)
        assert isinstance(file_chunk_source(jl), JsonlChunkSource)
        assert isinstance(file_chunk_source(tmp_path / "b.npy"), NpyMmapChunkSource)

    def test_sibling_targets_auto_detected(self, tmp_path, gesture_rows):
        np.save(tmp_path / "b.npy", gesture_rows)
        assert not file_chunk_source(tmp_path / "b.npy").labelled
        np.save(tmp_path / "b.targets.npy", np.arange(120.0))
        assert file_chunk_source(tmp_path / "b.npy").labelled

    def test_unsupported_extension_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="--input extension"):
            file_chunk_source(tmp_path / "rows.parquet")

    def test_csv_dispatch(self, tmp_path, gesture_rows):
        path = write_csv(tmp_path / "rows.csv", gesture_rows[:10])
        src = file_chunk_source(path)
        assert isinstance(src, CsvChunkSource)
        assert src.num_features == 18 and src.labelled


class TestCsvChunkSource:
    def test_chunk_boundaries_and_starts(self, tmp_path, gesture_rows):
        path = write_csv(tmp_path / "rows.csv", gesture_rows)
        src = CsvChunkSource(path, chunk_size=50)
        chunks = list(src)
        assert [(c.start, c.rows) for c in chunks] == [(0, 50), (50, 50), (100, 20)]
        assert np.allclose(
            np.concatenate([c.features for c in chunks]), gesture_rows
        )
        assert src.num_features == 18 and src.labelled
        assert src.feature_names == [f"f{j}" for j in range(18)]

    def test_two_passes_are_identical(self, tmp_path, gesture_rows):
        path = write_csv(tmp_path / "rows.csv", gesture_rows)
        src = CsvChunkSource(path, chunk_size=33)
        first = [(c.start, c.features.copy(), c.targets.copy()) for c in src]
        second = [(c.start, c.features, c.targets) for c in src]
        assert len(first) == len(second)
        for (s1, f1, t1), (s2, f2, t2) in zip(first, second):
            assert s1 == s2
            assert np.array_equal(f1, f2) and np.array_equal(t1, t2)

    def test_string_labels_stay_objects(self, tmp_path, gesture_rows):
        path = write_csv(tmp_path / "s.csv", gesture_rows[:6])
        chunk = next(iter(CsvChunkSource(path, chunk_size=6)))
        assert chunk.targets.dtype == object
        assert chunk.targets.tolist() == ["g0", "g1", "g2", "g3", "g0", "g1"]

    def test_numeric_labels_become_float64(self, tmp_path, gesture_rows):
        path = write_csv(tmp_path / "n.csv", gesture_rows[:4], label=lambda i: i % 2)
        chunk = next(iter(CsvChunkSource(path, chunk_size=4)))
        assert chunk.targets.dtype == np.float64
        assert chunk.targets.tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_unlabelled_file_has_no_targets(self, tmp_path, gesture_rows):
        path = write_csv(tmp_path / "u.csv", gesture_rows[:8], labelled=False)
        src = CsvChunkSource(path, chunk_size=3)
        assert not src.labelled
        assert all(c.targets is None for c in src)

    def test_target_column_position_does_not_matter(self, tmp_path):
        path = tmp_path / "mid.csv"
        path.write_text("a,target,b\n1.0,g0,2.0\n3.0,g1,4.0\n")
        src = CsvChunkSource(path, chunk_size=10)
        assert src.feature_names == ["a", "b"]
        chunk = next(iter(src))
        assert chunk.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert chunk.targets.tolist() == ["g0", "g1"]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("x,target\n\n1.0,g0\n   \n2.0,g1\n")
        chunks = list(CsvChunkSource(path, chunk_size=10))
        assert chunks[0].rows == 2

    @pytest.mark.parametrize(
        "header, message",
        [
            ("x,,target", "empty column name"),
            ("x,x,target", "duplicate column name"),
            ("target", "at least one feature column"),
        ],
    )
    def test_bad_header_points_at_lineno(self, tmp_path, header, message):
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n1.0,g0\n")
        with pytest.raises(InvalidParameterError, match=message) as excinfo:
            CsvChunkSource(path)
        assert f"{path}:1" in str(excinfo.value)

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n  \n")
        with pytest.raises(InvalidParameterError, match="no header row"):
            CsvChunkSource(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1.0,2.0", "expected 3 column"),
            ("1.0,2.0,3.0,g1", "expected 3 column"),
            ("1.0,oops,g1", "column 'y' must be numeric"),
            ("1.0,inf,g1", "column 'y' must be finite"),
            ("1.0,2.0,", "empty 'target' cell"),
            ("1.0,2.0,nan", "'target' must be finite"),
        ],
    )
    def test_bad_row_points_at_lineno(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,target\n0.0,1.0,g0\n" + row + "\n")
        with pytest.raises(InvalidParameterError, match=message) as excinfo:
            list(CsvChunkSource(path, chunk_size=10))
        assert f"{path}:3" in str(excinfo.value)


class TestTrainFromFile:
    """``train --stream --input PATH`` trains from disk, bit-stable."""

    @pytest.fixture()
    def data_files(self, tmp_path, gesture_rows):
        labels = np.arange(120.0) % 4
        jl = write_jsonl(tmp_path / "train.jsonl", gesture_rows,
                         label=lambda i: int(i % 4))
        np.save(tmp_path / "train.npy", gesture_rows)
        np.save(tmp_path / "train.targets.npy", labels)
        return jl, tmp_path / "train.npy"

    def test_chunk_size_does_not_change_the_model(self, data_files):
        jl, _ = data_files
        config = ClassificationConfig(dim=256, seed=7)
        a, stats_a = train_pipeline_stream(
            "suturing", config=config, input_path=jl, chunk_size=16
        )
        b, stats_b = train_pipeline_stream(
            "suturing", config=config, input_path=jl, chunk_size=1000
        )
        assert stats_a.rows == stats_b.rows == 120
        assert a.model.classes == b.model.classes
        for label in a.model.classes:
            assert np.array_equal(
                a.model.class_vector(label), b.model.class_vector(label)
            )
        assert a.metadata["stream"]["input"].endswith("train.jsonl")

    def test_jsonl_and_npy_train_the_same_model(self, data_files):
        jl, npy = data_files
        config = ClassificationConfig(dim=256, seed=7)
        a, _ = train_pipeline_stream("suturing", config=config, input_path=jl,
                                     chunk_size=64)
        b, _ = train_pipeline_stream("suturing", config=config, input_path=npy,
                                     chunk_size=64)
        for label in a.model.classes:
            assert np.array_equal(
                a.model.class_vector(label), b.model.class_vector(label)
            )

    def test_csv_and_jsonl_train_the_same_model(self, data_files, tmp_path,
                                                gesture_rows):
        jl, _ = data_files
        csv_path = write_csv(tmp_path / "train.csv", gesture_rows,
                             label=lambda i: i % 4)
        config = ClassificationConfig(dim=256, seed=7)
        a, _ = train_pipeline_stream("suturing", config=config, input_path=jl,
                                     chunk_size=64)
        b, stats = train_pipeline_stream("suturing", config=config,
                                         input_path=csv_path, chunk_size=64)
        assert stats.rows == 120
        assert a.model.classes == b.model.classes
        for label in a.model.classes:
            assert np.array_equal(
                a.model.class_vector(label), b.model.class_vector(label)
            )

    @pytest.mark.parametrize("ingest", ["ref", "auto"])
    def test_ingest_backend_does_not_change_the_model(self, data_files, ingest):
        _, npy = data_files
        config = ClassificationConfig(dim=256, seed=7)
        ref, _ = train_pipeline_stream(
            "suturing", config=config, input_path=npy, chunk_size=32, ingest=None
        )
        got, _ = train_pipeline_stream(
            "suturing", config=config, input_path=npy, chunk_size=32, ingest=ingest
        )
        for label in ref.model.classes:
            assert np.array_equal(
                ref.model.class_vector(label), got.model.class_vector(label)
            )
