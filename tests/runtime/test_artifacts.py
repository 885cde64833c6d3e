"""Tests for the content-addressed artifact cache."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import InvalidParameterError
from repro.runtime import ArtifactStore, canonical_digest


class TestCanonicalDigest:
    def test_key_order_independent(self):
        assert canonical_digest({"a": 1, "b": [2, 3]}) == canonical_digest({"b": [2, 3], "a": 1})

    def test_value_sensitive(self):
        assert canonical_digest({"a": 1}) != canonical_digest({"a": 2})

    def test_non_serialisable_rejected(self):
        with pytest.raises(InvalidParameterError):
            canonical_digest({"a": object()})


class TestArtifactStore:
    def test_miss_then_hit(self, tmp_path, caplog):
        store = ArtifactStore(root=tmp_path)
        params = {"dim": 64, "seed": 3}
        assert store.load("exp", params) is None
        store.store("exp", params, {"value": 1.5})
        with caplog.at_level("INFO", logger="repro.runtime.artifacts"):
            assert store.load("exp", params) == {"value": 1.5}
        assert any("cache hit" in r.message for r in caplog.records)

    def test_fetch_computes_once(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return [1, 2, 3]

        assert store.fetch("exp", {"x": 1}, compute) == [1, 2, 3]
        assert store.fetch("exp", {"x": 1}, compute) == [1, 2, 3]
        assert len(calls) == 1

    def test_fetch_encode_decode(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        out = store.fetch(
            "exp", {"x": 2}, lambda: (1, 2),
            encode=list, decode=tuple,
        )
        assert out == (1, 2)
        assert store.fetch("exp", {"x": 2}, lambda: (9, 9), decode=tuple) == (1, 2)

    def test_undecodable_entry_logs_no_hit(self, tmp_path, caplog):
        """Reproducer: an entry whose payload ``decode`` rejected was
        logged as a cache hit and then recomputed."""
        store = ArtifactStore(root=tmp_path)
        store.store("exp", {"x": 3}, {"old_layout": 1})
        layout = {"encode": lambda v: {"value": v}, "decode": lambda p: p["value"]}
        with caplog.at_level("INFO", logger="repro.runtime.artifacts"):
            assert store.fetch("exp", {"x": 3}, lambda: 2, **layout) == 2
        messages = [r.getMessage() for r in caplog.records]
        assert not any("cache hit" in m for m in messages)
        assert any("does not decode" in m and "recomputing" in m for m in messages)
        caplog.clear()
        with caplog.at_level("INFO", logger="repro.runtime.artifacts"):
            assert store.fetch("exp", {"x": 3}, lambda: 9, **layout) == 2  # rewritten
        assert any("cache hit" in r.getMessage() for r in caplog.records)

    def test_different_params_different_entries(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        store.store("exp", {"dim": 1}, "a")
        store.store("exp", {"dim": 2}, "b")
        assert store.load("exp", {"dim": 1}) == "a"
        assert store.load("exp", {"dim": 2}) == "b"
        assert len(list(tmp_path.glob("exp-*.json"))) == 2

    def test_disabled_store_never_caches(self, tmp_path):
        store = ArtifactStore(root=tmp_path, enabled=False)
        assert store.store("exp", {"a": 1}, "x") is None
        assert store.load("exp", {"a": 1}) is None
        assert list(tmp_path.glob("*.json")) == []

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        params = {"a": 1}
        path = store.store("exp", params, "x")
        path.write_text("{ not json")
        assert store.load("exp", params) is None

    def test_entry_is_self_describing(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        path = store.store("exp", {"dim": 64}, {"acc": 0.5})
        entry = json.loads(path.read_text())
        assert entry["experiment"] == "exp"
        assert entry["params"]["dim"] == 64
        assert entry["result"] == {"acc": 0.5}
        assert entry["digest"]
        assert entry["created_unix"] > 0

    def test_env_var_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "envroot"))
        store = ArtifactStore()
        store.store("exp", {"a": 1}, "x")
        assert (tmp_path / "envroot").is_dir()

    def test_bad_experiment_name(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        with pytest.raises(InvalidParameterError):
            store.store("", {"a": 1}, "x")
