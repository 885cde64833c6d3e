"""Runtime integration: parallel drivers are bit-identical and cached.

These tests pin the two load-bearing guarantees of the runtime:

* ``run_table1`` / ``run_table2`` / ``run_rsweep`` with ``workers > 1``
  return exactly what the serial run returns, and
* a second invocation with an identical configuration is served from
  the :class:`~repro.runtime.artifacts.ArtifactStore` without
  recomputation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ClassificationConfig,
    RegressionConfig,
    RSweepResult,
    rsweep_cache_params,
    run_rsweep,
    run_table1,
    run_table2,
)
from repro.runtime import ArtifactStore

DIM = 256
C_CONFIG = ClassificationConfig(dim=DIM, seed=13)
R_CONFIG = RegressionConfig(dim=DIM, seed=13)
R_VALUES = (0.0, 0.1, 1.0)


class TestParallelBitIdentical:
    def test_table1_workers(self):
        serial = run_table1(C_CONFIG)
        assert run_table1(C_CONFIG, workers=4) == serial

    def test_table2_workers(self):
        serial = run_table2(R_CONFIG)
        assert run_table2(R_CONFIG, workers=4) == serial

    def test_rsweep_workers(self):
        serial = run_rsweep(R_VALUES, classification_config=C_CONFIG,
                            regression_config=R_CONFIG)
        parallel = run_rsweep(R_VALUES, classification_config=C_CONFIG,
                              regression_config=R_CONFIG, workers=4)
        assert serial == parallel


class TestArtifactCaching:
    def test_table1_cache_roundtrip(self, tmp_path, caplog):
        store = ArtifactStore(root=tmp_path)
        fresh = run_table1(C_CONFIG, store=store)
        with caplog.at_level("INFO", logger="repro.runtime.artifacts"):
            cached = run_table1(C_CONFIG, store=store)
        assert cached == fresh
        assert any("cache hit" in r.message for r in caplog.records)

    def test_table2_cache_roundtrip(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        assert run_table2(R_CONFIG, store=store) == run_table2(R_CONFIG, store=store)
        assert len(list(tmp_path.glob("table2-*.json"))) == 1

    def test_rsweep_cache_roundtrip(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        fresh = run_rsweep(R_VALUES, classification_config=C_CONFIG,
                           regression_config=R_CONFIG, store=store)
        cached = run_rsweep(R_VALUES, classification_config=C_CONFIG,
                            regression_config=R_CONFIG, store=store)
        assert isinstance(cached, RSweepResult)
        assert cached == fresh

    def test_rsweep_cached_rows_keep_the_run_order(self, tmp_path):
        """A served sweep lists its datasets in the order the run gave them.

        The store writes JSON with sorted keys, so a payload that relied
        on dict order came back alphabetical: a cached Figure 8 printed
        its rows in a different order from a computed one.
        """
        store = ArtifactStore(root=tmp_path)
        datasets = ("mars_express", "beijing")  # not alphabetical
        runs = [
            run_rsweep((0.0, 1.0), datasets=datasets, classification_config=C_CONFIG,
                       regression_config=R_CONFIG, store=store)
            for _ in range(2)
        ]
        for sweep in runs:
            assert list(sweep.normalized_error) == list(datasets)
            assert list(sweep.reference) == list(datasets)
        assert runs[1] == runs[0]

    def test_rsweep_entry_without_dataset_order_is_recomputed(self, tmp_path, caplog):
        store = ArtifactStore(root=tmp_path)
        datasets = ("mars_express", "beijing")
        args = dict(datasets=datasets, classification_config=C_CONFIG,
                    regression_config=R_CONFIG)
        fresh = run_rsweep((0.0, 1.0), **args)
        # The payload layout written before the dataset order was stored.
        stale = {
            "r_values": [0.0, 1.0],
            "normalized_error": {name: [9.0, 9.0] for name in datasets},
            "reference": {name: 9.0 for name in datasets},
        }
        store.store("rsweep", rsweep_cache_params((0.0, 1.0), datasets, C_CONFIG, R_CONFIG),
                    stale)
        with caplog.at_level("WARNING", logger="repro.runtime.artifacts"):
            served = run_rsweep((0.0, 1.0), store=store, **args)
        assert served == fresh
        assert list(served.normalized_error) == list(datasets)
        assert any("recomputing" in r.message for r in caplog.records)
        # The recomputed sweep replaced the stale entry.
        assert run_rsweep((0.0, 1.0), store=store, **args) == fresh

    def test_config_change_misses(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        run_table1(C_CONFIG, store=store)
        other = ClassificationConfig(dim=DIM, seed=14)
        run_table1(other, store=store)
        assert len(list(tmp_path.glob("table1-*.json"))) == 2

    def test_disabled_store_recomputes(self, tmp_path):
        store = ArtifactStore(root=tmp_path, enabled=False)
        run_table1(C_CONFIG, tasks=("suturing",), store=store)
        assert list(tmp_path.glob("*.json")) == []


class TestRSweepPayload:
    def test_roundtrip(self):
        sweep = RSweepResult(
            r_values=(0.0, 1.0),
            normalized_error={"beijing": (1.5, 1.0)},
            reference={"beijing": 2.25},
        )
        assert RSweepResult.from_payload(sweep.to_payload()) == sweep

    def test_payload_is_json_safe(self):
        import json

        sweep = RSweepResult((0.5,), {"suturing": (0.9,)}, {"suturing": 0.25})
        blob = json.dumps(sweep.to_payload())
        assert RSweepResult.from_payload(json.loads(blob)) == sweep

    def test_sorted_json_keeps_dataset_order(self):
        import json

        sweep = RSweepResult(
            (0.5,), {"mars_express": (0.9,), "beijing": (1.1,)},
            {"mars_express": 0.3, "beijing": 2.0},
        )
        blob = json.dumps(sweep.to_payload(), sort_keys=True)
        restored = RSweepResult.from_payload(json.loads(blob))
        assert list(restored.normalized_error) == ["mars_express", "beijing"]
        assert list(restored.reference) == ["mars_express", "beijing"]
        assert restored == sweep

    def test_series_accessor(self):
        sweep = RSweepResult((0.5,), {"suturing": (0.9,)}, {"suturing": 0.25})
        assert sweep.series("suturing") == (0.9,)
        with pytest.raises(KeyError):
            sweep.series("unknown")


def test_encoded_corpus_is_packed_end_to_end():
    """The runtime path keeps the corpus packed (8x smaller) without
    changing any result — spot-check against a manually unpacked run."""
    from repro.runtime import BatchEncoder
    from repro.basis import LevelBasis
    from repro.hdc.hypervector import random_hypervectors
    from repro.learning import CentroidClassifier

    basis = LevelBasis(8, DIM, seed=0)
    keys = random_hypervectors(4, DIM, seed=1)
    enc = BatchEncoder(keys, basis.linear_embedding(0.0, 1.0))
    feats = np.random.default_rng(2).random((60, 4))
    labels = list(np.arange(60) % 3)

    packed = enc.encode(feats, seed=3, packed=True)
    unpacked = enc.encode(feats, seed=3)
    a = CentroidClassifier(DIM, tie_break="zeros").fit(packed, labels)
    b = CentroidClassifier(DIM, tie_break="zeros").fit(unpacked, labels)
    assert a.predict(packed) == b.predict(unpacked)
    assert packed.nbytes * 8 == unpacked.shape[0] * DIM
