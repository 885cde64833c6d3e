"""Runtime integration: parallel drivers are bit-identical and cached.

These tests pin the two load-bearing guarantees of the PR-2 runtime:

* ``run_table1`` / ``run_table2`` / ``run_rsweep`` with ``workers > 1``
  (thread or process backend) return exactly what the serial run
  returns, and
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
    run_classification,
    run_regression,
    run_rsweep,
    run_table1,
    run_table2,
)
from repro.runtime import ArtifactStore, WorkerPool

DIM = 256
C_CONFIG = ClassificationConfig(dim=DIM, seed=13)
R_CONFIG = RegressionConfig(dim=DIM, seed=13)
R_VALUES = (0.0, 0.1, 1.0)


class TestParallelBitIdentical:
    def test_table1_workers(self):
        serial = run_table1(C_CONFIG)
        assert run_table1(C_CONFIG, workers=4) == serial

    def test_table1_process_backend(self):
        serial = run_table1(C_CONFIG, tasks=("suturing",))
        assert run_table1(C_CONFIG, tasks=("suturing",), workers=2,
                          backend="process") == serial

    def test_table2_workers(self):
        serial = run_table2(R_CONFIG)
        assert run_table2(R_CONFIG, workers=4) == serial

    def test_rsweep_workers(self):
        serial = run_rsweep(R_VALUES, classification_config=C_CONFIG,
                            regression_config=R_CONFIG)
        parallel = run_rsweep(R_VALUES, classification_config=C_CONFIG,
                              regression_config=R_CONFIG, workers=4)
        assert serial == parallel

    def test_cell_with_pool_matches_serial(self):
        serial = run_classification("knot_tying", "circular", config=C_CONFIG)
        with WorkerPool(workers=4) as pool:
            sharded = run_classification("knot_tying", "circular",
                                         config=C_CONFIG, pool=pool)
        assert serial.accuracy == sharded.accuracy

    def test_regression_cell_with_pool_matches_serial(self):
        serial = run_regression("mars_express", "circular", config=R_CONFIG)
        with WorkerPool(workers=4) as pool:
            sharded = run_regression("mars_express", "circular",
                                     config=R_CONFIG, pool=pool)
        assert serial.mse == sharded.mse


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
