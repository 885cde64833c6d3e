"""repro — Basis-hypervectors for learning from circular data in HDC.

A from-scratch reproduction of *"An Extension to Basis-Hypervectors for
Learning from Circular Data in Hyperdimensional Computing"* (Nunes,
Heddes, Givargis, Nicolau — DAC 2023), including the complete HDC
substrate it builds on.

Quickstart
----------
>>> from repro import CircularBasis, LevelBasis, RandomBasis
>>> hours = CircularBasis(size=24, dim=10_000, seed=0)
>>> emb = hours.circular_embedding(period=24.0)
>>> hv_23, hv_0 = emb.encode(23.0), emb.encode(0.0)
>>> # 11 pm and midnight stay similar — no endpoint tear:
>>> bool((hv_23 != hv_0).mean() < 0.1)
True

Package map
-----------
* :mod:`repro.hdc` — hypervectors, bind/bundle/permute, item memory,
  compound encoders (the Section 2 substrate),
* :mod:`repro.basis` — random / level / circular / scatter basis sets
  (the paper's contributions),
* :mod:`repro.markov` — the Section 4.2 absorption-time machinery,
* :mod:`repro.stats` — directional statistics,
* :mod:`repro.info` — Section 4.1 information-content analysis,
* :mod:`repro.learning` — HDC classifier and regressor, metrics, baselines,
* :mod:`repro.datasets` — synthetic workloads (JIGSAWS / Beijing / Mars
  Express surrogates),
* :mod:`repro.hashing` — the hyperdimensional consistent-hashing system
  circular-hypervectors originate from,
* :mod:`repro.runtime` — experiment runtime: batched encoding, forked
  fan-out of independent cells, artifact caching,
* :mod:`repro.streaming` — out-of-core chunked reducer: chunk sources,
  chunking-invariant encoding, streamed training with checkpoints,
* :mod:`repro.experiments` — one driver per table/figure,
* :mod:`repro.analysis` — similarity matrices, figure data, reporting.

Every package resolves its exported names on first use
(:mod:`repro._lazy`), so ``import repro`` loads none of them.
"""

from . import _lazy

__version__ = "1.3.0"

#: Every public name, mapped to the subpackage that defines it; each is
#: imported on first use (:mod:`repro._lazy`).
_EXPORTS = {
    # basis sets
    "BasisSet": "basis",
    "Embedding": "basis",
    "RandomBasis": "basis",
    "LevelBasis": "basis",
    "LegacyLevelBasis": "basis",
    "CircularBasis": "basis",
    "ScatterBasis": "basis",
    "make_basis": "basis",
    "LinearDiscretizer": "basis",
    "CircularDiscretizer": "basis",
    # HDC substrate
    "BSCSpace": "hdc",
    "PackedBSCSpace": "hdc",
    "MAPSpace": "hdc",
    "PackedHV": "hdc",
    "BundleAccumulator": "hdc",
    "ItemMemory": "hdc",
    "bind": "hdc",
    "bundle": "hdc",
    "permute": "hdc",
    "hamming_distance": "hdc",
    "similarity": "hdc",
    "random_hypervector": "hdc",
    "random_hypervectors": "hdc",
    # learning
    "CentroidClassifier": "learning",
    "HDRegressor": "learning",
    # runtime
    "ArtifactStore": "runtime",
    "BatchEncoder": "runtime",
    # serving
    "save_model": "serve",
    "load_model": "serve",
    "TrainedPipeline": "serve",
    "InferenceEngine": "serve",
    "OnlineLearner": "serve",
    # errors
    "ReproError": "exceptions",
    "DimensionMismatchError": "exceptions",
    "InvalidHypervectorError": "exceptions",
    "InvalidParameterError": "exceptions",
    "EncodingDomainError": "exceptions",
    "EmptyModelError": "exceptions",
    "ModelFormatError": "exceptions",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = _lazy.lazy_namespace(__name__, _EXPORTS)
