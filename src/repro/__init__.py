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
* :mod:`repro.runtime` — experiment runtime: batched encoding, a
  worker pool for independent cells, artifact caching,
* :mod:`repro.streaming` — out-of-core chunked reducer: chunk sources,
  chunking-invariant encoding, streamed training with checkpoints,
* :mod:`repro.experiments` — one driver per table/figure,
* :mod:`repro.analysis` — similarity matrices, figure data, reporting.
"""

from .basis import (
    BasisSet,
    CircularBasis,
    CircularDiscretizer,
    Embedding,
    LegacyLevelBasis,
    LevelBasis,
    LinearDiscretizer,
    RandomBasis,
    ScatterBasis,
    make_basis,
)
from .exceptions import (
    DimensionMismatchError,
    EmptyModelError,
    EncodingDomainError,
    InvalidHypervectorError,
    InvalidParameterError,
    ModelFormatError,
    ReproError,
)
from .hdc import (
    BSCSpace,
    BundleAccumulator,
    ItemMemory,
    MAPSpace,
    PackedBSCSpace,
    PackedHV,
    bind,
    bundle,
    hamming_distance,
    permute,
    random_hypervector,
    random_hypervectors,
    similarity,
)
from .learning import CentroidClassifier, HDRegressor
from .runtime import ArtifactStore, BatchEncoder
from .serve import (
    InferenceEngine,
    OnlineLearner,
    TrainedPipeline,
    load_model,
    save_model,
)

__version__ = "1.3.0"

__all__ = [
    "__version__",
    # basis sets
    "BasisSet",
    "Embedding",
    "RandomBasis",
    "LevelBasis",
    "LegacyLevelBasis",
    "CircularBasis",
    "ScatterBasis",
    "make_basis",
    "LinearDiscretizer",
    "CircularDiscretizer",
    # HDC substrate
    "BSCSpace",
    "PackedBSCSpace",
    "MAPSpace",
    "PackedHV",
    "BundleAccumulator",
    "ItemMemory",
    "bind",
    "bundle",
    "permute",
    "hamming_distance",
    "similarity",
    "random_hypervector",
    "random_hypervectors",
    # learning
    "CentroidClassifier",
    "HDRegressor",
    # runtime
    "ArtifactStore",
    "BatchEncoder",
    # serving
    "save_model",
    "load_model",
    "TrainedPipeline",
    "InferenceEngine",
    "OnlineLearner",
    # errors
    "ReproError",
    "DimensionMismatchError",
    "InvalidHypervectorError",
    "InvalidParameterError",
    "EncodingDomainError",
    "EmptyModelError",
    "ModelFormatError",
]
