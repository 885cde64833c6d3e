"""The Hyperdimensional Computing substrate.

This subpackage implements the complete HDC machinery the paper relies on
(Section 2): binary hypervectors, the bind/bundle/permute arithmetic, the
normalized Hamming distance, item (cleanup) memories, and the compound
encoders used by the experiments.  The paper's own contributions — the
basis-hypervector constructions — live in :mod:`repro.basis` and are built
on top of this substrate.
"""

from .hypervector import (
    BIT_DTYPE,
    DEFAULT_DIMENSION,
    as_hypervector,
    is_hypervector,
    ones,
    pack_bits,
    random_hypervector,
    random_hypervectors,
    unpack_bits,
    zeros,
)
from .kernels import (
    AUTO_CROSSOVER,
    DEFAULT_CELL_BUDGET,
    TopK,
    cell_budget,
    topk_hamming,
    use_gemm,
)
from .ingest import ingest_chunk
from .coerce import (
    EncodedBatch,
    any_packed,
    as_encoded_batch,
    as_packed_batch,
    batch_rows,
)
from .memory import ItemMemory
from .packed import (
    BundleAccumulator,
    PackedHV,
    coerce_packed,
    is_packed,
    packed_bind,
    packed_bind_all,
    packed_bundle,
    packed_hamming,
    packed_pairwise_hamming,
    packed_permute,
    packed_width,
    popcount,
)
from .ops import (
    bind,
    bind_all,
    bundle,
    hamming_distance,
    inverse_permute,
    majority_from_counts,
    pairwise_hamming,
    pairwise_similarity,
    permute,
    positional_tie_bits,
    positional_tie_words,
    resolve_majority,
    similarity,
)
from .spaces import (
    BSCSpace,
    MAPSpace,
    PackedBSCSpace,
    VectorSpace,
    binary_to_bipolar,
    bipolar_to_binary,
)
from .encoders import (
    encode_bound_records,
    encode_keyvalue_record,
    encode_keyvalue_records,
    encode_ngrams,
    encode_sequence,
)

__all__ = [
    "BIT_DTYPE",
    "DEFAULT_DIMENSION",
    "as_hypervector",
    "is_hypervector",
    "ones",
    "zeros",
    "pack_bits",
    "unpack_bits",
    "random_hypervector",
    "random_hypervectors",
    "bind",
    "bind_all",
    "bundle",
    "majority_from_counts",
    "positional_tie_bits",
    "positional_tie_words",
    "resolve_majority",
    "permute",
    "inverse_permute",
    "hamming_distance",
    "similarity",
    "pairwise_hamming",
    "pairwise_similarity",
    "AUTO_CROSSOVER",
    "DEFAULT_CELL_BUDGET",
    "TopK",
    "cell_budget",
    "use_gemm",
    "topk_hamming",
    "ingest_chunk",
    "PackedHV",
    "BundleAccumulator",
    "EncodedBatch",
    "any_packed",
    "as_encoded_batch",
    "as_packed_batch",
    "batch_rows",
    "is_packed",
    "coerce_packed",
    "packed_width",
    "popcount",
    "packed_bind",
    "packed_bind_all",
    "packed_bundle",
    "packed_permute",
    "packed_hamming",
    "packed_pairwise_hamming",
    "ItemMemory",
    "VectorSpace",
    "BSCSpace",
    "PackedBSCSpace",
    "MAPSpace",
    "binary_to_bipolar",
    "bipolar_to_binary",
    "encode_keyvalue_record",
    "encode_keyvalue_records",
    "encode_bound_records",
    "encode_sequence",
    "encode_ngrams",
]
