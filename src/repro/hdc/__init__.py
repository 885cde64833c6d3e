"""The Hyperdimensional Computing substrate.

This subpackage implements the complete HDC machinery the paper relies on
(Section 2): binary hypervectors, the bind/bundle/permute arithmetic, the
normalized Hamming distance, item (cleanup) memories, and the compound
encoders used by the experiments.  The paper's own contributions — the
basis-hypervector constructions — live in :mod:`repro.basis` and are built
on top of this substrate.
"""

from .. import _lazy

_EXPORTS = {
    "BIT_DTYPE": "hypervector",
    "DEFAULT_DIMENSION": "hypervector",
    "as_hypervector": "hypervector",
    "is_hypervector": "hypervector",
    "ones": "hypervector",
    "zeros": "hypervector",
    "pack_bits": "hypervector",
    "unpack_bits": "hypervector",
    "random_hypervector": "hypervector",
    "random_hypervectors": "hypervector",
    "bind": "ops",
    "bind_all": "ops",
    "bundle": "ops",
    "majority_from_counts": "ops",
    "positional_tie_bits": "ops",
    "positional_tie_words": "ops",
    "resolve_majority": "ops",
    "permute": "ops",
    "inverse_permute": "ops",
    "hamming_distance": "ops",
    "similarity": "ops",
    "pairwise_hamming": "ops",
    "pairwise_similarity": "ops",
    "AUTO_CROSSOVER": "kernels",
    "DEFAULT_CELL_BUDGET": "kernels",
    "TopK": "kernels",
    "cell_budget": "kernels",
    "use_gemm": "kernels",
    "topk_hamming": "kernels",
    "ingest_chunk": "ingest",
    "PackedHV": "packed",
    "BundleAccumulator": "packed",
    "EncodedBatch": "coerce",
    "any_packed": "coerce",
    "as_encoded_batch": "coerce",
    "as_packed_batch": "coerce",
    "batch_rows": "coerce",
    "is_packed": "packed",
    "coerce_packed": "packed",
    "packed_width": "packed",
    "popcount": "packed",
    "packed_bind": "packed",
    "packed_bind_all": "packed",
    "packed_bundle": "packed",
    "packed_permute": "packed",
    "packed_hamming": "packed",
    "packed_pairwise_hamming": "packed",
    "ItemMemory": "memory",
    "VectorSpace": "spaces",
    "BSCSpace": "spaces",
    "PackedBSCSpace": "spaces",
    "MAPSpace": "spaces",
    "binary_to_bipolar": "spaces",
    "bipolar_to_binary": "spaces",
    "encode_keyvalue_record": "encoders",
    "encode_keyvalue_records": "encoders",
    "encode_bound_records": "encoders",
    "encode_sequence": "encoders",
    "encode_ngrams": "encoders",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_namespace(__name__, _EXPORTS)
