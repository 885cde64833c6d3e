"""Analysis and reporting: the data behind the paper's figures."""

from .. import _lazy

_EXPORTS = {
    "basis_similarity_matrix": "similarity",
    "figure3_data": "similarity",
    "figure6_data": "similarity",
    "reference_similarity_profile": "similarity",
    "format_table": "reporting",
    "format_float": "reporting",
    "render_heatmap": "reporting",
    "flip_bits": "robustness",
    "classifier_robustness_curve": "robustness",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_namespace(__name__, _EXPORTS)
