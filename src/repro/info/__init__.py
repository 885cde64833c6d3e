"""Information-theoretic analysis of basis sets (Section 4.1)."""

from .. import _lazy

_EXPORTS = {
    "information_content": "content",
    "entropy": "content",
    "log2_binomial": "content",
    "random_set_entropy": "content",
    "legacy_level_set_entropy": "content",
    "interpolated_level_set_entropy": "content",
    "empirical_column_entropy": "content",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_namespace(__name__, _EXPORTS)
