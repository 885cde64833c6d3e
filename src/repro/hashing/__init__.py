"""Hyperdimensional consistent hashing (the origin of circular-hypervectors)."""

from .. import _lazy

_EXPORTS = {
    "HyperdimensionalHashRing": "hyperhash",
    "key_to_angle": "hyperhash",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_namespace(__name__, _EXPORTS)
