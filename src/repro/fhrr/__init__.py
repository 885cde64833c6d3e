"""FHRR phasor space and fractional power encoding (library extension).

The modern VSA-native treatment of circular data, included as the
counterpoint to the paper's binary circular-hypervectors: instead of
constructing a discrete basis set, encode the angle as integer-frequency
phasors whose expected similarity *is* a designable circular kernel.
``benchmarks/bench_extension_fpe.py`` runs the head-to-head comparison,
including the bandwidth limitation of the binary circular sets.
"""

from .. import _lazy

_EXPORTS = {
    "FHRRSpace": "space",
    "FractionalPowerEncoding": "fpe",
    "FPERegressor": "fpe",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_namespace(__name__, _EXPORTS)
