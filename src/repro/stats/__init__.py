"""Directional-statistics substrate (Section 5 background).

Circular data require their own statistical toolkit — the subdiscipline
the paper cites as directional statistics [29, 32].  This subpackage
implements the pieces the reproduction needs: angle wrapping and
time-to-angle conversion, circular distances (including the paper's ρ),
descriptive statistics (circular mean/variance), the von Mises and
wrapped-normal distributions, and circular–linear association measures.
"""

from .. import _lazy

_EXPORTS = {
    "TWO_PI": "angles",
    "wrap_angle": "angles",
    "wrap_angle_signed": "angles",
    "time_to_angle": "angles",
    "angle_to_time": "angles",
    "degrees_to_radians": "angles",
    "radians_to_degrees": "angles",
    "circular_distance": "distance",
    "arc_distance": "distance",
    "chord_distance": "distance",
    "circular_mean": "descriptive",
    "resultant_length": "descriptive",
    "circular_variance": "descriptive",
    "circular_std": "descriptive",
    "circular_range": "descriptive",
    "VonMises": "distributions",
    "WrappedNormal": "distributions",
    "circular_linear_correlation": "correlation",
    "circular_circular_correlation": "correlation",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_namespace(__name__, _EXPORTS)
