"""Markov-chain machinery behind Section 4.2 of the paper.

The bit-flip process that motivates scatter codes is an absorbing
birth–death chain over Hamming-distance states.  This subpackage provides
the chain itself (:class:`~repro.markov.chain.BirthDeathChain`), the O(K)
tridiagonal solver (:func:`~repro.markov.tridiagonal.solve_tridiagonal`,
Thomas algorithm), and the absorption-time computations used by
:class:`~repro.basis.scatter.ScatterBasis`.
"""

from .. import _lazy

_EXPORTS = {
    "BirthDeathChain": "chain",
    "solve_tridiagonal": "tridiagonal",
    "absorption_time_profile": "absorption",
    "expected_absorption_steps": "absorption",
    "expected_flips_ladder": "absorption",
    "flips_for_expected_distance": "absorption",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_namespace(__name__, _EXPORTS)
