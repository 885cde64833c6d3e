"""Synthetic workload generators substituting for the paper's datasets.

The paper evaluates on JIGSAWS (restricted access), UCI Beijing air
quality and ESA Mars Express power (no network in this environment); each
generator here reproduces the *structure* those experiments probe.
"""

from .. import _lazy

_EXPORTS = {
    "ClassificationSplit": "base",
    "RegressionSplit": "base",
    "chronological_split": "base",
    "random_split": "base",
    "make_jigsaws_like": "jigsaws",
    "JIGSAWS_TASKS": "jigsaws",
    "SURGEONS": "jigsaws",
    "TaskSpec": "jigsaws",
    "make_beijing_like": "beijing",
    "DAYS_PER_YEAR": "beijing",
    "make_mars_express_like": "mars_express",
    "mars_power_curve": "mars_express",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy.lazy_namespace(__name__, _EXPORTS)
