"""Minimum-age polling of partially observable sensor links.

Each sensor's age of information follows a capped renewal chain; the
scheduler only sees the ages it polls, so its knowledge per sensor is a
two-integer belief branch. The package covers the closed-form belief
and threshold analysis, the budget-tuned cutoff policy, a self-timed
lower bound, baselines, and a slot-level simulator with an experiment
harness on top.
"""

from . import baselines, belief, chain, experiments, relaxed_solver, sim, threshold
from .baselines import *  # noqa: F403
from .belief import *  # noqa: F403
from .chain import *  # noqa: F403
from .experiments import *  # noqa: F403
from .relaxed_solver import *  # noqa: F403
from .sim import *  # noqa: F403
from .threshold import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (chain, belief, threshold, relaxed_solver, baselines, sim, experiments)
    for name in module.__all__
] + ["__version__"]
