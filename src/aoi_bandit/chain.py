"""Truncated age-of-information chain for a single sensor link.

A sensor pushes status updates over an unreliable channel. In every slot
the update goes through with probability q = 1 - p, resetting the age of
the freshest delivered sample to 1; otherwise the age grows by one slot.
Ages are truncated at m, which keeps the state space finite and the age
process an m-state Markov chain on {1, ..., m}.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

__all__ = ["MAX_CAP", "ChainParams", "build_transition", "steady_state", "step_aoi"]

# the largest supported age cap: a run holds about 32 m**2 bytes per distinct
# sensor (its branch-mean table, the table's running minimum, and the cutoff
# search's sorted values and candidate grid), 30 MiB at m = 1 000
MAX_CAP = 1000


@dataclass(frozen=True)
class ChainParams:
    """Per-link channel failure probability and age cap.

    p: probability that a slot's update is lost (0 <= p < 1).
    m: age truncation level (2 <= m <= MAX_CAP); an age of m means "m or older".
    """

    p: float
    m: int

    def __post_init__(self) -> None:
        # the values as stored: a bool, a string or a float cap is refused
        if isinstance(self.p, bool) or not isinstance(self.p, Real) or not 0.0 <= self.p < 1.0:
            raise ValueError(f"failure probability must lie in [0, 1), got {self.p}")
        if not isinstance(self.m, (int, np.integer)) or self.m < 2:
            raise ValueError(f"age cap must be an integer >= 2, got {self.m}")
        if self.m > MAX_CAP:
            raise ValueError(f"age cap {self.m} exceeds the supported maximum of {MAX_CAP}")

    @property
    def q(self) -> float:
        """Per-slot delivery probability."""
        return 1.0 - self.p


def build_transition(params: ChainParams) -> np.ndarray:
    """Row-stochastic transition matrix of the age process.

    Row a holds the distribution of the next age: column 1 (reset) gets
    q regardless of a, and the remaining mass p moves to min(a + 1, m).
    """
    m = params.m
    t = np.zeros((m, m))
    t[:, 0] = params.q
    for a in range(m):
        t[a, min(a + 1, m - 1)] = params.p
    return t


def steady_state(params: ChainParams) -> np.ndarray:
    """Stationary distribution of the age process.

    Geometric decay q * p**(a-1) for ages a < m, with the truncated tail
    mass p**(m-1) pooled at age m.
    """
    m, p, q = params.m, params.p, params.q
    h = q * p ** np.arange(m, dtype=float)
    h[m - 1] = p ** (m - 1)
    return h


def step_aoi(params: ChainParams, aoi: int, u: float) -> int:
    """Advance a true age one slot using the uniform draw u in [0, 1)."""
    if not 1 <= aoi <= params.m:
        raise ValueError(f"age {aoi} outside [1, {params.m}]")
    if u < params.q:
        return 1
    return min(aoi + 1, params.m)
