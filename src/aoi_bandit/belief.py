"""Belief state of a sensor that is polled only occasionally.

Between polls the scheduler cannot see the true age, but the posterior
has a tight closed form: it is fully determined by the age k observed at
the last poll and the number of slots i elapsed since. Each (k, i) pair
is one evolution branch of the belief chain, and both the full posterior
and its mean age are available without any matrix products.
"""
from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

from .chain import ChainParams, steady_state

__all__ = [
    "BranchState",
    "branch_belief",
    "expected_aoi",
    "expected_aoi_table",
    "steady_expected_aoi",
    "evolve",
]


@dataclass(frozen=True)
class BranchState:
    """Belief branch (k, i): age k seen at the last poll, i slots ago.

    k: observed age, 1 <= k <= m.
    i: elapsed slots since the poll, at least 1. Values beyond m - 1 are
       clamped there; from that point on the posterior has mixed to the
       stationary distribution and stops changing, so nothing is lost.
    m: age cap of the underlying chain.
    """

    k: int
    i: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"age cap must be at least 2, got {self.m}")
        if not 1 <= self.k <= self.m:
            raise ValueError(f"observed age {self.k} outside [1, {self.m}]")
        if self.i < 1:
            raise ValueError(f"elapsed slots must be >= 1, got {self.i}")
        if self.i > self.m - 1:
            object.__setattr__(self, "i", self.m - 1)

    @classmethod
    def stationary(cls, m: int) -> "BranchState":
        """The no-information state: posterior equal to the steady state."""
        return cls(k=m, i=m - 1, m=m)


def branch_belief(params: ChainParams, state: BranchState) -> np.ndarray:
    """Posterior age distribution of branch (k, i).

    Ages 1..i carry the fresh-reset masses q, qp, ..., q p**(i-1); the
    remaining p**i is the no-delivery event and sits at min(i + k, m).
    At i = m - 1 this is exactly the stationary distribution.
    """
    if state.m != params.m:
        raise ValueError(f"state cap {state.m} does not match params cap {params.m}")
    m, p, q = params.m, params.p, params.q
    k, i = state.k, state.i
    pi = np.zeros(m)
    pi[:i] = q * p ** np.arange(i, dtype=float)
    pi[min(i + k, m) - 1] += p ** i
    return pi


def expected_aoi(params: ChainParams, state: BranchState) -> float:
    """Mean age of branch (k, i).

    Closed form (1 - p**i)/(1 - p) - i p**i + p**i min(i + k, m); equals
    the dot product of branch_belief with (1, ..., m).
    """
    if state.m != params.m:
        raise ValueError(f"state cap {state.m} does not match params cap {params.m}")
    m, p, k, i = params.m, params.p, state.k, state.i
    if i >= m - 1:
        return steady_expected_aoi(params)
    pi_ = p**i
    return (1.0 - pi_) / (1.0 - p) - pi_ * i + pi_ * min(i + k, m)


def expected_aoi_table(params: ChainParams) -> np.ndarray:
    """All branch means at once: entry [k - 1, i - 1] is the mean of (k, i).

    Shape (m, m - 1). Row k - 1 ends at the stationary mean since every
    branch has mixed by i = m - 1.
    """
    m, p = params.m, params.p
    i = np.arange(1, m, dtype=float)
    pi_ = p**i
    base = (1.0 - pi_) / (1.0 - p) - pi_ * i
    return base[None, :] + pi_[None, :] * _reach(m)


@functools.cache
def _reach(m: int) -> np.ndarray:
    # min(i + k, m) at entry [k - 1, i - 1], the same for every table of cap m
    k, i = np.ogrid[1 : m + 1, 1:m]
    reach = np.minimum(k + i, m).astype(float)
    reach.setflags(write=False)
    return reach


def _weak_cache(build):
    # one shared read-only copy of build's array per distinct sensor, for
    # the hot search paths; it goes when the sensor that first asked does
    store = weakref.WeakKeyDictionary()

    def cached(params: ChainParams) -> np.ndarray:
        value = store.get(params)
        if value is None:
            value = store[params] = build(params)
            value.setflags(write=False)
        return value

    return cached


# the builders look expected_aoi_table up on each call, so a patched one is seen
_table_cached = _weak_cache(lambda params: expected_aoi_table(params))
# running minimum along each row of the cached table: entry [k - 1, j] is
# the smallest mean of branch k over its first j + 1 slots
_runmin_cached = _weak_cache(lambda params: np.minimum.accumulate(_table_cached(params), axis=1))
# the stationary age law's CDF, normalised as Generator.choice normalises
# it, so that searching one uniform in it draws what choice draws
_start_cdf_cached = _weak_cache(lambda params: (c := steady_state(params).cumsum()) / c[-1])


def steady_expected_aoi(params: ChainParams) -> float:
    """Mean age under the stationary distribution: (1 - p**m)/(1 - p)."""
    return (1.0 - params.p**params.m) / (1.0 - params.p)


def evolve(state: BranchState, action: str, observation: int | None = None) -> BranchState:
    """One-slot belief update.

    action "rest": the elapsed counter ages by one (clamped at m - 1).
    action "sample": the poll returned the true age; pass it as
    observation and the branch resets to (observation, 1).
    """
    if action == "rest":
        if observation is not None:
            raise ValueError("rest carries no observation")
        return BranchState(k=state.k, i=state.i + 1, m=state.m)
    if action == "sample":
        if observation is None:
            raise ValueError("sample requires the observed age")
        return BranchState(k=observation, i=1, m=state.m)
    raise ValueError(f"unknown action {action!r}")
