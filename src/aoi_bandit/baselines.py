"""Benchmark values: a genie lower bound and the uniform-random poller.

The lower bound drops the one-poll-per-slot coupling and lets every
sensor push updates on its own: a sensor transmits whenever its age is
below a level L, and with probability omega when the age equals L. Over
a renewal cycle the per-slot transmission and age rates have closed
forms in (L, omega); tightening (L, omega) until the aggregate
transmission rate just reaches one per slot yields a value no schedule
can beat. The cycle argument runs on the untruncated age process, so
the age cap never enters these formulas, and the bound only holds for
the capped chain while p**m is negligible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .belief import steady_expected_aoi
from .chain import ChainParams

__all__ = [
    "LowerBoundResult",
    "lower_bound",
    "random_policy_value",
    "random_policy_value_uniform",
]

_FEAS_TOL = 1e-12


@dataclass(frozen=True)
class LowerBoundResult:
    """Tightest self-timed configuration and the bound it certifies."""

    l_star: int
    omega_star: float
    value: float


def _cycle_tx(p: float, level: int, omega: float) -> float:
    return 1.0 - omega * p**level - (1.0 - omega) * p ** (level - 1)


def _cycle_aoi(p: float, level: int, omega: float) -> float:
    q = 1.0 - p
    aoi = ((level - 1) * p**level - level * p ** (level - 1) + 1.0) / q
    return aoi + omega * level * q * p ** (level - 1)


def _aggregate_tx(sensors: list[ChainParams], level: int, omega: float) -> float:
    return sum(_cycle_tx(s.p, level, omega) for s in sensors)


def lower_bound(sensors: list[ChainParams]) -> LowerBoundResult:
    """Best self-timed value meeting one transmission per slot on average.

    The level is the smallest integer whose always-transmit rate reaches
    the budget; omega then solves the budget equation linearly at that
    level. A single unreliable sensor can only approach the budget in
    the limit, so feasibility carries a 1e-12 slack, which turns the
    search into the infimum it is meant to be.
    """
    if not sensors:
        raise ValueError("need at least one sensor")

    def feasible(level: int) -> bool:
        return _aggregate_tx(sensors, level, 1.0) >= 1.0 - _FEAS_TOL

    hi = 1
    while not feasible(hi):
        hi *= 2
        if hi > 2**62:
            raise ArithmeticError("self-timed budget unreachable")
    lo = hi // 2
    while hi - lo > 1 and lo >= 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    level = hi

    at_zero = sum(1.0 - s.p ** (level - 1) for s in sensors)
    span = sum(s.p ** (level - 1) - s.p**level for s in sensors)
    omega = (1.0 - at_zero) / span if span > 0.0 else 1.0
    omega = min(max(omega, _FEAS_TOL), 1.0)
    value = sum(_cycle_aoi(s.p, level, omega) for s in sensors)
    return LowerBoundResult(l_star=level, omega_star=omega, value=value)


def random_policy_value(sensors: list[ChainParams]) -> float:
    """Mean observed age when each slot polls one sensor uniformly.

    The polled sensor is stationary, so the value is the average of the
    per-sensor stationary means.
    """
    if not sensors:
        raise ValueError("need at least one sensor")
    return sum(steady_expected_aoi(s) for s in sensors) / len(sensors)


def random_policy_value_uniform(p_span: float) -> float:
    """Uniform-random poller averaged over p ~ U(1/2 - span/2, 1/2 + span/2).

    Untruncated-age limit; the sensor count drops out of the average.
    """
    if not 0.0 < p_span < 1.0:
        raise ValueError(f"span must lie in (0, 1), got {p_span}")
    return math.log((1.0 + p_span) / (1.0 - p_span)) / p_span
