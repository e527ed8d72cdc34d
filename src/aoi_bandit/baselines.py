"""Benchmark values: a lower bound and the uniform-random poller.

The lower bound is a fractional fill over the capped stationary laws.
Polling never moves a true age, so the long-run share of slots that
poll sensor s while its age is a is at most pi_s(a), its stationary
probability; one poll per slot makes the shares sum to one. The least
mean age meeting both is reached by pooling pi_s(a) over the sensors
and filling ages from 1 upward until the mass reaches one. On the
uncapped chain this is the self-timed policy that transmits below a
level L and with probability omega at L; the cap only pools the tail
at age m, which moves mass down and so lowers the bound.
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


@dataclass(frozen=True)
class LowerBoundResult:
    """Age where the fill stops, the share taken there, and the bound."""

    l_star: int
    omega_star: float
    value: float


def lower_bound(sensors: list[ChainParams]) -> LowerBoundResult:
    """Least mean polled age any one-poll-per-slot schedule can reach.

    A sensor adds q * p**(a-1) to age a below its cap, p**(m-1) at its
    cap and nothing past it. The pooled mass is n >= 1, so the fill ends
    by the largest cap; where rounding leaves the sum a hair under one
    there, the whole last age is taken. A single sensor is polled every
    slot, so its bound is its capped stationary mean; its l_star is the
    age where the float sum reaches one, which can fall short of the cap.
    """
    if not sensors:
        raise ValueError("need at least one sensor")
    top = max(s.m for s in sensors)
    filled = value = 0.0
    for age in range(1, top + 1):
        mass = sum(s.p ** (age - 1) * (s.q if age < s.m else 1.0)
                   for s in sensors if age <= s.m)
        if filled + mass >= 1.0 or age == top:
            break
        filled += mass
        value += age * mass
    omega = (1.0 - filled) / mass if filled + mass > 1.0 else 1.0
    return LowerBoundResult(l_star=age, omega_star=omega, value=value + omega * age * mass)


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
