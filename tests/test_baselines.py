"""Stationary-fill lower bound and uniform-polling reference values."""
import itertools
import math

import numpy as np
import pytest

from aoi_bandit import (
    ChainParams,
    lower_bound,
    random_policy_value,
    random_policy_value_uniform,
    solve_eta,
    steady_expected_aoi,
)


# The uncapped oracle: a sensor that transmits whenever its age is below
# a level L, and with probability omega at L, has closed-form per-slot
# transmission and age rates over a renewal cycle of the uncapped chain.
# Where the cap cannot bind, the fill's bound is the (L, omega) of this
# self-timed policy that just meets one transmission per slot.
def _cycle_tx(p: float, level: int, omega: float) -> float:
    return 1.0 - omega * p**level - (1.0 - omega) * p ** (level - 1)


def _cycle_aoi(p: float, level: int, omega: float) -> float:
    q = 1.0 - p
    aoi = ((level - 1) * p**level - level * p ** (level - 1) + 1.0) / q
    return aoi + omega * level * q * p ** (level - 1)


def _aggregate_tx(sensors, level: int, omega: float) -> float:
    return sum(_cycle_tx(s.p, level, omega) for s in sensors)


def _uncapped_bound(sensors) -> float:
    # the smallest level whose full-throttle rate reaches the budget, then
    # omega from the budget equation there; one sensor reaches the budget
    # only in the limit, hence the slack
    level = 1
    while _aggregate_tx(sensors, level, 1.0) < 1.0 - 1e-12:
        level += 1
    at_zero = sum(1.0 - s.p ** (level - 1) for s in sensors)
    span = sum(s.p ** (level - 1) - s.p**level for s in sensors)
    omega = min((1.0 - at_zero) / span, 1.0) if span > 0.0 else 1.0
    return sum(_cycle_aoi(s.p, level, omega) for s in sensors)


def test_proactive_hand_worked():
    assert (_cycle_tx(0.0, 1, 1.0), _cycle_aoi(0.0, 1, 1.0)) == (1.0, 1.0)
    assert _cycle_tx(0.5, 1, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert _cycle_aoi(0.5, 1, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_proactive_continuous_across_levels():
    # raising the level while collapsing omega lands on the same rates
    p = 0.7
    for level in (1, 3, 7):
        for rate in (_cycle_tx, _cycle_aoi):
            assert rate(p, level, 1.0) == pytest.approx(rate(p, level + 1, 1e-12), abs=1e-9)


def _simulate_cycle(p, level, omega, slots, seed):
    # independent route: drive the uncapped age chain and count the
    # slots the self-timed rule claims, plus the age mass they carry
    rng = np.random.default_rng(seed)
    q = 1.0 - p
    resets = rng.random(slots) < q
    coins = rng.random(slots)
    idx = np.arange(slots)
    last = np.maximum.accumulate(np.where(resets, idx, -1))
    prev_last = np.concatenate(([-1], last[:-1]))
    ages = idx - prev_last
    counted = (ages < level) | ((ages == level) & (coins < omega))
    burn = 1000
    return (
        float(counted[burn:].mean()),
        float((ages * counted)[burn:].mean()),
    )


@pytest.mark.parametrize("p,level,omega", [(0.6, 2, 0.7), (0.3, 1, 0.4), (0.8, 4, 1.0)])
def test_proactive_matches_simulation(p, level, omega):
    tx, aoi = _simulate_cycle(p, level, omega, 400_000, seed=97)
    assert tx == pytest.approx(_cycle_tx(p, level, omega), rel=0.01)
    assert aoi == pytest.approx(_cycle_aoi(p, level, omega), rel=0.01)


def test_lower_bound_hand_worked():
    result = lower_bound([ChainParams(p=0.5, m=100)] * 4)
    assert result.l_star == 1
    assert result.omega_star == pytest.approx(0.5, abs=1e-12)
    assert result.value == pytest.approx(1.0, abs=1e-12)

    result = lower_bound([ChainParams(p=0.0, m=100)])
    assert (result.l_star, result.omega_star, result.value) == (1, 1.0, 1.0)


def test_lower_bound_needs_sensors():
    with pytest.raises(ValueError):
        lower_bound([])


@pytest.mark.parametrize("p", [0.3, 0.8])
def test_lower_bound_sits_on_the_budget(p):
    sensors = [ChainParams(p=p, m=400)] * 2
    result = lower_bound(sensors)
    assert _aggregate_tx(sensors, result.l_star, result.omega_star) == pytest.approx(1.0, abs=1e-9)
    if result.l_star > 1:
        # one level lower cannot reach the budget even at full throttle
        assert _aggregate_tx(sensors, result.l_star - 1, 1.0) < 1.0


def test_symmetric_shortcut_matches_search():
    # n identical sensors, 0 < p < 1, n >= 2: the level is the smallest
    # whose full-throttle rate n * (1 - p**level) reaches the budget, and
    # omega meets the budget exactly at that level
    for p in np.arange(0.1, 0.91, 0.1).tolist():
        for n in (2, 4, 8, 12):
            level = max(math.ceil(math.log(1.0 - 1.0 / n) / math.log(p) - 1e-12), 1)
            omega = (p ** (level - 1) + 1.0 / n - 1.0) / (p ** (level - 1) - p**level)
            search = lower_bound([ChainParams(p=p, m=500)] * n)
            assert search.l_star == level, (p, n)
            assert search.omega_star == pytest.approx(omega, abs=1e-9)
            assert search.value == pytest.approx(n * _cycle_aoi(p, level, omega), rel=1e-9)


def test_symmetric_shortcut_degenerate_inputs():
    assert lower_bound([ChainParams(p=0.0, m=2)] * 3).value == pytest.approx(1.0, abs=1e-12)
    # one sensor is polled every slot, so the bound is its capped mean
    single = lower_bound([ChainParams(p=0.9, m=2)])
    assert single.omega_star == 1.0
    assert single.value == pytest.approx(steady_expected_aoi(ChainParams(p=0.9, m=2)), rel=1e-6)


def test_random_policy_hand_worked():
    assert random_policy_value([ChainParams(p=0.0, m=5)]) == 1.0
    fleet = [ChainParams(p=0.0, m=2), ChainParams(p=0.5, m=2)]
    assert random_policy_value(fleet) == pytest.approx(1.25, abs=1e-15)
    near_five = random_policy_value([ChainParams(p=0.8, m=100)] * 4)
    assert near_five == pytest.approx(5.0, abs=1e-8)
    with pytest.raises(ValueError):
        random_policy_value([])


def test_random_policy_uniform_span():
    assert random_policy_value_uniform(0.8) == pytest.approx(2.7465307216702745, abs=1e-12)
    # the span-to-zero limit is the p = 1/2 point value
    assert random_policy_value_uniform(1e-6) == pytest.approx(2.0, abs=1e-9)
    for bad in (0.0, 1.0, -0.3):
        with pytest.raises(ValueError):
            random_policy_value_uniform(bad)


def _grid_fleets():
    # the symmetric grid, where the cap binds at small m and p near 1, plus
    # fleets with mixed failure probabilities and caps
    for p, m, n in itertools.product(
        (0.0, 0.3, 0.6, 0.8, 0.9, 0.95, 0.99), (2, 3, 5, 10, 20, 100), (1, 2, 3, 4, 8)
    ):
        yield [ChainParams(p=p, m=m)] * n
    rng = np.random.default_rng(16)
    for _ in range(12):
        n = int(rng.integers(1, 6))
        yield [
            ChainParams(p=float(rng.uniform(0.0, 0.99)), m=int(rng.integers(2, 60)))
            for _ in range(n)
        ]


# the solver warns on the grid's p = 0.8, m = 20, n = 4 fleet, whose
# evaluated rate dips; this test compares values, not the solver's search
@pytest.mark.filterwarnings("ignore:aggregate poll rate not monotone")
def test_bound_sits_below_policy_values():
    # the bound must undercut the uniform poller and the uncapped bound
    # everywhere, and equal the latter where the cap cannot bind
    agreed = 0
    for fleet in _grid_fleets():
        result = lower_bound(fleet)
        oracle = _uncapped_bound(fleet)
        assert result.value <= random_policy_value(fleet) + 1e-9
        assert result.value <= oracle * (1.0 + 1e-9)
        if result.l_star < min(s.m for s in fleet) - 1 and max(s.p**s.m for s in fleet) <= 1e-15:
            assert result.value == pytest.approx(oracle, rel=1e-9)
            agreed += 1
        # a cutoff policy that polls less than once per slot can keep only
        # the freshest ages and undercut the bound, so only a full budget
        # makes its value a reference
        sol = solve_eta(fleet)
        if sol.d_hat >= 1.0:
            assert result.value <= sol.j_value + 1e-9
    assert agreed >= 20
    # where the cap binds, the uncapped value (3.19) is no bound: uniform
    # polling reaches 2.85
    assert lower_bound([ChainParams(p=0.95, m=3)] * 4).value == pytest.approx(2.41, abs=1e-12)
