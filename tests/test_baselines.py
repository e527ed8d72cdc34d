"""Self-timed lower bound and uniform-polling reference values."""
import math

import numpy as np
import pytest

from aoi_bandit import (
    ChainParams,
    lower_bound,
    random_policy_value,
    random_policy_value_uniform,
    solve_eta,
)
from aoi_bandit.baselines import _aggregate_tx, _cycle_aoi, _cycle_tx


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
    single = lower_bound([ChainParams(p=0.9, m=2)])
    assert single.omega_star == 1.0
    assert single.value == pytest.approx(10.0, rel=1e-6)


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


def test_bound_sits_below_policy_values():
    # deep caps keep truncation negligible, so the bound must undercut
    # both the uniform poller and the tuned cutoff policy
    for p in (0.3, 0.6, 0.9):
        for n in (2, 6):
            fleet = [ChainParams(p=p, m=100)] * n
            lb = lower_bound(fleet).value
            assert lb <= random_policy_value(fleet) + 1e-9
    fleet = [ChainParams(p=0.8, m=100)] * 4
    assert lower_bound(fleet).value <= solve_eta(fleet).j_value + 1e-9
