"""Greedy's exact long-run value on small fleets, from the joint belief chain.

Under greedy the fleet's joint belief is a finite Markov chain: each slot
polls the sensor with the smallest branch mean (lowest index on ties), the
polled sensor moves to (a, 1) with a drawn from its branch belief, and every
other sensor ages one slot, clamped at m - 1. A poll's observed age has the
polled branch's mean, so greedy's value per poll is the stationary mean of
min_s abar_s over that chain: a noise-free reference for the simulator.
"""
import math

import numpy as np
import pytest
from scipy import sparse, stats
from scipy.sparse.linalg import spsolve

from aoi_bandit import (
    BranchState,
    ChainParams,
    EtaSolution,
    branch_belief,
    expected_aoi_table,
    lower_bound,
    run_greedy,
    sensor_rates,
    solve_eta,
)
from aoi_bandit.experiments import _halfwidth


def exact_greedy_value(fleet: list[ChainParams]) -> tuple[float, int]:
    """Greedy's stationary mean observed age per poll, and the chain's size.

    States are tuples of (k, i) branches, found by breadth-first search
    from the no-information start. The stationary law comes from a sparse
    direct solve; power iteration does not converge on a periodic chain.
    """
    tables = [expected_aoi_table(s) for s in fleet]
    start = tuple((s.m, s.m - 1) for s in fleet)
    index, states, reward = {start: 0}, [start], []
    rows, cols, probs = [], [], []
    for src, state in enumerate(states):  # grows as new states are found
        means = [t[k - 1, i - 1] for t, (k, i) in zip(tables, state)]
        polled = int(np.argmin(means))  # the first of equal minima
        reward.append(means[polled])
        k, i = state[polled]
        belief = branch_belief(fleet[polled], BranchState(k=k, i=i, m=fleet[polled].m))
        aged = [(k, min(i + 1, s.m - 1)) for s, (k, i) in zip(fleet, state)]
        for a in np.flatnonzero(belief):
            nxt = tuple(aged[:polled] + [(int(a) + 1, 1)] + aged[polled + 1 :])
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            rows.append(src)
            cols.append(index[nxt])
            probs.append(belief[a])
    n = len(states)
    # pi (P - I) = 0 with the last balance equation replaced by sum(pi) = 1
    system = (sparse.csr_matrix((probs, (cols, rows)), shape=(n, n)) - sparse.eye(n)).tolil()
    system[n - 1, :] = 1.0
    rhs = np.zeros(n)
    rhs[n - 1] = 1.0
    pi = spsolve(system.tocsc(), rhs)
    return float(pi @ np.array(reward)), n


def budget_exact_value(fleet: list[ChainParams], solution: EtaSolution) -> float:
    """The relaxed value with the poll budget met exactly.

    Time-sharing between the evaluated cutoffs that bracket an aggregate
    poll rate of 1, the lower one with weight (d+ - 1)/(d+ - d-), polls
    once per slot on average, so its value per poll is its mean age per
    slot. This separates the budget rounding of solve_eta's pick from
    the relaxation's own gap to greedy.
    """
    d = dict(solution.record.evaluated)
    lo = max(eta for eta, rate in d.items() if rate < 1.0)
    hi = min(eta for eta, rate in d.items() if rate >= 1.0)
    weight = (d[hi] - 1.0) / (d[hi] - d[lo])
    r_lo, r_hi = (sum(sensor_rates(s, eta).r_bar for s in fleet) for eta in (lo, hi))
    return weight * r_lo + (1.0 - weight) * r_hi


# fleets whose chains have at most about 2 000 states, with their exact
# values and the relaxed policy's gaps to them, |exact - j| / exact to
# five decimals, for j = j_value (None where the relaxed policy polls
# nothing) and for j = budget_exact_value; the horizon and the seed were
# fixed before any simulated value was looked at
@pytest.mark.parametrize(
    "ps, m, exact, gap, mix_gap",
    [
        ((0.6, 0.6), 12, 2.11337, 0.02230, 0.02154),
        ((0.3, 0.8), 15, 1.42857, 0.00000, 0.00000),
        ((0.95,) * 4, 3, 2.80738, None, 0.00000),
    ],
    ids=["0.6x2-m12", "0.3-0.8-m15", "0.95x4-m3"],
)
def test_greedy_simulation_matches_the_exact_chain_value(ps, m, exact, gap, mix_gap):
    fleet = [ChainParams(p=p, m=m) for p in ps]
    value, size = exact_greedy_value(fleet)
    assert size <= 2_000
    assert value == pytest.approx(exact, abs=1e-5)  # rounded to five decimals
    # the paper's relaxed-vs-greedy gap, free of simulation noise
    relaxed = solve_eta(fleet)
    if gap is None:
        assert relaxed.d_hat == 0.0 and relaxed.active == () and math.isnan(relaxed.j_value)
    else:
        assert abs(value - relaxed.j_value) / value == pytest.approx(gap, abs=1e-5)
    # and with the budget met exactly, where polling nothing is one side
    mixed = budget_exact_value(fleet, relaxed)
    assert abs(value - mixed) / value == pytest.approx(mix_gap, abs=1e-5)
    # no one-poll-per-slot schedule beats the bound, greedy included
    assert lower_bound(fleet).value <= value
    result = run_greedy(fleet, 200_000, seed=11)
    assert abs(result.j_realized - value) <= 3.0 * _halfwidth(result.batch_means)


def test_greedy_interval_covers_the_exact_value():
    # the 95% batch-means interval of 200 runs of 10 000 slots, seeds fixed
    # before any run was looked at: a correct interval covers the exact
    # value in Binomial(200, 0.95) of them, outside the band with
    # probability at most 0.001, as in tests/test_sim.py
    fleet = [ChainParams(p=0.6, m=12), ChainParams(p=0.6, m=12)]
    value, _ = exact_greedy_value(fleet)
    results = [run_greedy(fleet, 10_000, seed) for seed in range(42_000, 42_200)]
    covered = sum(abs(r.j_realized - value) <= _halfwidth(r.batch_means) for r in results)
    lo, hi = stats.binom.interval(1 - 0.001, 200, 0.95)
    assert lo <= covered <= hi


def test_exact_value_of_one_sensor_is_its_stationary_poll():
    # one sensor is polled every slot, so it sits in branch (a, 1) with a
    # drawn from the stationary law, whose mean is the answer
    params = ChainParams(p=0.7, m=9)
    table = expected_aoi_table(params)
    value, size = exact_greedy_value([params])
    stationary = branch_belief(params, BranchState.stationary(9))
    assert value == pytest.approx(float(stationary @ table[:, 0]), rel=1e-12)
    assert size == 10  # the start and the nine (a, 1) branches
