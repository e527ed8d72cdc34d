"""Posterior age beliefs between polls and their mean-age table."""
import gc
import weakref

import numpy as np
import pytest

from aoi_bandit import (
    BranchState,
    ChainParams,
    branch_belief,
    build_transition,
    evolve,
    expected_aoi,
    expected_aoi_table,
    steady_expected_aoi,
    steady_state,
)
from aoi_bandit import belief
from aoi_bandit.experiments import load_config, run_scenario


def test_state_validation():
    with pytest.raises(ValueError):
        BranchState(k=0, i=1, m=5)
    with pytest.raises(ValueError):
        BranchState(k=6, i=1, m=5)
    with pytest.raises(ValueError):
        BranchState(k=2, i=0, m=5)
    with pytest.raises(ValueError):
        BranchState(k=1, i=1, m=1)
    params = ChainParams(p=0.7, m=6)
    with pytest.raises(ValueError, match="does not match params cap"):
        branch_belief(params, BranchState(k=2, i=1, m=5))
    with pytest.raises(ValueError, match="does not match params cap"):
        expected_aoi(params, BranchState(k=2, i=1, m=5))


def test_state_clamps_elapsed_slots():
    # beyond m - 1 the posterior has mixed, extra slots change nothing
    assert BranchState(k=2, i=99, m=5).i == 4
    st = BranchState.stationary(5)
    assert (st.k, st.i) == (5, 4)


def test_belief_hand_worked():
    params = ChainParams(p=0.8, m=3)
    assert np.allclose(branch_belief(params, BranchState(k=1, i=1, m=3)), [0.2, 0.8, 0.0], atol=1e-15)
    assert np.allclose(branch_belief(params, BranchState(k=2, i=1, m=3)), [0.2, 0.0, 0.8], atol=1e-15)


@pytest.mark.parametrize("p", [0.1, 0.5, 0.95])
@pytest.mark.parametrize("m", [2, 5, 10])
def test_belief_matches_matrix_power(p, m):
    # independent route: push the point mass at age k through the chain
    params = ChainParams(p=p, m=m)
    t = build_transition(params)
    worst = 0.0
    for k in range(1, m + 1):
        vec = np.zeros(m)
        vec[k - 1] = 1.0
        for i in range(1, m):
            vec = vec @ t
            closed = branch_belief(params, BranchState(k=k, i=i, m=m))
            worst = max(worst, float(np.max(np.abs(vec - closed))))
    assert worst < 1e-10


@pytest.mark.parametrize("p", [0.0, 0.3, 0.8])
def test_belief_is_distribution(p):
    params = ChainParams(p=p, m=7)
    for k in range(1, 8):
        for i in range(1, 7):
            b = branch_belief(params, BranchState(k=k, i=i, m=7))
            assert np.all(b >= 0.0)
            assert abs(b.sum() - 1.0) < 1e-12


def test_belief_saturates_to_steady():
    params = ChainParams(p=0.8, m=6)
    h = steady_state(params)
    for k in (1, 3, 6):
        b = branch_belief(params, BranchState(k=k, i=params.m - 1, m=params.m))
        assert np.max(np.abs(b - h)) < 1e-14


def test_expected_aoi_hand_worked():
    params = ChainParams(p=0.8, m=10)
    # (1 - p^2)/(1 - p) - 2 p^2 + p^2 * min(2 + 3, 10)
    assert abs(expected_aoi(params, BranchState(k=3, i=2, m=10)) - 3.72) < 1e-12
    assert expected_aoi(ChainParams(p=0.0, m=4), BranchState(k=2, i=1, m=4)) == 1.0


def test_steady_expected_aoi_frozen():
    assert abs(steady_expected_aoi(ChainParams(p=0.8, m=10)) - 4.463129088) < 1e-12
    # with a deep cap the truncated mean approaches 1/(1 - p)
    assert abs(steady_expected_aoi(ChainParams(p=0.8, m=400)) - 5.0) < 1e-9


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("m", [3, 12])
def test_expected_aoi_is_belief_mean(p, m):
    params = ChainParams(p=p, m=m)
    ages = np.arange(1, m + 1, dtype=float)
    for k in range(1, m + 1):
        for i in range(1, m):
            state = BranchState(k=k, i=i, m=m)
            direct = branch_belief(params, state) @ ages
            assert abs(expected_aoi(params, state) - direct) < 1e-10


def test_table_matches_scalar():
    params = ChainParams(p=0.8, m=12)
    table = expected_aoi_table(params)
    assert table.shape == (12, 11)
    for k in range(1, 13):
        for i in range(1, 12):
            assert abs(table[k - 1, i - 1] - expected_aoi(params, BranchState(k=k, i=i, m=12))) < 1e-12


@pytest.mark.parametrize(
    "cached, build",
    [
        ("_table_cached", expected_aoi_table),
        ("_runmin_cached", lambda s: np.minimum.accumulate(expected_aoi_table(s), axis=1)),
        # normalised by its last entry, as Generator.choice normalises p
        ("_start_cdf_cached", lambda s: (c := np.cumsum(steady_state(s))) / c[-1]),
    ],
    ids=["table", "runmin", "start-cdf"],
)
def test_equal_sensors_share_one_read_only_table(cached, build):
    a, b = ChainParams(p=0.37, m=9), ChainParams(p=0.37, m=9)
    assert a is not b
    table = getattr(belief, cached)(a)
    assert getattr(belief, cached)(b) is table
    assert not table.flags.writeable
    assert np.array_equal(table, build(a))


def test_reach_grid_is_shared_and_read_only():
    # min(i + k, m) depends on the cap alone, so every table of cap m reads one grid
    reach = belief._reach(7)
    assert belief._reach(7) is reach
    assert not reach.flags.writeable
    k, i = np.ogrid[1:8, 1:7]
    assert np.array_equal(reach, np.minimum(k + i, 7))
    assert reach.dtype == np.float64


def test_tables_go_with_their_fleets(monkeypatch):
    # a trial drops its fleet when it ends, and the fleet's tables with it
    built = []
    real = belief.expected_aoi_table

    def recorded(params):
        table = real(params)
        built.append(weakref.ref(table))
        return table

    monkeypatch.setattr(belief, "expected_aoi_table", recorded)
    run_scenario(load_config({
        "kind": "asym_gaussian", "n": 3, "sweep": [0.1, 0.2], "trials": 2,
        "horizon": 200, "m": 8, "seed": 5,
    }))
    gc.collect()
    assert len(built) >= 6
    assert all(ref() is None for ref in built)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8, 0.95])
def test_table_range_and_peak(p):
    m = 14
    params = ChainParams(p=p, m=m)
    table = expected_aoi_table(params)
    assert np.all(table >= 1.0 - 1e-15)
    top = params.q + m * p
    assert np.all(table <= top + 1e-12)
    # the oldest one-slot branch attains the global peak exactly
    assert table[m - 1, 0] == top
    assert float(table.max()) == top


@pytest.mark.parametrize("p", [0.3, 0.6, 0.9])
def test_table_monotone_in_observed_age(p):
    # an older last observation can only raise the expected age
    table = expected_aoi_table(ChainParams(p=p, m=12))
    assert np.all(np.diff(table, axis=0) >= 0.0)


@pytest.mark.parametrize("p", [0.3, 0.55, 0.9])
def test_elapsed_time_phases(p):
    # while the tail stays below the cap the mean rises iff the branch is
    # young (k below 1/q); once the tail saturates it decays toward the
    # stationary mean whatever k was
    m = 12
    params = ChainParams(p=p, m=m)
    table = expected_aoi_table(params)
    inv = 1.0 / params.q
    for k in range(1, m + 1):
        row = table[k - 1]
        split = m - k  # largest i with k + i <= m
        head = row[: max(split, 0)]
        tail = row[max(split, 0) :]
        if len(head) > 1:
            diffs = np.diff(head)
            if k <= inv:
                assert np.all(diffs >= -1e-12)
            else:
                assert np.all(diffs <= 1e-12)
        if len(tail) > 1:
            assert np.all(np.diff(tail) < 1e-12)


def test_saturated_phase_forgets_observation():
    # once i + k passes the cap the branch mean no longer depends on k
    m = 10
    table = expected_aoi_table(ChainParams(p=0.7, m=m))
    for i in range(1, m):
        ks = [k for k in range(1, m + 1) if i + k >= m]
        vals = {table[k - 1, i - 1] for k in ks}
        assert len(vals) == 1


def test_evolve_rest_ages_and_clamps():
    st = BranchState(k=2, i=1, m=5)
    st = evolve(st, "rest")
    assert (st.k, st.i) == (2, 2)
    for _ in range(10):
        st = evolve(st, "rest")
    assert st.i == 4


def test_evolve_sample_resets():
    st = evolve(BranchState(k=2, i=3, m=5), "sample", observation=4)
    assert (st.k, st.i, st.m) == (4, 1, 5)


def test_evolve_argument_errors():
    st = BranchState(k=2, i=1, m=5)
    with pytest.raises(ValueError):
        evolve(st, "rest", observation=3)
    with pytest.raises(ValueError):
        evolve(st, "sample")
    with pytest.raises(ValueError):
        evolve(st, "poll")
