"""Renewal-rate solver for the per-sensor cutoff policy."""
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aoi_bandit import (
    AbsorbingBranchError,
    BranchState,
    ChainParams,
    aoi_rate,
    branch_belief,
    build_system,
    build_transition,
    expected_aoi,
    expected_aoi_table,
    gamma_analytic,
    gamma_scan,
    iterate_recurrence,
    sampling_rate,
    sensor_rates,
    solve_eta,
    steady_expected_aoi,
)
from aoi_bandit import relaxed_solver
from aoi_bandit.cli import main as cli_main


def _mid_eta(params, u=0.5):
    hbar = steady_expected_aoi(params)
    top = params.q + params.m * params.p
    return hbar + u * (top - hbar)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.8])
@pytest.mark.parametrize("m", [2, 4, 10])
def test_system_rows_match_matrix_power(p, m):
    # row k must be the age distribution gamma_k slots after seeing k:
    # bit for bit the closed-form branch belief, and the gamma_k-step
    # transition matrix to rounding; every finite table of the sensor
    params = ChainParams(p=p, m=m)
    t = build_transition(params)
    top = params.q + params.m * params.p
    etas = [_mid_eta(params), top + 1.0] + np.unique(expected_aoi_table(params)).tolist()
    built = 0
    for eta in etas:
        table = gamma_analytic(params, eta)
        if table.has_never:
            continue
        built += 1
        system = build_system(params, table)
        for k in range(1, m + 1):
            g = system.gammas[k - 1]
            state = BranchState(k=k, i=g, m=m)
            assert np.array_equal(system.rows[k - 1], branch_belief(params, state))
            vec = np.linalg.matrix_power(t, g)[k - 1]
            assert np.max(np.abs(system.rows[k - 1] - vec)) < 1e-10
            assert abs(system.rewards[k - 1] - expected_aoi(params, state)) < 1e-12
            assert system.rewards[k - 1] < system.eta
    assert built > 0


def test_system_rejects_abandoned_branches():
    params = ChainParams(p=0.8, m=10)
    table = gamma_analytic(params, 4.0)
    assert table.has_never
    with pytest.raises(AbsorbingBranchError):
        build_system(params, table)
    with pytest.raises(ValueError, match="does not match age cap"):
        build_system(params, gamma_analytic(ChainParams(p=0.8, m=9), 5.0))


def _det(a):
    # cofactor expansion, kept for tiny matrices only
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * _det(minor)
    return total


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_rates_match_cramer_route(m):
    # independent route: assemble the affine system from the kernel and
    # read the rate off a determinant ratio instead of a linear solve
    params = ChainParams(p=0.6, m=m)
    system = build_system(params, gamma_analytic(params, _mid_eta(params, 0.4)))
    for base, rate in (
        (np.ones(m), sampling_rate(system)),
        (np.asarray(system.rewards), aoi_rate(system)),
    ):
        a = np.zeros((m, m))
        for k in range(m):
            for j in range(m - 1):
                a[k, j] = (1.0 if k == j else 0.0) - system.rows[k, j]
            a[k, m - 1] = system.gammas[k]
        numer = a.copy()
        numer[:, m - 1] = base
        assert abs(_det(numer) / _det(a) - rate) < 1e-9


def test_poll_every_slot_rate_is_one():
    params = ChainParams(p=0.5, m=5)
    top = params.q + params.m * params.p
    system = build_system(params, gamma_analytic(params, top + 1.0))
    assert system.gammas == (1,) * 5
    assert abs(sampling_rate(system) - 1.0) < 1e-12
    assert abs(aoi_rate(system) - steady_expected_aoi(params)) < 1e-12


def test_iterate_warmup_values():
    # before the first poll lands nothing is counted
    params = ChainParams(p=0.8, m=10)
    system = build_system(params, gamma_analytic(params, 5.0))
    first = iterate_recurrence(system, 1)[:, 0]
    for k in range(10):
        assert first[k] == (1.0 if system.gammas[k] == 1 else 0.0)


# iterate_recurrence's column for each kind of value
_COLUMN = {"count": 0, "reward": 1}


def _naive_values(system, horizon, kind):
    # V_t(k) = 0 for t < gamma_k, else base_k + rows_k . V_{t - gamma_k};
    # V_0 = 0
    m = system.params.m
    base = np.ones(m) if kind == "count" else np.asarray(system.rewards)
    values = [np.zeros(m)]
    for t in range(1, horizon + 1):
        v = np.zeros(m)
        for k, g in enumerate(system.gammas):
            if t >= g:
                v[k] = base[k] + system.rows[k] @ values[t - g]
        values.append(v)
    return values


def _warmup_systems():
    cases = [(p, m) for p in (0.0, 0.3, 0.8) for m in (2, 4, 10)] + [(0.816, 32)]
    for p, m in cases:
        params = ChainParams(p=p, m=m)
        top = params.q + params.m * params.p
        for eta in (_mid_eta(params, 0.2), _mid_eta(params, 0.5), _mid_eta(params, 0.8), top + 1.0):
            table = gamma_analytic(params, eta)
            if not table.has_never:
                yield build_system(params, table)


@pytest.mark.parametrize("kind", ["count", "reward"])
def test_iterate_matches_naive_recursion_through_warmup(kind):
    # every horizon up to two windows past the longest spacing, so an
    # off-by-one in the window during the warm-up cannot pass
    spans = set()
    for system in _warmup_systems():
        gmax = max(system.gammas)
        spans.add(gmax)
        want = _naive_values(system, 2 * gmax + 1, kind)
        for horizon in range(1, 2 * gmax + 2):
            got = iterate_recurrence(system, horizon)[:, _COLUMN[kind]]
            np.testing.assert_allclose(got, want[horizon], rtol=1e-12, atol=0.0)
    assert max(spans) >= 5


def test_iterate_argument_errors():
    params = ChainParams(p=0.8, m=10)
    system = build_system(params, gamma_analytic(params, 5.0))
    with pytest.raises(ValueError):
        iterate_recurrence(system, 0)


@pytest.mark.parametrize("kind,rate_fn", [("count", sampling_rate), ("reward", aoi_rate)])
def test_iterate_converges_to_solved_rate(kind, rate_fn):
    params = ChainParams(p=0.8, m=10)
    system = build_system(params, gamma_analytic(params, 5.0))
    rate = rate_fn(system)
    errs = []
    for horizon in (1000, 2000, 20000):
        vals = iterate_recurrence(system, horizon)[:, _COLUMN[kind]]
        errs.append(float(np.max(np.abs(vals / horizon - rate))))
    # O(1/T) decay of the per-slot average toward the solved rate
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)
    assert errs[2] < 1e-3


def test_iterate_intercept_stabilizes():
    # d(k, T) - rate * T settles to a T-independent offset per branch
    params = ChainParams(p=0.6, m=8)
    system = build_system(params, gamma_analytic(params, _mid_eta(params, 0.3)))
    rate = sampling_rate(system)
    off_a = iterate_recurrence(system, 4000)[:, 0] - rate * 4000
    off_b = iterate_recurrence(system, 8000)[:, 0] - rate * 8000
    assert np.max(np.abs(off_a - off_b)) < 1e-3


def test_sensor_rates_zero_once_abandoned(monkeypatch):
    # probe every distinct table value and both its float neighbours: the
    # rates are zero exactly where the scan abandons a branch, and those
    # cutoffs never enter the Lambert route
    real, entered = relaxed_solver.gamma_analytic, []

    def counting(params, eta):
        entered.append(eta)
        return real(params, eta)

    monkeypatch.setattr(relaxed_solver, "gamma_analytic", counting)
    for p in (0.0, 0.3, 0.8, 0.99):
        for m in (2, 3, 10, 30):
            params = ChainParams(p=p, m=m)
            values = np.unique(expected_aoi_table(params))
            probes = [np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)]
            for eta in np.concatenate(probes).tolist():
                entered.clear()
                rates = sensor_rates(params, eta)
                never = gamma_scan(params, eta).has_never
                assert (rates.d_bar == 0.0) == never, (p, m, eta)
                assert (rates.r_bar == 0.0) == never, (p, m, eta)
                assert entered == ([] if never else [eta]), (p, m, eta)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.6, 0.9, 0.99])
@pytest.mark.parametrize("m", [2, 3, 10, 50, 200])
def test_sensor_rates_match_dense_solve(p, m):
    # the structured solve of the hot path against the dense affine solve
    # of build_system, on interior cutoffs, table values and poll-every-slot
    params = ChainParams(p=p, m=m)
    values = np.unique(expected_aoi_table(params))
    etas = [_mid_eta(params, u) for u in (0.1, 0.4, 0.8)]
    etas += values[:: max(1, len(values) // 12)].tolist() + [values[-1] + 1.0]
    checked = 0
    for eta in etas:
        table = gamma_analytic(params, eta)
        if table.has_never:
            continue
        checked += 1
        system = build_system(params, table)
        rates = sensor_rates(params, eta)
        assert rates.d_bar == pytest.approx(sampling_rate(system), rel=1e-12, abs=0.0), eta
        assert rates.r_bar == pytest.approx(aoi_rate(system), rel=1e-12, abs=0.0), eta
    # a sure or a two-age channel has only the poll-every-slot table
    assert checked >= (1 if p == 0.0 or m == 2 else 3)


def test_singular_solve_is_reported(monkeypatch, capsys):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    params = ChainParams(p=0.6, m=10)
    with pytest.raises(relaxed_solver.SingularSystemError):
        sensor_rates(params, _mid_eta(params))
    # the CLI turns it into its numerical-failure exit
    assert cli_main(["solve-eta", "--p", "0.6", "--n", "2", "--m", "10"]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("p", [0.3, 0.8])
@pytest.mark.parametrize("m", [5, 30])
@pytest.mark.parametrize("u", [0.3, 0.7])
def test_sensor_rate_bounds(p, m, u):
    # ages are at least 1 and collected means stay below the cutoff
    params = ChainParams(p=p, m=m)
    eta = _mid_eta(params, u)
    rates = sensor_rates(params, eta)
    assert 0.0 < rates.d_bar <= 1.0 + 1e-12
    assert rates.r_bar >= rates.d_bar - 1e-12
    assert rates.r_bar <= eta * rates.d_bar + 1e-12


def test_solve_eta_deterministic_channel():
    solution = solve_eta([ChainParams(p=0.0, m=5)])
    assert solution.d_hat == pytest.approx(1.0, abs=1e-12)
    assert solution.j_value == pytest.approx(1.0, abs=1e-12)
    assert solution.active == (0,)


def test_solve_eta_single_sensor_saturates():
    # one sensor never exhausts the budget, so the search tops out and
    # prefers the largest feasible cutoff
    solution = solve_eta([ChainParams(p=0.8, m=10)])
    assert solution.eta_star == pytest.approx(9.2, abs=1e-9)
    assert solution.d_hat == pytest.approx(1.0, abs=1e-12)
    assert solution.j_value == pytest.approx(steady_expected_aoi(ChainParams(p=0.8, m=10)), abs=1e-9)


def test_solve_eta_symmetric_fleet():
    sensors = [ChainParams(p=0.8, m=100)] * 4
    solution = solve_eta(sensors)
    assert solution.monotone_ok
    assert solution.active == (0, 1, 2, 3)
    assert 0.9 < solution.d_hat <= 1.0 + 1e-12
    assert solution.j_value >= 1.0
    assert math.isfinite(solution.j_value)


def test_solve_eta_order_invariant():
    fleet = [ChainParams(p=0.3, m=20), ChainParams(p=0.6, m=20), ChainParams(p=0.9, m=20)]
    a = solve_eta(fleet)
    b = solve_eta(fleet[::-1])
    assert a.eta_star == b.eta_star
    assert a.d_hat == b.d_hat
    assert tuple(2 - i for i in reversed(b.active)) == a.active


def test_solve_eta_bisection_matches_exhaustive(monkeypatch):
    fleet = [ChainParams(p=0.5, m=8), ChainParams(p=0.7, m=8)]
    monkeypatch.setattr(relaxed_solver, "_EXHAUSTIVE_BELOW", 10_000)
    full = solve_eta(fleet)
    monkeypatch.setattr(relaxed_solver, "_EXHAUSTIVE_BELOW", 4)
    narrowed = solve_eta(fleet)
    assert abs(narrowed.d_hat - 1.0) <= abs(full.d_hat - 1.0) + 1e-15
    assert narrowed.d_hat == pytest.approx(full.d_hat, abs=1e-12)


def test_identical_sensors_are_solved_once():
    sensor, other = ChainParams(p=0.6, m=20), ChainParams(p=0.8, m=20)
    # bisected (m = 20) and exhaustive (m = 4) grids; repeated sensors
    # still add up in fleet order
    for fleet in ([sensor] * 4, [sensor, other, sensor, other], [ChainParams(p=0.5, m=4)] * 2):
        sol = solve_eta(fleet)
        solves = sol.record.solves
        # each solve names its sensor by the index of its first occurrence
        assert all(fleet.index(fleet[i]) == i for i, _ in solves)
        systems = [(fleet[i], gamma_scan(fleet[i], eta).gamma) for i, eta in solves]
        # one solve per (sensor, threshold table), eta_star's among them
        assert len(set(systems)) == len(systems)
        assert {(s, gamma_scan(s, sol.eta_star).gamma) for s in fleet} <= set(systems)
        assert dict(sol.record.evaluated)[sol.eta_star] == sol.d_hat
        assert sol == replace(sol, record=None)  # the record is outside ==
        per = [sensor_rates(s, sol.eta_star) for s in fleet]
        assert sol.d_hat == sum(r.d_bar for r in per)
        assert sol.j_value == sum(r.r_bar for r in per) / sol.d_hat


@pytest.mark.parametrize("p", [0.0, 0.01, 0.5, 0.99])
@pytest.mark.parametrize("m", [2, 3, 12, 100])
def test_table_key_names_the_threshold_table(p, m):
    # solve_eta's memo key: the count of running-minimum entries below eta.
    # Probe every distinct table value and both its float neighbours: equal
    # counts must mean equal scanned tables, and distinct counts distinct ones
    params = ChainParams(p=p, m=m)
    table = expected_aoi_table(params)
    runmin = np.minimum.accumulate(table, axis=1)
    values = np.unique(table)
    probes = np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])
    tables = {}
    for eta in probes.tolist():
        tables.setdefault(int(np.count_nonzero(runmin < eta)), set()).add(
            gamma_scan(params, eta).gamma
        )
    assert all(len(t) == 1 for t in tables.values())
    assert len(set().union(*tables.values())) == len(tables)


def test_candidate_grid_is_the_sorted_union():
    one = 1.0
    below, above = np.nextafter(one, 0.0), np.nextafter(one, 2.0)
    # adjacent floats whose midpoint rounds onto the left and the right end
    assert (one + above) / 2.0 == one
    assert (below + one) / 2.0 == one
    cases = [np.array([one]), np.array([one, above, 2.0]), np.array([below, one, 3.0])]
    fleets = ([ChainParams(p=0.4, m=15), ChainParams(p=0.6, m=15), ChainParams(p=0.8, m=15)],
              [ChainParams(p=p, m=100) for p in (0.2, 0.5, 0.55, 0.9)])
    for fleet in fleets:
        values = np.unique(np.concatenate([expected_aoi_table(s).ravel() for s in fleet]))
        cases.append(np.append(values, values[-1] + 1.0))
    for values in cases:
        union = np.unique(np.concatenate([values, (values[1:] + values[:-1]) / 2.0]))
        assert relaxed_solver._candidate_grid(values).tolist() == union.tolist()
    # sorted values with repeats, the padded top among them, give the grid
    # of their distinct values, so the solver dedupes nothing itself
    repeated = [np.array([below, below, one, one, one, above, 3.0, 3.0])]
    for fleet in fleets:
        top = max(s.q + s.m * s.p for s in fleet) + relaxed_solver._PAD
        values = np.concatenate([expected_aoi_table(s).ravel() for s in fleet + fleet] + [[top]])
        values.sort()
        assert values[-1] == top > values[-2]
        repeated.append(values)
    for values in repeated:
        distinct = np.unique(values)
        assert len(distinct) < len(values)
        assert relaxed_solver._candidate_grid(values).tolist() == (
            relaxed_solver._candidate_grid(distinct).tolist()
        )


def test_unsaturated_mask_is_shared_and_read_only():
    mask = relaxed_solver._unsaturated(7)
    assert relaxed_solver._unsaturated(7) is mask
    assert not mask.flags.writeable
    k, i = np.ogrid[1:8, 1:7]
    assert np.array_equal(mask, k + i <= 7)


def test_solve_eta_polls_nothing_when_zero_is_closest():
    # at m = 2 every branch mean is the stationary mean 1.5, so each
    # sensor is polled every slot or never and the aggregate rate jumps
    # from 0 to 3: zero is the closest to the budget
    solution = solve_eta([ChainParams(p=0.5, m=2)] * 3)
    assert solution.eta_star == 1.5
    assert solution.d_hat == 0.0
    assert solution.active == ()
    assert math.isnan(solution.j_value)
    assert solution.monotone_ok


# repr(solve_eta(fleet)) of 40 fleets, written by the solver that counted
# every sensor's key at every cutoff and solved the padded top on every
# grid: the acceptance-shaped gaussian fleets (the first is perfbench's
# non-monotone hetero_trials reference fleet, seed 0, x index 0, trial 0),
# a rate that dips, ulp-different means of equal sensors, bisected grids of
# one and two sensors, a fleet that polls nothing, mixed caps, p = 0 and
# p near 1
ETA_SOLUTIONS = json.loads((Path(__file__).parent / "golden" / "eta_solutions.json").read_text())


@pytest.mark.parametrize("case", ETA_SOLUTIONS, ids=lambda case: case["name"])
def test_solve_eta_reproduces_golden_reprs(case):
    fleet = [ChainParams(p=p, m=m) for p, m in case["sensors"]]
    with warnings.catch_warnings():
        # non-monotone fleets warn; monotone_ok is part of the repr
        warnings.simplefilter("ignore")
        assert repr(solve_eta(fleet)) == case["repr"]


def _padded_top_and_grid(fleet):
    top = max(s.q + s.m * s.p for s in fleet) + relaxed_solver._PAD
    values = np.unique(np.concatenate([expected_aoi_table(s).ravel() for s in fleet]))
    return top, relaxed_solver._candidate_grid(np.append(values, top))


@pytest.mark.parametrize(
    "ps, solved_at_top",
    [([0.7], True), ([0.5, 0.7], True), ([0.4, 0.6, 0.8], False), ([0.8] * 3, False)],
)
def test_padded_top_is_solved_for_one_or_two_sensors_only(ps, solved_at_top):
    # at the top every sensor polls every slot, so from three sensors on
    # (equal ones included) the aggregate is known to be n, which opens
    # the bracket and never wins; below three, rounding decides
    fleet = [ChainParams(p=p, m=40) for p in ps]
    top, grid = _padded_top_and_grid(fleet)
    assert len(grid) > relaxed_solver._EXHAUSTIVE_BELOW  # bisected
    record = solve_eta(fleet).record
    etas = [eta for _, eta in record.solves]
    assert etas and (top in etas) == solved_at_top
    assert (top in dict(record.evaluated)) == solved_at_top


@pytest.mark.parametrize("bisected", [False, True], ids=["exhaustive", "bisected"])
@pytest.mark.parametrize(
    "ps, caps",
    [
        ([0.6], [4]),
        ([0.3, 0.9], [4]),
        ([0.2, 0.5, 0.95], [3, 5]),
        ([0.0, 0.05, 0.5, 0.95, 0.999], [2, 4, 6]),
    ],
    ids=["n1", "n2", "n3", "n5"],
)
def test_search_opens_on_a_zero_rate(ps, caps, bisected):
    # the first cutoff evaluated is the smallest table value, where every
    # branch is abandoned; the bisection needs no check of that rate
    scale = 20 if bisected else 1
    fleet = [ChainParams(p=p, m=scale * caps[i % len(caps)]) for i, p in enumerate(ps)]
    _, grid = _padded_top_and_grid(fleet)
    assert (len(grid) > relaxed_solver._EXHAUSTIVE_BELOW) == bisected
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a fleet whose rate dips warns
        record = solve_eta(fleet).record
    assert record.evaluated[0] == (float(grid[0]), 0.0)
