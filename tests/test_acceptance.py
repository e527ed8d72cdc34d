"""End-to-end acceptance checks for the minimum-age scheduling package.

Each test prints one "[acceptance] NN label: PASS/FAIL (Xs)" line so the
verdicts survive in terminal output and CI logs.  The expensive scenario
sweeps are computed once in session fixtures and shared by the tests that
grade them.  All seeds are pinned; every check is deterministic.
"""

import contextlib
import json
import math
import time
import warnings

import numpy as np
import pytest
from scipy.special import stdtrit

import aoi_bandit as ab
from aoi_bandit.cli import main as cli_main


@pytest.fixture(scope="session")
def report(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    capman = request.config.pluginmanager.get_plugin("capturemanager")

    def emit(number, label, ok, elapsed):
        line = f"[acceptance] {number:02d} {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
        if reporter is None:
            print(line, flush=True)
            return
        # the verdict is written while the test runs, so step outside the
        # output capture or it lands in the captured log instead
        with capman.global_and_fixture_disabled() if capman else contextlib.nullcontext():
            reporter.ensure_newline()
            reporter.write_line(line)

    return emit


@pytest.fixture(scope="session")
def symmetric_sweep_rows():
    # Symmetric fleet sweep, one long trial per point.
    t0 = time.perf_counter()
    config = ab.load_config({
        "kind": "symmetric", "n": 4,
        "sweep": [round(0.1 * i, 1) for i in range(1, 10)],
        "trials": 1, "horizon": 1_000_000, "m": 100, "seed": 77,
    })
    rows = ab.run_scenario(config)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="session")
def spread_rows():
    # Uniform and gaussian fleets, three fleet sizes, 200 trials each. A
    # fleet whose aggregate rate dips makes solve_eta warn; that is the one
    # warning these sweeps may raise
    t0 = time.perf_counter()
    out = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for kind, sweep, seed in (
            ("asym_uniform", [0.4, 0.8], 2101),
            ("asym_gaussian", [0.05, 0.15], 2102),
        ):
            for n in (4, 8, 12):
                config = ab.load_config({
                    "kind": kind, "n": n, "sweep": sweep, "trials": 200,
                    "horizon": 10_000, "m": 100, "seed": seed,
                })
                out[kind, n] = ab.run_scenario(config)
    expected = (UserWarning, "aggregate poll rate not monotone on the evaluated grid")
    assert all((w.category, str(w.message)) == expected for w in caught), caught
    return out, time.perf_counter() - t0


def test_01_belief_closed_form(report):
    t0 = time.perf_counter()
    worst = 0.0
    for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95):
        for m in (2, 5, 10, 50):
            params = ab.ChainParams(p=p, m=m)
            transition = ab.build_transition(params)
            for k in range(1, m + 1):
                vec = np.zeros(m)
                vec[k - 1] = 1.0
                for i in range(1, m):
                    vec = vec @ transition
                    got = ab.branch_belief(params, ab.BranchState(k=k, i=i, m=m))
                    worst = max(worst, float(np.max(np.abs(got - vec))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    report(1, "belief-closed-form", ok, elapsed)
    assert worst < 1e-10
    assert elapsed < 10.0


def test_02_threshold_equivalence(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250802)
    points = 0
    mismatches = []
    for step in range(1, 20):
        p = round(0.05 * step, 2)
        for m in (3, 10, 50, 100):
            params = ab.ChainParams(p=p, m=m)
            flat = np.unique(ab.expected_aoi_table(params).ravel())
            top = float(flat[-1])
            cands = list(np.linspace(0.9, top + 0.6, 40))
            for v in rng.choice(flat, size=min(40, flat.size), replace=False):
                cands += [float(v), float(v) - 1e-12, float(v) + 1e-12]
            mids = (flat[:-1] + flat[1:]) / 2.0
            if mids.size:
                picks = rng.choice(mids, size=min(40, mids.size), replace=False)
                cands += [float(x) for x in picks]
            hbar = ab.steady_expected_aoi(params)
            cands += [hbar, hbar - 1e-12, hbar + 1e-12, 1.0, 1.0 + 1e-12, top, top - 1e-12]
            for eta in cands:
                points += 1
                if ab.gamma_analytic(params, eta).gamma != ab.gamma_scan(params, eta).gamma:
                    mismatches.append((p, m, eta))
    elapsed = time.perf_counter() - t0
    ok = points >= 10_000 and not mismatches and elapsed < 30.0
    report(2, "threshold-equivalence", ok, elapsed)
    assert points >= 10_000
    assert mismatches == []
    assert elapsed < 30.0


def _draw_rate_instances():
    # 50 random chains with a mid-range threshold; skip nearly idle ones
    # so the 1% relative sim check is meaningful.
    rng = np.random.default_rng(20250803)
    instances = []
    while len(instances) < 50:
        p = float(rng.uniform(0.05, 0.95))
        m = int(rng.integers(3, 51))
        u = float(rng.uniform(0.2, 0.9))
        params = ab.ChainParams(p=p, m=m)
        hbar = ab.steady_expected_aoi(params)
        top = params.q + m * params.p
        eta = hbar + u * (top - hbar)
        table = ab.gamma_analytic(params, eta)
        assert not table.has_never
        system = ab.build_system(params, table)
        if ab.sampling_rate(system) < 0.1:
            continue
        instances.append((params, eta, system))
    return instances


def test_03_rate_triple_agreement(report):
    t0 = time.perf_counter()
    horizon = 100_000
    worst_count = worst_reward = 0.0
    worst_d = worst_r = worst_route = 0.0
    for idx, (params, eta, system) in enumerate(_draw_rate_instances(), start=1):
        dbar = ab.sampling_rate(system)
        rbar = ab.aoi_rate(system)
        # the structured solve the cutoff search runs, against the dense one
        rates = ab.sensor_rates(params, eta)
        worst_route = max(worst_route, abs(rates.d_bar - dbar) / dbar, abs(rates.r_bar - rbar) / rbar)
        counts, rewards = ab.iterate_recurrence(system, horizon).T
        worst_count = max(worst_count, float(np.max(np.abs(counts / horizon - dbar))))
        worst_reward = max(worst_reward, float(np.max(np.abs(rewards / horizon - rbar))))
        res = ab.run_relaxed([params], eta, 1_000_000, seed=30_000 + idx)
        worst_d = max(worst_d, abs(res.samples_per_slot - dbar) / dbar)
        worst_r = max(worst_r, abs(res.j_realized * res.samples_per_slot - rbar) / rbar)
    elapsed = time.perf_counter() - t0
    ok = (worst_route < 1e-12 and worst_count < 1e-3 and worst_reward < 1e-3
          and worst_d < 0.01 and worst_r < 0.01 and elapsed < 120.0)
    report(3, "rate-triple-agreement", ok, elapsed)
    assert worst_route < 1e-12
    assert worst_count < 1e-3
    assert worst_reward < 1e-3
    assert worst_d < 0.01
    assert worst_r < 0.01
    assert elapsed < 120.0


def test_04_random_policy_value(report):
    t0 = time.perf_counter()
    fleet = [ab.ChainParams(p=0.8, m=100)] * 4
    res = ab.run_random(fleet, 1_000_000, seed=404)
    dev = abs(res.j_realized - 5.0) / 5.0
    elapsed = time.perf_counter() - t0
    ok = dev < 0.01 and elapsed < 30.0
    report(4, "random-policy-value", ok, elapsed)
    assert dev < 0.01
    assert elapsed < 30.0


def test_05_symmetric_sweep_fidelity(symmetric_sweep_rows, report):
    rows, build_time = symmetric_sweep_rows
    t0 = time.perf_counter()
    worst_relaxed = worst_greedy = 0.0
    for row in rows:
        assert not any(math.isnan(row[c]) for c in ab.COLUMNS)
        ref = row["j_relaxed_analytic"]
        worst_relaxed = max(worst_relaxed, abs(row["j_relaxed_sim"] - ref) / ref)
        worst_greedy = max(worst_greedy, abs(row["j_greedy_sim"] - ref) / ref)
    tail = next(r for r in rows if abs(r["x"] - 0.9) < 1e-12)
    gap = tail["j_random_sim"] - tail["j_greedy_sim"]
    elapsed = build_time + time.perf_counter() - t0
    ok = (worst_relaxed <= 0.02 and worst_greedy <= 0.03
          and 3.3 <= gap <= 4.3 and elapsed < 600.0)
    report(5, "symmetric-sweep-fidelity", ok, elapsed)
    assert worst_relaxed <= 0.02
    assert worst_greedy <= 0.03
    assert 3.3 <= gap <= 4.3
    assert elapsed < 600.0


def test_06_heterogeneous_gap_bound(spread_rows, report):
    table, build_time = spread_rows
    t0 = time.perf_counter()
    bound = {"asym_uniform": 0.025, "asym_gaussian": 0.021}
    worst = {"asym_uniform": 0.0, "asym_gaussian": 0.0}
    for (kind, _n), rows in table.items():
        for row in rows:
            assert not any(math.isnan(row[c]) for c in ab.COLUMNS)
            ref = row["j_relaxed_analytic"]
            worst[kind] = max(worst[kind], abs(row["j_greedy_sim"] - ref) / ref)
    # j_random must not depend on the fleet size: compare every pair of
    # fleet sizes at the same sweep point, allowing both half-widths.
    overlap_ok = True
    for kind in bound:
        by_n = {n: table[kind, n] for n in (4, 8, 12)}
        for i, xrow in enumerate(by_n[4]):
            for na in (4, 8, 12):
                for nb in (8, 12):
                    if nb <= na:
                        continue
                    a, b = by_n[na][i], by_n[nb][i]
                    if abs(a["j_random_sim"] - b["j_random_sim"]) > a["ci_halfwidth"] + b["ci_halfwidth"]:
                        overlap_ok = False
    elapsed = build_time + time.perf_counter() - t0
    ok = (worst["asym_uniform"] <= bound["asym_uniform"]
          and worst["asym_gaussian"] <= bound["asym_gaussian"]
          and overlap_ok and elapsed < 1800.0)
    report(6, "heterogeneous-gap-bound", ok, elapsed)
    assert worst["asym_uniform"] <= bound["asym_uniform"]
    assert worst["asym_gaussian"] <= bound["asym_gaussian"]
    assert overlap_ok
    assert elapsed < 1800.0


def test_07_lower_bound_dominance(symmetric_sweep_rows, spread_rows, report):
    t0 = time.perf_counter()
    rows = list(symmetric_sweep_rows[0])
    for sub in spread_rows[0].values():
        rows.extend(sub)
    violations = []
    for row in rows:
        slack = row["ci_halfwidth"]
        for col in ("j_random_sim", "j_relaxed_sim", "j_greedy_sim"):
            if row["lb"] > row[col] + slack:
                violations.append((row["x"], col))
    elapsed = time.perf_counter() - t0
    ok = not violations
    report(7, "lower-bound-dominance", ok, elapsed)
    assert violations == []


def test_08_uniform_span_average(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250808)
    total = 0.0
    draws = 10_000
    for _ in range(draws):
        ps = rng.uniform(0.1, 0.9, 4)
        total += ab.random_policy_value([ab.ChainParams(p=float(x), m=100) for x in ps])
    mean = total / draws
    target = ab.random_policy_value_uniform(0.8)
    rel = abs(mean - target) / target
    elapsed = time.perf_counter() - t0
    ok = rel < 0.01 and abs(target - math.log(9.0) / 0.8) < 1e-12
    report(8, "uniform-span-average", ok, elapsed)
    assert abs(target - math.log(9.0) / 0.8) < 1e-12
    assert rel < 0.01


def test_09_lambert_round_trip(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    worst = max(abs(ab.lambert_w0(w * math.exp(w)) - w)
                for w in rng.uniform(-1.0, 10.0, 1000))
    anchors = max(abs(ab.lambert_w0(0.0)),
                  abs(ab.lambert_w0(math.e) - 1.0),
                  abs(ab.lambert_w0(-1.0 / math.e) + 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and anchors < 1e-12
    report(9, "lambert-round-trip", ok, elapsed)
    assert worst < 1e-9
    assert anchors < 1e-12


def test_10_csv_determinism(tmp_path, report):
    t0 = time.perf_counter()
    config = {"kind": "asym_uniform", "n": 3, "sweep": [0.3, 0.7], "trials": 2,
              "horizon": 3000, "m": 10, "seed": 13}
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(config))
    payloads = []
    for name, extra in (("a", []), ("b", []), ("c", ["--jobs", "2"])):
        out = tmp_path / f"{name}.csv"
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(out)] + extra)
        assert code == 0
        payloads.append(out.read_bytes())
    elapsed = time.perf_counter() - t0
    ok = payloads[0] == payloads[1] == payloads[2]
    report(10, "csv-determinism", ok, elapsed)
    assert payloads[0] == payloads[1]
    assert payloads[0] == payloads[2]


def test_11_paired_greedy_gap(report):
    # greedy and the tuned cutoff policy run at the same seeds see the same
    # true-age paths (common random numbers), so the per-seed difference of
    # their realized values carries far less noise than two independently
    # seeded runs; the t-CI of its mean must sit inside acceptance 06's bound
    t0 = time.perf_counter()
    horizon, seeds = 10_000, range(40)
    quant = float(stdtrit(len(seeds) - 1, 0.975))
    inside = {}
    for kind, n, x in (("asym_uniform", 8, 0.6), ("asym_gaussian", 12, 0.15)):
        config = ab.load_config({"kind": kind, "n": n, "sweep": [x], "trials": 1,
                                 "horizon": horizon, "m": 100, "seed": 8})
        sensors = ab.trial_fleet(config)
        sol = ab.solve_eta(sensors)
        gaps = np.array([
            ab.run_greedy(sensors, horizon, s).j_realized
            - ab.run_relaxed(sensors, sol.eta_star, horizon, s).j_realized
            for s in seeds
        ])
        half = quant * gaps.std(ddof=1) / math.sqrt(len(gaps))
        bound = 0.025 * sol.j_value
        print(f"{kind} n={n} x={x}: mean gap {gaps.mean():.5f} +- {half:.5f}, bound {bound:.5f}")
        inside[kind] = -bound <= gaps.mean() - half and gaps.mean() + half <= bound
    elapsed = time.perf_counter() - t0
    ok = all(inside.values()) and elapsed < 10.0
    report(11, "paired-greedy-gap", ok, elapsed)
    assert inside == {"asym_uniform": True, "asym_gaussian": True}
    assert elapsed < 10.0
