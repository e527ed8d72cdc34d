"""Poll-delay thresholds: Lambert W helper, scan, and closed form."""
import math

import numpy as np
import pytest
from scipy.special import lambertw

from aoi_bandit import (
    ChainParams,
    NEVER,
    ThresholdTable,
    expected_aoi_table,
    gamma_analytic,
    gamma_scan,
    lambert_w0,
    steady_expected_aoi,
)
from aoi_bandit import threshold


def test_lambert_anchors_exact():
    assert abs(lambert_w0(0.0)) <= 1e-12
    assert abs(lambert_w0(math.e) - 1.0) <= 1e-12
    assert abs(lambert_w0(-math.exp(-1.0)) + 1.0) <= 1e-12


def test_lambert_round_trip():
    rng = np.random.default_rng(11)
    for w in rng.uniform(-0.999, 10.0, 200).tolist():
        z = w * math.exp(w)
        assert abs(lambert_w0(z) - w) <= 1e-9


def test_lambert_known_values():
    assert abs(lambert_w0(1.0) - 0.5671432904097838) < 1e-12
    assert abs(lambert_w0(-0.2) + 0.2591711018190738) < 1e-12


def test_lambert_domain_edges():
    # a hair below the branch point is treated as rounding and clamped
    assert lambert_w0(-math.exp(-1.0) - 1e-13) == -1.0
    with pytest.raises(ValueError):
        lambert_w0(-0.5)
    with pytest.raises(ValueError):
        lambert_w0(float("nan"))


def test_lambert_monotone():
    zs = np.linspace(-math.exp(-1.0), 20.0, 500)
    ws = [lambert_w0(z) for z in zs.tolist()]
    assert all(b >= a for a, b in zip(ws, ws[1:]))


def test_lambert_matches_scipy():
    # from just above -1/e to 1e12, wherever 2(e z + 1) >= 1e-6 (closer to
    # the branch point, the rounding of e z + 1 dominates either answer)
    branch = -math.exp(-1.0)
    zs = np.concatenate([
        branch + np.geomspace(1e-7, 0.3, 400),
        np.linspace(-0.35, 3.0, 400),
        -np.geomspace(1e-300, 0.3, 200),
        np.geomspace(1e-300, 1e12, 400),
    ])
    checked = 0
    for z in zs.tolist():
        if 2.0 * (math.e * z + 1.0) < 1e-6:
            continue
        ref = float(lambertw(z).real)
        assert abs(lambert_w0(z) - ref) <= 1e-12 * abs(ref), z
        checked += 1
    assert checked > 1300


def test_table_helpers():
    table = ThresholdTable(eta=3.0, gamma=(1, 2, NEVER))
    assert table.m == 3
    assert table.has_never
    with pytest.raises(ValueError):
        table.finite()
    ok = ThresholdTable(eta=3.0, gamma=(1.0, 2.0, 4.0))
    assert ok.finite() == (1, 2, 4)


def test_scan_hand_worked():
    params = ChainParams(p=0.8, m=10)
    # cutoff above the table peak: poll again right away everywhere
    assert gamma_scan(params, 9.2).gamma == (1,) * 10
    # cutoff below the stationary mean: old branches never requalify
    table = gamma_scan(params, 4.0)
    assert table.gamma[:3] == (1, 1, 1)
    assert all(g == NEVER for g in table.gamma[3:])


def test_cutoff_at_or_below_one_abandons_everything():
    params = ChainParams(p=0.5, m=6)
    for eta in (0.2, 1.0):
        assert all(g == NEVER for g in gamma_scan(params, eta).gamma)
        assert all(g == NEVER for g in gamma_analytic(params, eta).gamma)


@pytest.mark.parametrize("p", [0.1, 0.4, 0.7, 0.9])
def test_thresholds_monotone_in_observed_age(p):
    # older observations wait at least as long before requalifying
    params = ChainParams(p=p, m=20)
    top = params.q + params.m * params.p
    for eta in np.linspace(1.01, top + 0.5, 23).tolist():
        g = gamma_analytic(params, eta).gamma
        assert all(b >= a for a, b in zip(g, g[1:]))


@pytest.mark.parametrize("p", [0.05, 0.3, 0.6, 0.95])
def test_thresholds_are_first_crossings(p):
    # defining property: the mean first drops below eta exactly at gamma.
    # Both routes read the running minimum, so both are checked here
    # against the raw table rows
    params = ChainParams(p=p, m=15)
    abar = expected_aoi_table(params)
    top = params.q + params.m * params.p
    for route in (gamma_analytic, gamma_scan):
        for eta in np.linspace(1.0, top + 0.3, 29).tolist():
            table = route(params, eta)
            for k, g in enumerate(table.gamma, start=1):
                row = abar[k - 1]
                if g == NEVER:
                    assert np.all(row >= eta), (route.__name__, eta, k)
                else:
                    g = int(g)
                    assert row[g - 1] < eta, (route.__name__, eta, k)
                    assert g == 1 or row[g - 2] >= eta, (route.__name__, eta, k)


def _eta_candidates(params, count):
    # adversarial mix: plain sweep, exact table entries, nudged entries,
    # midpoints between adjacent distinct entries, stationary mean
    abar = expected_aoi_table(params)
    top = params.q + params.m * params.p
    vals = np.unique(abar)
    picks = vals[:: max(1, len(vals) // count)]
    etas = list(np.linspace(1.0 - 1e-9, top + 0.7, count))
    etas.extend(picks.tolist())
    etas.extend((picks + 1e-12).tolist())
    etas.extend((picks - 1e-12).tolist())
    # one-ulp neighbours: 1e-12 is many ulps away from entries above 1
    etas.extend(np.nextafter(picks, np.inf).tolist())
    etas.extend(np.nextafter(picks, -np.inf).tolist())
    mids = (vals[1:] + vals[:-1]) / 2.0
    etas.extend(mids[:: max(1, len(mids) // count)].tolist())
    etas.append(steady_expected_aoi(params))
    return etas


@pytest.mark.parametrize("m", [2, 3, 10, 50, 100])
def test_analytic_matches_scan(m):
    for p in np.arange(0.05, 0.96, 0.05).tolist():
        params = ChainParams(p=p, m=m)
        for eta in _eta_candidates(params, 12):
            assert gamma_analytic(params, eta).gamma == gamma_scan(params, eta).gamma, (p, m, eta)


def test_analytic_evaluates_w0_at_most_once(monkeypatch):
    # the saturated-phase crossing does not depend on the branch, so one
    # W0 per cutoff serves every branch of the table
    calls = []
    real = threshold.lambert_w0

    def counted(z):
        calls.append(z)
        return real(z)

    monkeypatch.setattr(threshold, "lambert_w0", counted)
    total = 0
    for p in (0.3, 0.6, 0.9):
        params = ChainParams(p=p, m=60)
        for eta in _eta_candidates(params, 12):
            calls.clear()
            gamma_analytic(params, eta)
            assert len(calls) <= 1, (p, eta, len(calls))
            total += len(calls)
    assert total > 0


def test_analytic_matches_scan_degenerate_channel():
    params = ChainParams(p=0.0, m=5)
    for eta in (0.5, 1.0, 1.0 + 1e-9, 2.0):
        assert gamma_analytic(params, eta).gamma == gamma_scan(params, eta).gamma


def test_closed_form_slot_is_usually_kept(monkeypatch):
    # gamma_analytic keeps a closed-form slot only when the table confirms
    # it and scans the row otherwise, so its equality with gamma_scan holds
    # whatever the closed form says; this pins that the closed form itself
    # finds the crossing, on the cutoffs of acceptance 02
    kept = []
    real = threshold._keep_or_scan

    def counted(abar, runmin, x, eta):
        g = real(abar, runmin, x, eta)
        # rows that start below eta are slot 1 without any closed form
        solved = abar[:, 0] >= eta
        kept.extend(((g >= 1) & (g == np.ceil(x - 1e-9)))[solved].tolist())
        return g

    monkeypatch.setattr(threshold, "_keep_or_scan", counted)
    rng = np.random.default_rng(20250802)
    for p in [round(0.05 * step, 2) for step in range(1, 20)]:
        for m in (3, 10, 50, 100):
            params = ChainParams(p=p, m=m)
            flat = np.unique(expected_aoi_table(params).ravel())
            top = float(flat[-1])
            etas = list(np.linspace(0.9, top + 0.6, 40))
            for v in rng.choice(flat, size=min(40, flat.size), replace=False):
                etas += [float(v), float(v) - 1e-12, float(v) + 1e-12]
            mids = (flat[:-1] + flat[1:]) / 2.0
            if mids.size:
                etas += rng.choice(mids, size=min(40, mids.size), replace=False).tolist()
            hbar = steady_expected_aoi(params)
            etas += [hbar, hbar - 1e-12, hbar + 1e-12, 1.0, 1.0 + 1e-12, top, top - 1e-12]
            for eta in etas:
                gamma_analytic(params, eta)
    assert len(kept) > 100_000
    assert sum(kept) / len(kept) >= 0.9
