"""Per-branch polling thresholds for a mean-age cutoff eta.

A threshold policy polls a sensor as soon as the mean age of its belief
branch drops below eta. Because each branch (k, i) has a closed-form
mean that is piecewise monotone in i, the first qualifying i -- the
threshold gamma_k -- has an analytic expression built on the principal
Lambert W function, with a plain table scan as the reference oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .belief import _runmin_cached, _table_cached, steady_expected_aoi
from .chain import ChainParams

__all__ = ["NEVER", "ThresholdTable", "lambert_w0", "gamma_scan", "gamma_analytic"]

NEVER = math.inf  # branch whose mean age never drops below eta

_BRANCH_POINT = -math.exp(-1.0)

# Halley iteration of lambert_w0: relative step tolerance and step cap
_W_TOL = 1e-12
_W_MAX_ITER = 100


@dataclass(frozen=True)
class ThresholdTable:
    """First qualifying poll delay per branch: gamma[k - 1] for branch k.

    Entries are positive integers (slots since the last poll) or NEVER
    for branches the policy abandons. eta is the cutoff the table was
    built for.
    """

    eta: float
    gamma: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.gamma)

    @property
    def has_never(self) -> bool:
        return NEVER in self.gamma

    def finite(self) -> tuple[int, ...]:
        if self.has_never:
            raise ValueError("table contains abandoned branches")
        return tuple(int(g) for g in self.gamma)


def lambert_w0(z: float) -> float:
    """Principal branch W0 of w * exp(w) = z, by Halley iteration in math.

    Defined for z >= -1/e; arguments within 1e-12 below the branch point
    are clamped onto it (callers hit this through rounding), anything
    lower raises. Near the branch point (2(e z + 1) < 1e-8) it returns
    the series in sqrt(2(e z + 1)), whose truncation error is below
    double precision (the rounding of e z + 1 still costs up to about
    1e-8 there). Elsewhere it agrees with scipy.special.lambertw to
    within 1e-12 relative wherever 2(e z + 1) >= 1e-6; gamma_analytic
    keeps a W0 slot only when the table confirms it, so this accuracy
    decides how often a row is scanned, never a threshold.
    """
    if math.isnan(z):
        raise ValueError("lambert_w0 argument is nan")
    if z < _BRANCH_POINT:
        if z < _BRANCH_POINT - 1e-12:
            raise ValueError(f"lambert_w0 argument {z} below -1/e")
        z = _BRANCH_POINT
    s = 2.0 * (math.e * z + 1.0)
    if s <= 0.0:
        return -1.0
    r = math.sqrt(s)
    series = -1.0 + r - s / 3.0 + 11.0 / 72.0 * r * s
    if s < 1e-8:
        return series
    # start from the series near the branch point, from log1p on (0, e)
    # and from the asymptote log z - log log z above
    if z >= math.e:
        lz = math.log(z)
        w = lz - math.log(lz)
    elif z > 0.0:
        w = math.log1p(z)
    else:
        w = series
    for _ in range(_W_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - z
        if f == 0.0:
            break
        wp1 = w + 1.0
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= step
        if abs(step) <= _W_TOL * (1.0 + abs(w)):
            break
    return max(w, -1.0)


def gamma_scan(params: ChainParams, eta: float) -> ThresholdTable:
    """Reference thresholds: per row, the first running minimum below eta.

    Those entries end the row, so its last entry says whether it has any.
    The oracle that gamma_analytic must equal; the cutoff simulator polls by it.
    """
    below = _runmin_cached(params) < eta
    return _table(eta, np.where(below[:, -1], below.argmax(axis=1) + 1, 0))


def _table(eta: float, slots: np.ndarray) -> ThresholdTable:
    # slot 0 marks a branch that never drops below eta
    gamma = slots.tolist()
    if 0 in gamma:
        gamma = [g or NEVER for g in gamma]
    return ThresholdTable(eta=float(eta), gamma=tuple(gamma))


def gamma_analytic(params: ChainParams, eta: float) -> ThresholdTable:
    """Closed-form thresholds, exactly matching gamma_scan.

    The route the rate solver runs (relaxed_solver.sensor_rates), with
    gamma_scan as its oracle. Three cutoff regimes: above the largest
    attainable branch mean every branch qualifies immediately; below the
    stationary mean a branch either starts qualified or never qualifies;
    in between the crossing slot solves the branch-mean equation,
    through W0 when the crossing falls in the saturated phase (the same
    slot for every branch, so W0 is evaluated once per call) and through
    a plain logarithm, one vector for all branches, when it falls in the
    pre-saturation phase. Each candidate slot ceil(x - 1e-9) is kept
    when two table gathers confirm it is the first entry below eta;
    otherwise the row is scanned.
    """
    m, p = params.m, params.p
    eta = float(eta)
    abar = _table_cached(params)

    if eta > abar[m - 1, 0]:
        # the largest attainable mean sits at the oldest one-slot branch
        return ThresholdTable(eta=eta, gamma=(1,) * m)

    if eta <= steady_expected_aoi(params):
        # every branch either starts below the cutoff or never crosses
        # it; compare against the tabulated means so that cutoffs within
        # rounding distance of the stationary mean behave like the scan
        return gamma_scan(params, eta)

    q, lnp = 1.0 - p, math.log(p)
    x_sat = _saturated_crossing(1.0 / q - eta, 1.0 / q - m, lnp)
    x = np.full(m, math.nan if x_sat is None else x_sat)
    # branches k = j + 1 <= m - 2 that are still short of saturation at
    # the crossing take the log crossing; from k = m - 1 on, every slot is
    # saturated
    j = np.arange(m - 2)
    kq = (j + 1.0) * q
    pre = (kq > 1.0) & (abar[j, m - 3 - j] <= eta)
    with np.errstate(divide="ignore", invalid="ignore"):
        x[j[pre]] = np.log((1.0 - eta * q) / (1.0 - kq[pre])) / lnp
    # a branch already below eta one slot after its poll needs no crossing
    x[abar[:, 0] < eta] = 1.0
    return _table(eta, _keep_or_scan(abar, _runmin_cached(params), x, eta))


def _keep_or_scan(abar, runmin, x, eta: float) -> np.ndarray:
    # per row, its slot (0: never below eta). Rounding can put the
    # closed-form slot ceil(x - 1e-9) one off on exact-boundary cutoffs,
    # and cutoffs near a row's flat tail can break its single-crossing
    # shape: keep the slot only where two gathers confirm it is the first
    # entry below eta (the entry is below, the running minimum before it
    # is not), and scan the other rows
    g = np.ceil(x - 1e-9)
    ok = (g >= 1) & (g <= abar.shape[1])
    g = np.where(ok, g, 1).astype(np.intp)
    rows = np.arange(len(g))
    ok &= abar[rows, g - 1] < eta
    ok &= (g == 1) | (runmin[rows, g - 2] >= eta)  # g - 2 = -1 is masked
    if not ok.all():
        below = runmin[~ok] < eta
        g[~ok] = np.where(below[:, -1], below.argmax(axis=1) + 1, 0)
    return g


def _saturated_crossing(psi_eta: float, psi_m: float, lnp: float) -> float | None:
    # crossing slot when the branch mean is in its k-independent tail:
    # p**x (x - psi_m... ) rearranges to w e**w with w = (x + psi_m) ln p
    try:
        arg = psi_eta * math.exp(psi_m * lnp) * lnp
    except OverflowError:
        return None
    if arg < _BRANCH_POINT - 1e-12 or not math.isfinite(arg):
        return None
    return lambert_w0(arg) / lnp - psi_m
