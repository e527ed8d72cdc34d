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

from scipy.special import lambertw

from .belief import _table_cached, steady_expected_aoi
from .chain import ChainParams

__all__ = ["NEVER", "ThresholdTable", "lambert_w0", "gamma_scan", "gamma_analytic"]

NEVER = math.inf  # branch whose mean age never drops below eta

_BRANCH_POINT = -math.exp(-1.0)


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
        return any(g == NEVER for g in self.gamma)

    def finite(self) -> tuple[int, ...]:
        if self.has_never:
            raise ValueError("table contains abandoned branches")
        return tuple(int(g) for g in self.gamma)


def lambert_w0(z: float) -> float:
    """Principal branch W0 of w * exp(w) = z, from scipy.special.lambertw.

    Defined for z >= -1/e; arguments within 1e-12 below the branch point
    are clamped onto it (callers hit this through rounding), anything
    lower raises. Near the branch point it returns the series in
    sqrt(2(e z + 1)), whose truncation error is below double precision
    (the rounding of e z + 1 still costs up to about 1e-8 there);
    lambertw itself returns nan at the rounded branch point.
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
    if s < 1e-8:
        r = math.sqrt(s)
        return -1.0 + r - s / 3.0 + 11.0 / 72.0 * r * s
    return float(lambertw(z).real)


def gamma_scan(params: ChainParams, eta: float) -> ThresholdTable:
    """Reference thresholds by direct scan of the branch-mean table."""
    gamma = tuple(_first_below(_table_cached(params), eta))
    return ThresholdTable(eta=float(eta), gamma=gamma)


def _first_below(rows, eta: float) -> list:
    # per row, the 1-based index of its first entry below eta, or NEVER
    below = rows < eta
    first = (below.argmax(axis=1) + 1).tolist()
    return [f if h else NEVER for f, h in zip(first, below.any(axis=1).tolist())]


def gamma_analytic(params: ChainParams, eta: float) -> ThresholdTable:
    """Closed-form thresholds, exactly matching gamma_scan.

    Three cutoff regimes: above the largest attainable branch mean every
    branch qualifies immediately; below the stationary mean a branch
    either starts qualified or never qualifies; in between the crossing
    slot solves the branch-mean equation, through W0 when the crossing
    falls in the saturated phase (the same slot for every branch, so W0
    is evaluated once per call) and through a plain logarithm when it
    falls in the pre-saturation phase. Each candidate slot
    ceil(x - 1e-9) is kept when the table confirms it is the first entry
    below eta; otherwise, and for the two branches next to the age cap
    (whose phase split is degenerate), the row is scanned.
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

    lnp = math.log(p)
    inv = 1.0 / (1.0 - p)
    x_sat = _saturated_crossing(inv - eta, inv - m, lnp)
    gamma = []
    for k in range(1, m + 1):
        row = abar[k - 1]
        if row[0] < eta:
            gamma.append(1)
            continue
        x = None
        if k < m - 1:
            if k * (1.0 - p) <= 1.0 or row[m - k - 2] > eta:
                x = x_sat
            else:
                ratio = (1.0 - eta * (1.0 - p)) / (1.0 - k * (1.0 - p))
                x = math.log(ratio) / lnp if ratio > 0.0 else None
        gamma.append(_keep_or_scan(row, x, eta))
    return ThresholdTable(eta=eta, gamma=tuple(gamma))


def _keep_or_scan(row, x: float | None, eta: float) -> float:
    # rounding can put the closed-form slot one off on exact-boundary
    # cutoffs, and cutoffs near the row's flat tail can break its
    # single-crossing shape: keep the slot only when the table confirms it
    if x is not None and math.isfinite(x):
        g = math.ceil(x - 1e-9)
        if 1 <= g <= len(row) and row[g - 1] < eta and not (row[: g - 1] < eta).any():
            return g
    return _first_below(row[None], eta)[0]


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
