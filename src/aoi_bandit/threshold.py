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


def lambert_w0(z: float, tol: float = 1e-12, max_iter: int = 100) -> float:
    """Principal branch W0 of w * exp(w) = z via Halley iteration.

    Defined for z >= -1/e; arguments within 1e-12 below the branch point
    are clamped onto it (callers hit this through rounding), anything
    lower raises. Near the branch point the series in sqrt(2(e z + 1))
    is already exact to double precision, so it is returned directly.
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
    if z >= math.e:
        lz = math.log(z)
        w = lz - math.log(lz)
    elif z > 0.0:
        w = math.log1p(z)
    else:
        r = math.sqrt(s)
        w = -1.0 + r - s / 3.0 + 11.0 / 72.0 * r * s
    for _ in range(max_iter):
        ew = math.exp(w)
        f = w * ew - z
        if f == 0.0:
            break
        wp1 = w + 1.0
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= step
        if abs(step) <= tol * (1.0 + abs(w)):
            break
    return max(w, -1.0)


def gamma_scan(params: ChainParams, eta: float) -> ThresholdTable:
    """Reference thresholds by direct scan of the branch-mean table."""
    abar = _table_cached(params)
    below = abar < eta
    has = below.any(axis=1)
    first = below.argmax(axis=1) + 1
    gamma = tuple(int(f) if h else NEVER for f, h in zip(first, has))
    return ThresholdTable(eta=float(eta), gamma=gamma)


def _scan_row(row, eta: float) -> float:
    for idx, value in enumerate(row):
        if value < eta:
            return idx + 1
    return NEVER


def _first_crossing(row, guess: int, eta: float, m: int) -> float:
    # snap an analytic candidate onto the first index with mean < eta;
    # rounding can land one slot off on exact-boundary inputs
    g = min(max(guess, 1), m - 1)
    moved = 0
    while g < m - 1 and row[g - 1] >= eta:
        g += 1
        moved += 1
        if moved > 2:
            return _scan_row(row, eta)
    if row[g - 1] >= eta:
        return _scan_row(row, eta)
    while g > 1 and row[g - 2] < eta:
        g -= 1
        moved += 1
        if moved > 4:
            return _scan_row(row, eta)
    if g > 1 and (row[: g - 1] < eta).any():
        # cutoffs within rounding distance of the row's flat tail can
        # break the single-crossing shape; defer to the literal scan
        return _scan_row(row, eta)
    return g


def gamma_analytic(params: ChainParams, eta: float) -> ThresholdTable:
    """Closed-form thresholds, exactly matching gamma_scan.

    Three cutoff regimes: above the largest attainable branch mean every
    branch qualifies immediately; below the stationary mean a branch
    either starts qualified or never qualifies; in between the crossing
    slot solves the branch-mean equation, through W0 when the crossing
    falls in the saturated phase and through a plain logarithm when it
    falls in the pre-saturation phase. Candidates are rounded with a
    1e-9 nudge and snapped to the scan semantics, and the two branches
    next to the age cap (whose phase split is degenerate) are scanned
    directly.
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
    psi_eta = inv - eta
    psi_m = inv - m
    gamma = []
    for k in range(1, m + 1):
        row = abar[k - 1]
        if row[0] < eta:
            gamma.append(1)
            continue
        if k >= m - 1:
            gamma.append(_scan_row(row, eta))
            continue
        if k * (1.0 - p) <= 1.0:
            x = _saturated_crossing(psi_eta, psi_m, lnp)
        else:
            if row[m - k - 2] > eta:
                x = _saturated_crossing(psi_eta, psi_m, lnp)
            else:
                ratio = (1.0 - eta * (1.0 - p)) / (1.0 - k * (1.0 - p))
                x = math.log(ratio) / lnp if ratio > 0.0 else None
        if x is None or not math.isfinite(x):
            gamma.append(_scan_row(row, eta))
            continue
        guess = math.ceil(x - 1e-9)
        gamma.append(_first_crossing(row, guess, eta, m))
    return ThresholdTable(eta=eta, gamma=tuple(gamma))


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
