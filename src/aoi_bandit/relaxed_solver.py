"""Long-run rates of a threshold poller and the budget-matching cutoff.

Under a fixed cutoff eta a sensor is polled exactly when its belief
branch first qualifies, so between polls the branch index is a Markov
chain and the time between polls is the branch's threshold. Both the
polls-per-slot rate and the collected mean-age-per-slot rate are the
slope of the renewal values, which are affine in the horizon. The
cutoff search tunes eta until the aggregate polling rate over all
sensors matches a budget of one poll per slot on average.

The search runs sensor_rates: gamma_analytic thresholds, then one
structured solve whose size is the number of distinct poll spacings.
It makes one solve per distinct threshold table of each sensor, since
cutoffs that leave a table unchanged leave its rates unchanged, and it
counts which table a cutoff gives a sensor only where the evaluated
cutoffs around it leave that open.
build_system's dense kernel, solved by sampling_rate and aoi_rate, and
iterate_recurrence stay as the oracles the tests check it against.
"""
from __future__ import annotations

import bisect
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .belief import BranchState, _runmin_cached, _table_cached, branch_belief
from .chain import ChainParams
from .threshold import ThresholdTable, gamma_analytic

__all__ = [
    "AbsorbingBranchError",
    "SingularSystemError",
    "RecurrenceSystem",
    "PerSensorRates",
    "EtaSolution",
    "build_system",
    "sampling_rate",
    "aoi_rate",
    "iterate_recurrence",
    "sensor_rates",
    "solve_eta",
]


class AbsorbingBranchError(ValueError):
    """The table abandons some branch, so the poll process dies out."""


class SingularSystemError(RuntimeError):
    """The renewal system is numerically singular."""


@dataclass(frozen=True, eq=False)
class RecurrenceSystem:
    """Poll-to-poll kernel of one sensor under a fixed cutoff.

    rows[k - 1] is the belief over the age observed at the next poll
    when the last poll returned k; gammas[k - 1] is the poll spacing
    from branch k; rewards[k - 1] is the branch mean collected at that
    poll.
    """

    params: ChainParams
    eta: float
    gammas: tuple[int, ...]
    rows: np.ndarray
    rewards: np.ndarray


def build_system(params: ChainParams, table: ThresholdTable) -> RecurrenceSystem:
    """Assemble the poll-to-poll kernel for a fully finite table."""
    if table.m != params.m:
        raise ValueError(f"table size {table.m} does not match age cap {params.m}")
    if table.has_never:
        raise AbsorbingBranchError(
            f"cutoff {table.eta} abandons some branch (p={params.p}, m={params.m})"
        )
    m = params.m
    gammas = table.finite()
    rows = np.array([branch_belief(params, BranchState(k, g, m)) for k, g in enumerate(gammas, 1)])
    rewards = _table_cached(params)[np.arange(m), np.array(gammas) - 1]
    return RecurrenceSystem(
        params=params, eta=float(table.eta), gammas=gammas, rows=rows, rewards=rewards
    )


def _affine_rates(system: RecurrenceSystem, targets: np.ndarray) -> np.ndarray:
    # The horizon-T value from branch k is alpha*T + b(k); pinning
    # b(m) = 0 leaves unknowns [b(1)..b(m-1), -alpha] and one equation
    # per branch: (kernel row - identity) restricted to the first m-1
    # columns, with the poll spacing in the last column.
    m = system.params.m
    c = np.empty((m, m))
    c[:, : m - 1] = system.rows[:, : m - 1]
    c[np.arange(m - 1), np.arange(m - 1)] -= 1.0
    c[:, m - 1] = system.gammas
    try:
        u = np.linalg.solve(c, -targets)
    except np.linalg.LinAlgError as err:
        raise SingularSystemError(
            f"renewal system singular: p={system.params.p}, m={m}, "
            f"spacings={sorted(set(system.gammas))}"
        ) from err
    return -u[m - 1]


def sampling_rate(system: RecurrenceSystem) -> float:
    """Long-run polls per slot of the threshold policy."""
    return float(_affine_rates(system, np.ones(system.params.m)))


def aoi_rate(system: RecurrenceSystem) -> float:
    """Long-run collected branch mean per slot of the threshold policy."""
    return float(_affine_rates(system, system.rewards))


def iterate_recurrence(system: RecurrenceSystem, horizon: int) -> np.ndarray:
    """Exact finite-horizon renewal values, one row per starting branch.

    Dynamic program on the poll recurrences: nothing is collected before
    the first poll, the first poll lands at the branch spacing, and
    later horizons recurse through the observed-age kernel. Column 0
    counts polls and column 1 sums the collected branch means. Serves
    as the independent check of the affine solve. The warm-up slots up
    to the longest spacing g_max step a window of the last g_max values
    one windowed matmul at a time; every later slot applies the same
    affine map to that window, so those are taken together by repeated
    squaring of its (g_max m + 2)-square matrix, at a cost of order
    (g_max m)**3 log(horizon) time and (g_max m)**2 floats.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    m = system.params.m
    base = np.column_stack((np.ones(m), np.asarray(system.rewards, dtype=float)))
    garr = np.asarray(system.gammas)
    gmax = int(garr.max())
    # window row j holds the values at horizon t - gmax + j, so branch k
    # reads row gmax - gamma_k; the window starts at zero, which is V_0
    # (and stands in for the horizons before it, which the warm-up rule
    # below overwrites)
    flat = np.zeros((m, gmax * m))
    flat[np.arange(m)[:, None], ((gmax - garr) * m)[:, None] + np.arange(m)] = system.rows
    window = np.zeros((gmax, m, 2))
    out = np.empty((m, 2))
    for t in range(1, min(horizon, gmax) + 1):
        np.dot(flat, window.reshape(gmax * m, 2), out=out)
        out += base
        if t < gmax:
            # nothing is collected before the first poll lands
            out[garr > t] = 0.0
        window[:-1] = window[1:]
        window[-1] = out
    if horizon <= gmax:
        return window[-1].copy()
    # one later slot maps [window; I] to [window shifted up by one row, with
    # flat . window + base last; I], the identity carrying the two constants
    d = gmax * m
    step = np.zeros((d + 2, d + 2))
    step[: d - m, m:d] = np.eye(d - m)
    step[d - m : d, :d] = flat
    step[d - m : d, d:] = base
    step[d:, d:] = np.eye(2)
    state = np.vstack((window.reshape(d, 2), np.eye(2)))
    rest = horizon - gmax
    while rest:
        if rest & 1:
            state = step @ state
        rest >>= 1
        if rest:
            step = step @ step
    return state[d - m : d].copy()


@dataclass(frozen=True)
class PerSensorRates:
    """Polls per slot and collected mean age per slot for one sensor."""

    d_bar: float
    r_bar: float


def sensor_rates(params: ChainParams, eta: float) -> PerSensorRates:
    """Rates of one sensor under cutoff eta; zero once the sensor idles.

    The cutoff search's route: gamma_analytic thresholds, then both
    rates from one structured solve of the renewal equations, whose
    oracles are sampling_rate/aoi_rate on build_system's dense kernel.
    When any branch is abandoned the observation walk reaches it almost
    surely and polling dies out, so both long-run rates are zero. A
    branch is abandoned exactly when its running minimum, whose last
    entry is the row's minimum, never drops below eta, so that test
    runs before any threshold is computed and agrees with the scan.
    """
    if (_runmin_cached(params)[:, -1] >= eta).any():
        return PerSensorRates(d_bar=0.0, r_bar=0.0)
    table = gamma_analytic(params, eta)
    d_bar, r_bar = _renewal_rates(params, np.array(table.gamma, dtype=np.intp))
    return PerSensorRates(d_bar=float(d_bar), r_bar=float(r_bar))


def _renewal_rates(params: ChainParams, g: np.ndarray) -> np.ndarray:
    # Poisson equation of the poll-to-poll kernel P, with the rate alpha:
    # h(k) = c_k - alpha g_k + sum_a P(k, a) h(a), h(m) = 0, for c = 1
    # (alpha = d_bar) and c = branch means (alpha = r_bar). P splits into
    # the fresh resets F(k, a) = q p**(a - 1) for a <= g_k, which depend
    # on k only through g_k, and the stale jump S: k -> min(k + g_k, m)
    # with weight p**g_k, strictly upward but for the loop at m. So
    # h = (I - S)^-1 (c - alpha g + phi[g]) with phi(G) the fresh-reset
    # mass sum_{a <= G} q p**(a - 1) h(a) of each distinct spacing G,
    # and the unknowns shrink to alpha and one phi per distinct spacing.
    m, p, q = params.m, params.p, params.q
    k = np.arange(m)
    powers = p ** np.arange(m + 1, dtype=float)
    present = np.zeros(m, dtype=bool)
    present[g] = True
    levels = np.flatnonzero(present)
    d = len(levels)
    # columns: c = 1, c = branch means, g, and the indicator of each
    # distinct spacing (cumsum(present)[g] is the rank of g among them)
    y = np.zeros((m, d + 3))
    y[:, 0] = 1.0
    y[:, 1] = _table_cached(params)[k, g - 1]
    y[:, 2] = g
    y[k, 2 + np.cumsum(present)[g]] = 1.0
    # y <- (I - S)^-1 y by pointer jumping: fold the self-loop at m into
    # its row, then each round doubles the stretch of chain every branch
    # has summed, until every chain has reached m
    s = powers[g]
    t = np.minimum(k + g, m - 1)
    y[m - 1] /= 1.0 - s[m - 1]
    s[m - 1] = 0.0
    while s.any():  # at most ceil(log2 m) rounds
        y += s[:, None] * y[t]
        s *= s[t]
        t = t[t]
    fresh = np.cumsum((q * powers[:m])[:, None] * y, axis=0)[levels - 1]
    # unknowns (alpha, phi): h(m) = 0, then phi = fresh-reset mass of h
    a = np.empty((d + 1, d + 1))
    a[0, 0], a[0, 1:] = -y[m - 1, 2], y[m - 1, 3:]
    a[1:, 0], a[1:, 1:] = fresh[:, 2], np.eye(d) - fresh[:, 3:]
    b = np.concatenate([-y[m - 1 :, :2], fresh[:, :2]])
    try:
        return np.linalg.solve(a, b)[0]
    except np.linalg.LinAlgError as err:
        raise SingularSystemError(
            f"renewal system singular: p={p}, m={m}, spacings={levels.tolist()}"
        ) from err


# grids of at most this many candidates are evaluated in full, which also
# verifies that the aggregate rate is monotone; larger grids are bisected
_EXHAUSTIVE_BELOW = 256

# headroom above the largest attainable branch mean, so that the
# poll-every-slot regime is always on the grid
_PAD = 1.0


@dataclass(frozen=True)
class SearchRecord:
    """What one cutoff search computed, in the order it computed it."""

    evaluated: tuple[tuple[float, float], ...]  # (cutoff, aggregate poll rate)
    solves: tuple[tuple[int, float], ...]  # (sensor's first index, eta) per sensor_rates call


@dataclass(frozen=True)
class EtaSolution:
    """Result of the cutoff search.

    active holds the indices (into the caller's sensor list) of sensors
    polled under eta_star; d_hat is their aggregate poll rate; j_value
    is the per-poll mean age of the tuned policy, nan when nothing is
    polled. monotone_ok reports the empirical monotonicity check of the
    aggregate rate along the evaluated grid, whose dips can be last-bit
    artifacts of cutoffs one ulp apart. record, outside repr and ==, is
    what the search computed, by sensor index, so it pins no table.

    A solution that polls nothing (d_hat = 0.0, active = (), j_value =
    nan) is a valid result, not an error: solve_eta returns it when no
    cutoff brings the aggregate rate closer to 1 than 0 does.
    """

    eta_star: float
    d_hat: float
    active: tuple[int, ...]
    j_value: float
    monotone_ok: bool = True
    record: SearchRecord | None = field(default=None, repr=False, compare=False)


@functools.lru_cache(maxsize=8)
def _unsaturated(m: int) -> np.ndarray:
    # the branches (k, i) of an m-row table with i + k <= m; every other
    # entry equals the saturated one (i + k = m) of its column bit for bit
    k, i = np.ogrid[1 : m + 1, 1:m]
    mask = k + i <= m
    mask.setflags(write=False)
    return mask


def _candidate_grid(values: np.ndarray) -> np.ndarray:
    # the sorted values interleaved with their midpoints, in which only
    # equal values and the midpoints of adjacent floats (rounded onto an
    # end) repeat; keeping strict increases leaves the sorted union without
    # a second sort or a dedupe. Built in place: the grid is the largest array
    grid = np.empty(2 * len(values) - 1)
    grid[0::2] = values
    np.add(values[1:], values[:-1], out=grid[1::2])
    grid[1::2] /= 2.0
    keep = np.empty(len(grid), dtype=bool)
    keep[0] = True
    np.greater(grid[1:], grid[:-1], out=keep[1:])
    return grid[keep]


def _pick(evaluated: dict[float, float]) -> float:
    # smallest |d_hat - 1|; on ties prefer the largest cutoff that keeps
    # the budget feasible (d_hat <= 1), otherwise the smallest cutoff
    best_gap = min(abs(d - 1.0) for d in evaluated.values())
    ties = [e for e, d in evaluated.items() if abs(d - 1.0) == best_gap]
    feasible = [e for e in ties if evaluated[e] <= 1.0]
    return max(feasible) if feasible else min(ties)


def solve_eta(sensors: list[ChainParams]) -> EtaSolution:
    """Tune the cutoff so the aggregate poll rate is closest to 1/slot.

    Candidate cutoffs are the distinct attainable branch means of all
    sensors plus the midpoints between neighbours (the aggregate rate is
    a step function that can only move at attainable means), topped by a
    padded value that forces every branch to qualify. Small grids are
    scanned outright; large ones are bisected, relying on monotonicity
    of the aggregate rate, which is checked on every cutoff actually
    evaluated and reported via monotone_ok. Each sensor is solved once
    per distinct threshold table: a cutoff that leaves a sensor's table
    as an earlier cutoff had it reuses that cutoff's rates, which are
    the same numbers.

    The search evaluates only what it does not already know. A table is
    named by its key, the count of running-minimum entries below the
    cutoff, which cannot fall as the cutoff rises; so a sensor whose
    keys agree at the nearest evaluated cutoffs on either side keeps
    that key in between, and only the others are counted. At the padded
    top every sensor polls every slot, so a bisected grid of n >= 3
    sensors takes its aggregate as n without solving it: that opens the
    bracket above the zero rate at the smallest table value, and its gap
    to the budget, n - 1 >= 2, never wins over that zero rate's gap of 1.
    With one or two sensors the top is solved, since rounding decides.

    When the aggregate rate jumps from 0 straight to 2 or more, the
    zero rate is the closest to the budget (or the feasible side of a
    tie), and the solution polls nothing, without a warning. At m = 2
    every branch mean equals the stationary mean, so each sensor is
    polled every slot or never: with n >= 2 such sensors the result is
    d_hat = 0.0, active = () and j_value = nan (for p = 0.5, m = 2 and
    n = 3, eta_star = 1.5).
    """
    if not sensors:
        raise ValueError("need at least one sensor")
    # the distinct sensors in first-seen order, and each fleet slot's
    # index among them
    distinct = list(dict.fromkeys(sensors))
    ids = {s: i for i, s in enumerate(distinct)}
    fleet = [ids[s] for s in sensors]
    # their unsaturated table values (the rest repeat them) and the padded
    # top, which sorts last; sorted in place, as np.unique loads numpy.ma
    # on its first call, and the grid drops the repeats
    top = max(s.q + s.m * s.p for s in sensors) + _PAD
    values = np.concatenate([_table_cached(s)[_unsaturated(s.m)] for s in distinct] + [[top]])
    values.sort()
    grid = _candidate_grid(values)
    # taken after the grid, so they do not sit under its temporaries
    runmins = [_runmin_cached(s) for s in distinct]

    # aggregate poll rate of every evaluated cutoff, and one solve per (sensor,
    # threshold table): distinct sensor i's rates at eta are solved[i, keys[eta][i]]
    evaluated: dict[float, float] = {}
    solved: dict[tuple[int, int], PerSensorRates] = {}
    solves: list[tuple[int, float]] = []
    # the table keys of the distinct sensors at each cutoff where they are
    # known, and those cutoffs in order. A threshold is the first slot
    # whose running minimum is below eta, so the count of entries below
    # eta names the table; no entry is below the smallest table value,
    # and every one is below the top
    keys = {float(grid[0]): [0] * len(distinct), top: [r.size for r in runmins]}
    known = sorted(keys)

    def evaluate(eta: float) -> float:
        if eta not in evaluated:
            if eta not in keys:
                j = bisect.bisect(known, eta)
                below, above = keys[known[j - 1]], keys[known[j]]
                keys[eta] = [
                    a if a == b else int(np.count_nonzero(r < eta))
                    for a, b, r in zip(below, above, runmins)
                ]
                known.insert(j, eta)
            ks = keys[eta]
            for i, key in enumerate(ks):
                if (i, key) not in solved:
                    solved[i, key] = sensor_rates(distinct[i], eta)
                    solves.append((fleet.index(i), eta))
            evaluated[eta] = sum(solved[i, ks[i]].d_bar for i in fleet)
        return evaluated[eta]

    if len(grid) <= _EXHAUSTIVE_BELOW:
        for eta in grid:
            evaluate(float(eta))
    else:
        lo, hi = 0, len(grid) - 1
        evaluate(float(grid[lo]))  # abandons every branch: _pick needs its 0.0
        # every sensor polls every slot at the top; rounding decides for n <= 2
        d_hi = evaluate(top) if len(sensors) <= 2 else float(len(sensors))
        if d_hi >= 1.0:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if evaluate(float(grid[mid])) < 1.0:
                    lo = mid
                else:
                    hi = mid

    # test one extra midpoint on each side of the winner
    eta_star = _pick(evaluated)
    pos = int(np.searchsorted(grid, eta_star))
    for nb in (pos - 1, pos + 1):
        if 0 <= nb < len(grid):
            evaluate((float(grid[nb]) + eta_star) / 2.0)
    eta_star = _pick(evaluated)

    # known is sorted and holds every evaluated cutoff (and the top)
    rates = [evaluated[e] for e in known if e in evaluated]
    monotone_ok = all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))
    if not monotone_ok:
        warnings.warn("aggregate poll rate not monotone on the evaluated grid")

    ks, d_hat = keys[eta_star], evaluated[eta_star]
    per = [solved[i, ks[i]] for i in fleet]
    active = tuple(i for i, r in enumerate(per) if r.d_bar > 0.0)
    j_value = sum(r.r_bar for r in per) / d_hat if d_hat > 0 else math.nan
    return EtaSolution(
        eta_star=float(eta_star),
        d_hat=float(d_hat),
        active=active,
        j_value=float(j_value),
        monotone_ok=monotone_ok,
        record=SearchRecord(tuple(evaluated.items()), tuple(solves)),
    )
