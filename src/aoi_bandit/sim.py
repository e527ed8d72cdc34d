"""Chunk-array Monte Carlo of the polling policies.

Timing convention: the decision for a slot is made from the beliefs
held at the end of the previous slot, and a poll returns the sensor's
age as of the end of the previous slot. After the poll lands, every
true age takes its chain step and every belief branch either resets to
(observed age, 1) or ages by one slot.

One engine runs every policy, a draw chunk of _CHUNK = 4 096 slots at
a time, so a run's working set follows the chunk, not the horizon: a
run holds 50-75 bytes per chunk slot-sensor, and a 100 000-slot run of
4 sensors takes about 1 800 minor page faults. Each chunk also costs a
fixed 50-100 us of numpy calls, which smaller chunks would multiply. A
run of at most 4 096 slots draws in one chunk.
True ages do not depend on the policy, so it builds them per chunk in
closed form from the sensors' uniforms, in one buffer that every chunk
reuses; the policy returns the chunk's polls as int arrays (random
draws them at once, the cutoff policy follows each sensor's chain of
poll slots through its gamma_scan table by pointer doubling, greedy
repeats its last pick without a scan while that sensor's next mean
stays below every other sensor's current row minimum, and clamps each
row read at one fleet-wide bound); array operations account them, each
poll reading its branch off the sensor's last poll and its mean off
that sensor's own cached table, one gather per sensor.

True ages start from the stationary distribution, drawn as
Generator.choice draws them (one uniform searched in the sensor's
cached CDF), and beliefs at the no-information branch; the first
10 * max(age cap) slots are burn-in, excluded from every estimate.
Estimates are per poll: j_realized averages the observed ages,
j_expected the branch means that drove the decisions; their agreement
is a built-in check. Per-slot rates are these times samples_per_slot.
20 contiguous batch means of the observed ages give confidence
intervals, since slot samples are autocorrelated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # with the package, not lazily on a run's first draw

from .belief import _start_cdf_cached, _table_cached
from .chain import ChainParams
from .threshold import gamma_scan

__all__ = ["SimResult", "run_random", "run_greedy", "run_relaxed"]

_CHUNK = 4096
_BATCHES = 20


@dataclass(frozen=True)
class SimResult:
    """Per-poll estimates of one simulation run after burn-in.

    j_realized: mean observed age per poll.
    j_expected: mean decision-time branch mean per poll.
    samples_per_slot: polls per measured slot.
    per_sensor_samples: poll counts by sensor index.
    batch_means: per-poll observed-age means over contiguous batches of
        the measured window (empty batches dropped).
    slots: configured horizon (burn-in included).
    seed: the seed the run was started with.
    """

    j_realized: float
    j_expected: float
    samples_per_slot: float
    per_sensor_samples: tuple[int, ...]
    batch_means: tuple[float, ...]
    slots: int
    seed: int


def _true_ages(
    q: np.ndarray, m: np.ndarray, start: np.ndarray, u: np.ndarray, ages: np.ndarray
) -> None:
    """Fill ages with the true ages of every sensor over one chunk.

    ages[s, j] becomes sensor s's age before slot j of the chunk, and
    the last column its age after it: the number of slots since the last
    delivery (u < q) in the chunk, or start + j when there was none,
    capped at m.
    """
    # the slot of the last delivery before each column, -start if none,
    # by a running maximum over the delivery slots scattered onto -start
    ages[:] = -start[:, None]
    for row, x, qs in zip(ages, u, q.tolist()):
        slot = np.flatnonzero(x < qs)
        row[slot + 1] = slot
    np.maximum.accumulate(ages, axis=1, out=ages)
    np.subtract(np.arange(ages.shape[1]), ages, out=ages)
    np.minimum(ages, m[:, None], out=ages)


def _simulate(sensors: list[ChainParams], horizon: int, seed: int, polls) -> SimResult:
    """Run one policy from the stationary start and account its polls.

    polls(t0, ages, obs, last, p_rng) returns the polls of the draw chunk
    that starts at slot t0 as two int arrays, slots ascending and sensors
    ascending within a slot. ages[s, j] is the true age of sensor s
    before slot t0 + j; obs[s] and last[s] are the age seen at its last
    poll before the chunk and that poll's slot, so until its next poll
    the sensor is in branch (obs[s], min(t - last[s], m - 1)) at slot t.
    """
    if not sensors:
        raise ValueError("need at least one sensor")
    n = len(sensors)
    burn = 10 * max(s.m for s in sensors)
    if horizon <= burn:
        raise ValueError(f"horizon {horizon} does not clear the burn-in of {burn} slots")
    mlen = horizon - burn
    nb = _BATCHES if mlen >= _BATCHES else 1
    *s_rngs, p_rng = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n + 1)]
    m = np.array([s.m for s in sensors])
    obs, last = m.copy(), 1 - m  # every belief starts at the stationary branch (m, m - 1)
    tables = [_table_cached(s).ravel() for s in sensors]

    exp_sum, counts = 0.0, np.zeros(n, dtype=np.int64)
    b_obs, b_cnt = np.zeros(nb), np.zeros(nb, dtype=np.int64)
    # one chunk's uniforms and true ages, reused by every chunk; the
    # stationary starting ages, and then each chunk's last column, start
    # the next chunk
    q = np.array([s.q for s in sensors])
    size = min(_CHUNK, horizon)
    u_buf, age_buf = np.empty((n, size)), np.empty((n, size + 1), dtype=np.int64)
    start = 1 + np.array([_start_cdf_cached(s).searchsorted(rng.random(), side="right")
                          for s, rng in zip(sensors, s_rngs)])
    for t0 in range(0, horizon, _CHUNK):
        size = min(_CHUNK, horizon - t0)
        u, ages = u_buf[:, :size], age_buf[:, : size + 1]
        for rng, row in zip(s_rngs, u):
            rng.random(out=row)
        _true_ages(q, m, start, u, ages)
        start = ages[:, -1].copy()
        slots, who = polls(t0, ages[:, :-1], obs, last, p_rng)
        seen = ages[who, slots - t0]
        # group the polls by sensor, keeping slot order, so that each reads
        # the poll before it; a sensor's first one reads the carried state.
        # Keys of 16 bits or fewer take numpy's stable radix sort.
        order = np.argsort(who.astype(np.min_scalar_type(n)), kind="stable")
        g_who, g_slot, g_seen = who[order], slots[order], seen[order]
        # each polled sensor's slice of the grouped polls, heads to tails
        per = np.bincount(who, minlength=n)
        polled = np.flatnonzero(per)
        tails = per.cumsum()[polled] - 1
        heads = tails + 1 - per[polled]
        prev_obs, prev_last = np.empty_like(g_seen), np.empty_like(g_slot)
        prev_obs[1:], prev_last[1:] = g_seen[:-1], g_slot[:-1]
        prev_obs[heads], prev_last[heads] = obs[polled], last[polled]
        # branch (k, i) of a sensor sits at (k - 1)(m - 1) + i - 1 of its flat table
        mg1 = m[g_who] - 1
        at = (prev_obs - 1) * mg1 + np.minimum(g_slot - prev_last, mg1) - 1
        g_value = np.empty(len(slots))
        for s, a, b in zip(polled.tolist(), heads.tolist(), (tails + 1).tolist()):
            np.take(tables[s], at[a:b], out=g_value[a:b])
        value = np.empty(len(slots))
        value[order] = g_value
        obs[polled], last[polled] = g_seen[tails], g_slot[tails]
        lo = int(np.searchsorted(slots, burn))
        # summed in poll order: a pairwise sum would round differently
        exp_sum = float(np.add.accumulate(np.concatenate(([exp_sum], value[lo:])))[-1])
        counts += np.bincount(who[lo:], minlength=n)
        bidx = (slots[lo:] - burn) * nb // mlen
        b_obs += np.bincount(bidx, weights=seen[lo:], minlength=nb)
        b_cnt += np.bincount(bidx, minlength=nb)
    # observed ages are integers, so their float sum is exact
    nsamp, obs_sum = int(counts.sum()), float(b_obs.sum())
    return SimResult(
        j_realized=obs_sum / nsamp if nsamp else math.nan,
        j_expected=exp_sum / nsamp if nsamp else math.nan,
        samples_per_slot=nsamp / mlen,
        per_sensor_samples=tuple(counts.tolist()),
        batch_means=tuple(o / c for o, c in zip(b_obs.tolist(), b_cnt.tolist()) if c),
        slots=horizon,
        seed=seed,
    )


def run_greedy(sensors: list[ChainParams], horizon: int, seed: int) -> SimResult:
    """Each slot polls the sensor with the smallest branch mean, lowest index on ties."""
    # per sensor, its table rows as lists, each converted the first time
    # the run reaches it and padded to the fleet's widest row, so one
    # bound clamps every read; each row's first entry (the mean one slot
    # after a poll) and its minimum, which floors the sensor until its
    # next poll
    tables, top = [_table_cached(s) for s in sensors], max(s.m for s in sensors) - 2
    tabs = [_Rows(t, top + 1) for t in tables]
    firsts, mins = [t[:, 0].tolist() for t in tables], [t.min(axis=1).tolist() for t in tables]
    order = range(len(sensors))

    def polls(t0, ages, obs, last, p_rng):
        # each sensor's current row and floor, and the chunk offset of the
        # slot after its last poll, where the row's first entry (i = 1)
        # applies; a poll that sees age a moves the sensor to row a - 1
        rows = [tab[o - 1] for tab, o in zip(tabs, obs.tolist())]
        floors = [mn[o - 1] for mn, o in zip(mins, obs.tolist())]
        at, seen, size = (last + 1 - t0).tolist(), (ages - 1).tolist(), ages.shape[1]
        who, ends, j = [], [0], 0
        while j < size:
            best, bv = 0, math.inf
            for s in order:
                if floors[s] < bv:  # else its mean cannot be below bv
                    d = j - at[s]
                    v = rows[s][d if d < top else top]
                    if v < bv:
                        best, bv = s, v
            # while the winner's next mean is below every other floor, it is
            # the unique minimum and polls again without a scan
            floors[best] = math.inf
            lb, first, sb = min(floors), firsts[best], seen[best]
            j += 1
            while j < size and first[sb[j - 1]] < lb:
                j += 1
            who.append(best)
            ends.append(j)
            rows[best], at[best], floors[best] = tabs[best][sb[j - 1]], j, mins[best][sb[j - 1]]
        return np.arange(t0, t0 + size), np.repeat(who, np.diff(ends))

    return _simulate(sensors, horizon, seed, polls)


class _Rows(dict):
    """Rows of one branch-mean table as lists, converted on first use and
    padded to width entries by repeating their last (saturated) one."""

    def __init__(self, table: np.ndarray, width: int):
        self.table, self.pad = table, width - table.shape[1]

    def __missing__(self, k: int) -> list[float]:
        row = self.table[k].tolist()
        row = self[k] = row + row[-1:] * self.pad
        return row


def run_random(sensors: list[ChainParams], horizon: int, seed: int) -> SimResult:
    """Each slot polls one sensor chosen uniformly at random."""

    def polls(t0, ages, obs, last, p_rng):
        return np.arange(t0, t0 + ages.shape[1]), p_rng.integers(0, len(sensors), ages.shape[1])

    return _simulate(sensors, horizon, seed, polls)


def run_relaxed(sensors: list[ChainParams], eta: float, horizon: int, seed: int) -> SimResult:
    """Each slot polls every sensor whose branch mean is below eta.

    The poll count per slot floats, and the per-poll estimates line up
    with the tuned-cutoff analysis. Each sensor is a threshold process: a
    poll that sees age k is followed by the next one gamma_k slots later
    (gamma_scan), or by none when the branch never drops below eta.
    """
    # an abandoned branch puts the next poll past the horizon
    gaps = [np.minimum(gamma_scan(s, eta).gamma, horizon).astype(np.int64) for s in sensors]
    # the stationary branch stays put until a poll, so a sensor whose
    # stationary mean is not below eta is never polled
    due = [0 if _table_cached(s)[-1, -1] < eta else horizon for s in sensors]

    def polls(t0, ages, obs, last, p_rng):
        offsets, paths = np.arange(ages.shape[1]), []
        for s, gap in enumerate(gaps):
            # chunk offsets of the chain j -> j + gamma[age(j) - 1]
            path, nxt = _chain(offsets + gap[ages[s] - 1], due[s] - t0)
            paths.append(path)
            due[s] = t0 + nxt
        slots = t0 + np.concatenate(paths)
        who = np.repeat(np.arange(len(gaps)), [len(path) for path in paths])
        order = np.argsort(slots, kind="stable")  # sensor runs stay in sensor order
        return slots[order], who[order]

    return _simulate(sensors, horizon, seed, polls)


def _chain(nxt: np.ndarray, start: int) -> tuple[np.ndarray, int]:
    """The chain start -> nxt[start] -> ... while below len(nxt), and its next node.

    nxt must step strictly upward. Pointer doubling: after r rounds path
    holds the chain's first 2**r nodes and jump maps a node to the one
    2**r steps on, with len(nxt) standing for every node past the end.
    The next node is the unclamped nxt of the last one, or start itself
    when start is already past the end.
    """
    size = len(nxt)
    if start >= size:
        return np.empty(0, dtype=np.int64), start
    jump, path = np.concatenate([np.minimum(nxt, size), [size]]), np.array([start])
    while True:
        path = np.concatenate([path, jump[path]])
        if path[-1] == size:
            break
        jump = jump[jump]
    path = path[: np.searchsorted(path, size)]
    return path, int(nxt[path[-1]])
