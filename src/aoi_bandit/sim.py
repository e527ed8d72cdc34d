"""Poll-event Monte Carlo of the polling policies.

Timing convention: the decision for a slot is made from the beliefs
held at the end of the previous slot, and a poll returns the sensor's
age as of the end of the previous slot. After the poll lands, every
true age takes its chain step and every belief branch either resets to
(observed age, 1) or ages by one slot.

One engine runs every policy, and a policy only supplies its polls as
(slot, sensor) pairs. A sensor's true age does not depend on the
policy, so the engine builds it per draw chunk in closed form from the
sensor's uniforms. A belief is held as (observed age, slot of the last
poll), so a sensor that is not polled needs no update. Greedy polling
stays slot-sequential; the cutoff policy decouples the sensors into
threshold processes and steps each from poll to poll by its gamma_scan
table; random polling reads its picks per chunk.

True ages start from the stationary distribution and beliefs start at
the no-information branch, so the first 10 * max(age cap) slots are
treated as burn-in and excluded from every estimate.

Estimates are reported per poll: j_realized averages the ages actually
observed, j_expected averages the branch means that drove the
decisions; the two estimate the same quantity and their agreement is a
built-in consistency check. Per-slot rates follow by multiplying with
samples_per_slot. Each run also keeps 20 contiguous batch means of the
observed ages for confidence intervals, since slot samples are
autocorrelated.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .belief import BranchState, _table_cached
from .chain import ChainParams, steady_state
from .threshold import gamma_scan

__all__ = ["SensorWorld", "SimResult", "run_random", "run_greedy", "run_relaxed"]

_CHUNK = 131072
_BATCHES = 20


@dataclass(frozen=True)
class SensorWorld:
    """Joint state snapshot: true ages plus the scheduler's beliefs."""

    sensors: tuple[ChainParams, ...]
    true_aoi: tuple[int, ...]
    beliefs: tuple[BranchState, ...]

    @classmethod
    def steady(cls, sensors: list[ChainParams], rngs: list[np.random.Generator]) -> "SensorWorld":
        """Stationary start: ages drawn from the steady state, beliefs
        at the no-information branch (which equals the steady state)."""
        ages = tuple(
            int(rng.choice(s.m, p=steady_state(s))) + 1 for s, rng in zip(sensors, rngs)
        )
        beliefs = tuple(BranchState.stationary(s.m) for s in sensors)
        return cls(sensors=tuple(sensors), true_aoi=ages, beliefs=beliefs)


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


def _age_path(params: ChainParams, start: int, u: np.ndarray) -> np.ndarray:
    """True ages before each slot of a chunk, plus the age after it.

    The age before slot j is the number of slots since the last delivery
    (u < q) in the chunk, or start + j when there was none, capped at m.
    """
    slots = np.arange(len(u) + 1)
    origin = np.empty(len(u) + 1, dtype=np.int64)
    origin[0] = -start
    origin[1:] = np.where(u < params.q, slots[:-1], -start)
    return np.minimum(slots - np.maximum.accumulate(origin), params.m)


def _simulate(sensors: list[ChainParams], horizon: int, seed: int, polls) -> SimResult:
    """Run one policy from the stationary start and account its polls.

    polls(tables, obs, last, p_rng) returns the policy's polls as
    (slot, sensor) pairs in slot order, sensors ascending within a slot,
    all below horizon. tables[s][k][i] is the mean of branch (k, i) of
    sensor s; obs[s] and last[s] are the age seen at its last poll and
    that poll's slot, so the branch at slot t is
    (obs[s], min(t - last[s], m - 1)). Both lists are updated before the
    policy is asked for its next poll.
    """
    if not sensors:
        raise ValueError("need at least one sensor")
    n = len(sensors)
    burn = 10 * max(s.m for s in sensors)
    if horizon <= burn:
        raise ValueError(f"horizon {horizon} does not clear the burn-in of {burn} slots")
    mlen = horizon - burn
    nb = _BATCHES if mlen >= _BATCHES else 1
    children = np.random.SeedSequence(seed).spawn(n + 1)
    s_rngs = [np.random.default_rng(c) for c in children[:n]]
    p_rng = np.random.default_rng(children[n])
    world = SensorWorld.steady(sensors, s_rngs)
    obs = [b.k for b in world.beliefs]
    last = [-b.i for b in world.beliefs]
    isat = [s.m - 1 for s in sensors]
    tables = []
    for s in sensors:
        padded = np.zeros((s.m + 1, s.m))
        padded[1:, 1:] = _table_cached(s)
        tables.append(padded.tolist())

    obs_sum = exp_sum = 0.0
    nsamp = 0
    counts = [0] * n
    b_obs = [0.0] * nb
    b_cnt = [0] * nb
    # ages[s][t - t0] is the true age of sensor s before slot t of the
    # chunk [t0, end); the last entry starts the next chunk
    ages = [[a] for a in world.true_aoi]
    t0 = end = 0
    for t, s in polls(tables, obs, last, p_rng):
        while t >= end:
            t0, end = end, min(end + _CHUNK, horizon)
            ages = [
                _age_path(sensor, path[-1], rng.random(end - t0)).tolist()
                for sensor, path, rng in zip(sensors, ages, s_rngs)
            ]
        a = ages[s][t - t0]
        d = t - last[s]
        v = tables[s][obs[s]][d if d < isat[s] else isat[s]]
        if t >= burn:
            obs_sum += a
            exp_sum += v
            nsamp += 1
            counts[s] += 1
            bidx = (t - burn) * nb // mlen
            b_obs[bidx] += a
            b_cnt[bidx] += 1
        obs[s] = a
        last[s] = t
    return SimResult(
        j_realized=obs_sum / nsamp if nsamp else math.nan,
        j_expected=exp_sum / nsamp if nsamp else math.nan,
        samples_per_slot=nsamp / mlen,
        per_sensor_samples=tuple(counts),
        batch_means=tuple(o / c for o, c in zip(b_obs, b_cnt) if c),
        slots=horizon,
        seed=seed,
    )


def run_greedy(sensors: list[ChainParams], horizon: int, seed: int) -> SimResult:
    """Each slot polls the sensor with the smallest branch mean
    (lowest index on ties)."""

    def polls(tables, obs, last, p_rng):
        isat = [sensor.m - 1 for sensor in sensors]
        order = range(len(sensors))
        for t in range(horizon):
            best, bv = 0, math.inf
            for s in order:
                d = t - last[s]
                v = tables[s][obs[s]][d if d < isat[s] else isat[s]]
                if v < bv:
                    best, bv = s, v
            yield t, best

    return _simulate(sensors, horizon, seed, polls)


def run_random(sensors: list[ChainParams], horizon: int, seed: int) -> SimResult:
    """Each slot polls one sensor chosen uniformly at random."""

    def polls(tables, obs, last, p_rng):
        for t0 in range(0, horizon, _CHUNK):
            picks = p_rng.integers(0, len(sensors), min(_CHUNK, horizon - t0))
            yield from enumerate(picks.tolist(), t0)

    return _simulate(sensors, horizon, seed, polls)


def run_relaxed(sensors: list[ChainParams], eta: float, horizon: int, seed: int) -> SimResult:
    """Each slot polls every sensor whose branch mean is below eta.

    Sensors decouple under this rule; the poll count per slot floats and
    the per-poll estimates line up with the tuned-cutoff analysis. Each
    sensor is a threshold process: a poll that sees age k is followed by
    the next one gamma_k slots later (gamma_scan), or by none when the
    branch never drops below eta.
    """
    gammas = [gamma_scan(s, eta).gamma for s in sensors]

    def polls(tables, obs, last, p_rng):
        # the stationary branch stays put until a poll, so a sensor whose
        # stationary mean is not below eta is never polled
        due = [(0, s) for s, sensor in enumerate(sensors) if tables[s][sensor.m][-1] < eta]
        while due:
            t, s = due[0]
            yield t, s
            nxt = t + gammas[s][obs[s] - 1]
            if nxt < horizon:
                heapq.heapreplace(due, (nxt, s))
            else:
                heapq.heappop(due)

    return _simulate(sensors, horizon, seed, polls)
