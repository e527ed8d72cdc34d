"""Monte Carlo engine: exact replay twin, laws, and edge cases."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from aoi_bandit import (
    BranchState,
    ChainParams,
    branch_belief,
    evolve,
    expected_aoi_table,
    random_policy_value,
    run_greedy,
    run_random,
    run_relaxed,
    sensor_rates,
    solve_eta,
    steady_expected_aoi,
    steady_state,
    step_aoi,
)
from aoi_bandit import sim

BATCHES = 20


def _twin(sensors, horizon, seed, policy, eta=None, log=None):
    """Slot-by-slot replica of the engine built from the public pieces.

    Follows the documented contract: one spawned stream per sensor plus
    one for the scheduler, stationary starting ages, decisions made on
    the previous slot's beliefs, polls observing the previous slot's
    age. It draws each stream's whole horizon at once; the engine draws
    it chunk by chunk, which test_twin_replays_across_chunks shows is the
    same.
    """
    n = len(sensors)
    burn = 10 * max(s.m for s in sensors)
    mlen = horizon - burn
    nb = BATCHES if mlen >= BATCHES else 1
    children = np.random.SeedSequence(seed).spawn(n + 1)
    s_rngs = [np.random.default_rng(c) for c in children[:n]]
    p_rng = np.random.default_rng(children[n])
    ages = [int(r.choice(s.m, p=steady_state(s))) + 1 for s, r in zip(sensors, s_rngs)]
    beliefs = [BranchState.stationary(s.m) for s in sensors]
    tables = [expected_aoi_table(s) for s in sensors]
    us = [r.random(horizon) for r in s_rngs]
    picks = p_rng.integers(0, n, horizon).tolist() if policy == "random" else None

    obs_sum = exp_sum = 0.0
    nsamp = 0
    counts = [0] * n
    b_obs = [0.0] * nb
    b_cnt = [0] * nb

    def record(t, s, obs, value):
        nonlocal obs_sum, exp_sum, nsamp
        if t >= burn:
            obs_sum += obs
            exp_sum += value
            nsamp += 1
            counts[s] += 1
            bidx = (t - burn) * nb // mlen
            b_obs[bidx] += obs
            b_cnt[bidx] += 1

    for t in range(horizon):
        values = [tables[s][beliefs[s].k - 1, beliefs[s].i - 1] for s in range(n)]
        if policy == "relaxed":
            polled = [s for s in range(n) if values[s] < eta]
        elif policy == "greedy":
            polled = [min(range(n), key=lambda s: (values[s], s))]
        else:
            polled = [picks[t]]
        observations = {s: ages[s] for s in polled}
        for s in polled:
            record(t, s, observations[s], values[s])
            if log is not None:
                log.append((beliefs[s].k, beliefs[s].i, observations[s]))
        for s in range(n):
            ages[s] = step_aoi(sensors[s], ages[s], us[s][t])
            if s in observations:
                beliefs[s] = evolve(beliefs[s], "sample", observation=observations[s])
            else:
                beliefs[s] = evolve(beliefs[s], "rest")

    return {
        "j_realized": obs_sum / nsamp if nsamp else math.nan,
        "j_expected": exp_sum / nsamp if nsamp else math.nan,
        "samples_per_slot": nsamp / mlen,
        "per_sensor_samples": tuple(counts),
        "batch_means": tuple(o / c for o, c in zip(b_obs, b_cnt) if c),
    }


FLEET = [ChainParams(p=0.6, m=5), ChainParams(p=0.8, m=7)]


def _run(policy, sensors, horizon, seed, eta=None):
    if policy == "greedy":
        return run_greedy(sensors, horizon, seed)
    if policy == "random":
        return run_random(sensors, horizon, seed)
    return run_relaxed(sensors, eta, horizon, seed)


def _compare(result, twin):
    assert result.j_realized == twin["j_realized"]
    assert result.j_expected == twin["j_expected"]
    assert result.samples_per_slot == twin["samples_per_slot"]
    assert result.per_sensor_samples == twin["per_sensor_samples"]
    assert result.batch_means == pytest.approx(twin["batch_means"], abs=1e-12)


@pytest.mark.parametrize(
    "fleet",
    [
        FLEET,
        [ChainParams(p=0.7, m=6)] * 4,
        # every branch mean is 1 + p, so every slot is a three-way tie
        [ChainParams(p=0.5, m=2)] * 3,
        [ChainParams(p=0.8, m=10)],
        [ChainParams(p=0.6, m=5), ChainParams(p=0.9, m=6), ChainParams(p=0.0, m=4)],
        [ChainParams(p=0.6, m=2), ChainParams(p=0.8, m=3), ChainParams(p=0.9, m=8)],
    ],
    ids=["two-sensors", "identical", "m2-ties", "single", "perfect-channel", "mixed-caps"],
)
def test_twin_replays_greedy(fleet):
    _compare(run_greedy(fleet, 2000, seed=5), _twin(fleet, 2000, 5, "greedy"))


def _greedy_oracle(sensors, horizon, seed):
    """Greedy as a full argmin over the fleet every slot, through sim._simulate."""
    tables = [sim._table_cached(s).tolist() for s in sensors]

    def polls(t0, ages, obs, last, p_rng):
        rows = [table[o - 1] for table, o in zip(tables, obs.tolist())]
        at, seen, picks = (last + 1 - t0).tolist(), (ages - 1).tolist(), []
        for j in range(ages.shape[1]):
            values = [row[min(j - a, len(row) - 1)] for row, a in zip(rows, at)]
            best = values.index(min(values))  # the lowest index on ties
            picks.append(best)
            rows[best], at[best] = tables[best][seen[best][j]], j + 1
        return np.arange(t0, t0 + len(picks)), np.array(picks)

    return sim._simulate(sensors, horizon, seed, polls)


def test_greedy_matches_the_per_slot_argmin_on_tied_tables(monkeypatch):
    # branch means drawn from {1, 2, 3} tie everywhere, between sensors and
    # along a row, so a repeat poll that skipped the scan on a tie with
    # another sensor's floor would break the lowest-index rule; natural
    # tables almost never tie and would not show it
    rng = np.random.default_rng(24)
    crafted = {}

    def table(params):
        if params not in crafted:
            crafted[params] = rng.integers(1, 4, (params.m, params.m - 1)).astype(float)
        return crafted[params]

    monkeypatch.setattr(sim, "_table_cached", table)
    for case in range(40):
        fleet = [
            ChainParams(p=float(rng.uniform(0.2, 0.9)), m=int(rng.integers(2, 6)))
            for _ in range(rng.integers(2, 5))
        ]
        assert run_greedy(fleet, 400, case) == _greedy_oracle(fleet, 400, case), case


def test_twin_replays_random():
    _compare(run_random(FLEET, 2000, seed=6), _twin(FLEET, 2000, 6, "random"))


def test_twin_replays_relaxed():
    eta = 3.1
    _compare(run_relaxed(FLEET, eta, 2000, seed=7), _twin(FLEET, 2000, 7, "relaxed", eta=eta))


@pytest.mark.parametrize(
    "policy, eta, seed",
    [("greedy", None, 16), ("random", None, 17), ("relaxed", 3.1, 18)],
    ids=["greedy", "random", "relaxed"],
)
def test_twin_replays_across_chunks(policy, eta, seed):
    # the replays above stay inside one draw chunk; this one crosses two
    # boundaries of the shipped chunk size
    horizon = 2 * sim._CHUNK + 1000
    _compare(_run(policy, FLEET, horizon, seed, eta), _twin(FLEET, horizon, seed, policy, eta=eta))


@pytest.mark.parametrize("policy", ["greedy", "random"])
def test_twin_replays_wide_fleet(policy):
    # more than 255 sensors, so the engine groups polls by uint16 keys;
    # past 65 535 sensors it falls back to uint32 keys (timsort), with the
    # same stable order. Greedy trades polls between sensors 17 and 273,
    # which an 8-bit key would merge into one group, and the age cap of 4
    # leaves a branch unsaturated when it returns to one of them after two
    # slots, so a poll read off the wrong predecessor would show.
    fleet = [ChainParams(p=0.9, m=4)] * 300
    fleet[17] = fleet[273] = ChainParams(p=0.3, m=4)
    _compare(_run(policy, fleet, 300, 20), _twin(fleet, 300, 20, policy))


def _walk(nxt, start):
    # the chain follower as a plain loop: the oracle of sim._chain
    path, j = [], start
    while j < len(nxt):
        path.append(j)
        j = int(nxt[j])
    return path, j


def test_chain_matches_a_plain_walk():
    rng = np.random.default_rng(21)
    for size in range(1, 201):
        # small gaps give long chains, large ones jump past the chunk
        top = int(rng.choice([2, 5, size + 1, 3 * size + 2]))
        nxt = np.arange(size) + rng.integers(1, top, size)
        # a start at or past the end gives an empty path and leaves it due
        for start in {0, int(rng.integers(0, size)), size - 1, size, size + 7}:
            path, due = sim._chain(nxt, start)
            assert (path.tolist(), due) == _walk(nxt, start), (size, start)


# two identical sensors tie on every shared branch; the third has its own
# age cap, so its branch means sit at a different offset of the tables
MIXED = [ChainParams(p=0.6, m=5), ChainParams(p=0.6, m=5), ChainParams(p=0.8, m=7)]


@pytest.mark.parametrize(
    "policy, eta, seed",
    [("greedy", None, 12), ("random", None, 13), ("relaxed", 4.2, 14), ("relaxed", 3.1, 15)],
    ids=["greedy", "random", "relaxed", "relaxed-one-idle"],
)
def test_twin_replays_mixed_fleet(policy, eta, seed):
    result = _run(policy, MIXED, 2000, seed, eta)
    _compare(result, _twin(MIXED, 2000, seed, policy, eta=eta))
    if eta == 3.1:
        # the third sensor's stationary mean is above this cutoff
        assert result.per_sensor_samples[2] == 0 < min(result.per_sensor_samples[:2])


def test_greedy_ties_go_to_the_lowest_index():
    # with a perfect channel every branch mean is 1, so every slot is a
    # three-way tie; the mixed fleet above couples its tied sensors
    # within the burn-in, which hides the tie rule from its estimates
    fleet = [ChainParams(p=0.0, m=4)] * 3
    result = run_greedy(fleet, 1000, seed=2)
    _compare(result, _twin(fleet, 1000, 2, "greedy"))
    assert result.per_sensor_samples == (960, 0, 0)


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_greedy(FLEET, 3000, seed=11),
        # greedy repeats a p = 0.9 sensor about eight slots at a time here,
        # so 27 of the 30 chunk ends fall inside a run of repeat polls
        lambda: run_greedy([ChainParams(p=0.9, m=40)] * 3, 3000, seed=11),
        lambda: run_random(FLEET, 3000, seed=11),
        lambda: run_relaxed(FLEET, 3.1, 3000, seed=11),
    ],
    ids=["greedy", "greedy-long-runs", "random", "relaxed"],
)
def test_chunk_boundaries_change_nothing(monkeypatch, run):
    # an odd draw chunk below the burn-in puts 30 chunk boundaries in the
    # run; true ages, beliefs and cutoff poll times must carry across each
    whole = run()
    monkeypatch.setattr(sim, "_CHUNK", 97)
    assert run() == whole


def test_policies_see_common_true_ages(monkeypatch):
    # true ages come only from each sensor's own stream, so every policy
    # run at one seed builds the same ages, chunk by chunk
    real, chunks = sim._true_ages, []

    def recording(q, m, start, u, ages):
        real(q, m, start, u, ages)
        chunks[-1].append(ages.copy())  # the next chunk reuses the buffer

    monkeypatch.setattr(sim, "_true_ages", recording)
    monkeypatch.setattr(sim, "_CHUNK", 97)
    for run in (run_greedy, run_random, lambda f, h, s: run_relaxed(f, 4.2, h, s)):
        chunks.append([])
        run(MIXED, 2000, 8)
    assert len(chunks[0]) == math.ceil(2000 / 97)
    for other in chunks[1:]:
        assert len(other) == len(chunks[0])
        assert all(np.array_equal(a, b) for a, b in zip(chunks[0], other))


@pytest.mark.parametrize("policy", ["random", "relaxed", "greedy"])
def test_working_set_follows_the_chunk(policy):
    # a run's allocations are bounded by its draw chunk, not its horizon:
    # quadrupling the chunks a run spans leaves its traced peak flat, and
    # the peak stays within 100 bytes per chunk slot-sensor (50-75 measured)
    fleet = [ChainParams(p=0.6, m=100)] * 4
    eta = solve_eta(fleet).eta_star if policy == "relaxed" else None
    _run(policy, fleet, 3 * sim._CHUNK, 1, eta)  # tables and caches built here
    peaks = []
    for chunks in (3, 12):
        tracemalloc.start()
        try:
            _run(policy, fleet, chunks * sim._CHUNK, 1, eta)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks
    assert max(peaks) < 100 * sim._CHUNK * len(fleet), peaks


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_start_ages_are_generator_choice_draws(seed):
    # the engine searches one uniform per sensor in its stationary CDF;
    # Generator.choice(m, p) does the same, so both read one age off each
    # spawned stream and leave it at the same next draw
    fleet = [ChainParams(p=p, m=m) for p in (0.0, 0.05, 0.5, 0.95, 0.999) for m in (2, 3, 100)]
    starts = []

    def polls(t0, ages, obs, last, p_rng):
        if t0 == 0:
            starts.append(ages[:, 0].tolist())
        none = np.empty(0, dtype=np.int64)
        return none, none

    sim._simulate(fleet, 10 * 100 + 1, seed, polls)
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(len(fleet) + 1)]
    assert starts == [[int(r.choice(s.m, p=steady_state(s))) + 1 for s, r in zip(fleet, rngs)]]


def test_runs_are_reproducible():
    a = run_greedy(FLEET, 3000, seed=42)
    b = run_greedy(FLEET, 3000, seed=42)
    assert a == b
    c = run_greedy(FLEET, 3000, seed=43)
    assert a.j_realized != c.j_realized


def test_deterministic_channel_always_fresh():
    fleet = [ChainParams(p=0.0, m=4)] * 3
    for result in (run_greedy(fleet, 1000, 1), run_random(fleet, 1000, 1)):
        assert result.j_realized == 1.0
        assert result.samples_per_slot == 1.0
    wide = run_relaxed(fleet, 2.0, 1000, 1)
    assert wide.j_realized == 1.0
    assert wide.samples_per_slot == 3.0


def test_single_sensor_greedy_is_stationary():
    sensor = ChainParams(p=0.8, m=10)
    result = run_greedy([sensor], 200_000, seed=9)
    assert result.samples_per_slot == 1.0
    assert result.j_realized == pytest.approx(steady_expected_aoi(sensor), rel=0.01)
    assert result.j_realized == pytest.approx(result.j_expected, rel=0.005)


def test_relaxed_cutoff_extremes():
    sensor = ChainParams(p=0.7, m=8)
    top = sensor.q + sensor.m * sensor.p
    every = run_relaxed([sensor] * 2, top + 1.0, 5000, seed=3)
    assert every.samples_per_slot == 2.0
    nothing = run_relaxed([sensor] * 2, 1.0, 5000, seed=3)
    assert nothing.samples_per_slot == 0.0
    assert math.isnan(nothing.j_realized)
    assert math.isnan(nothing.j_expected)
    assert nothing.batch_means == ()
    assert nothing.per_sensor_samples == (0, 0)


def test_relaxed_matches_rate_analysis():
    sensor = ChainParams(p=0.7, m=12)
    hbar = steady_expected_aoi(sensor)
    top = sensor.q + sensor.m * sensor.p
    eta = hbar + 0.5 * (top - hbar)
    rates = sensor_rates(sensor, eta)
    result = run_relaxed([sensor], eta, 300_000, seed=17)
    assert result.samples_per_slot == pytest.approx(rates.d_bar, rel=0.02)
    age_rate = result.j_realized * result.samples_per_slot
    assert age_rate == pytest.approx(rates.r_bar, rel=0.02)
    assert result.j_realized == pytest.approx(result.j_expected, rel=0.01)


def test_random_matches_closed_form():
    fleet = [ChainParams(p=0.4, m=30), ChainParams(p=0.7, m=30), ChainParams(p=0.9, m=30)]
    result = run_random(fleet, 200_000, seed=23)
    assert result.j_realized == pytest.approx(random_policy_value(fleet), rel=0.015)
    assert sum(result.per_sensor_samples) == round(result.samples_per_slot * (200_000 - 300))


def test_batch_means_average_back():
    result = run_greedy(FLEET, 70 + 20 * 500, seed=31)
    assert len(result.batch_means) == BATCHES
    assert float(np.mean(result.batch_means)) == pytest.approx(result.j_realized, abs=1e-9)


def test_observed_age_follows_branch_belief():
    # chi-square on the observation law, conditioned on the branch the
    # scheduler held when it polled; the twin exposes the event log and
    # the replay tests above pin it to the engine
    sensor = ChainParams(p=0.6, m=5)
    hbar = steady_expected_aoi(sensor)
    eta = hbar + 0.35 * (sensor.q + sensor.m * sensor.p - hbar)
    log = []
    _twin([sensor], 120_000, 71, "relaxed", eta=eta, log=log)
    assert len(log) >= 10_000
    by_class = {}
    for k, i, obs in log:
        by_class.setdefault((k, i), []).append(obs)
    tested = 0
    for (k, i), events in by_class.items():
        if len(events) < 5000:
            continue
        want = branch_belief(sensor, BranchState(k=k, i=i, m=sensor.m)) * len(events)
        got = np.bincount(np.array(events) - 1, minlength=sensor.m).astype(float)
        # ages the posterior rules out must never be observed
        zero = want == 0.0
        assert np.all(got[zero] == 0.0), (k, i)
        got, want = got[~zero], want[~zero]
        small = want < 5.0
        if small.any():
            # fold thin cells into the heaviest one to keep the
            # chi-square approximation honest
            got2, want2 = got[~small].copy(), want[~small].copy()
            heavy = int(np.argmax(want2))
            got2[heavy] += got[small].sum()
            want2[heavy] += want[small].sum()
            got, want = got2, want2
        if len(want) < 2:
            continue
        result = stats.chisquare(got, want)
        assert result.pvalue > 0.01, (k, i, result.pvalue)
        tested += 1
    assert tested >= 1


def test_argument_errors():
    with pytest.raises(ValueError):
        run_greedy([], 1000, seed=0)
    with pytest.raises(ValueError):
        run_greedy(FLEET, 70, seed=0)
