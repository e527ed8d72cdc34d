"""Scenario configs, fleet generation, sweep harness, and CSV round trips."""
import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest
from scipy import stats
from scipy.special import stdtrit

from aoi_bandit import (
    COLUMNS,
    MAX_CAP,
    ChainParams,
    ConfigError,
    ScenarioConfig,
    gen_sensors,
    load_config,
    read_csv,
    run_random,
    run_scenario,
    trial_fleet,
    write_csv,
)
from aoi_bandit import experiments

GOOD = {
    "kind": "asym_uniform",
    "n": 2,
    "sweep": [0.3, 0.6],
    "trials": 2,
    "horizon": 2000,
    "m": 8,
    "seed": 5,
}


def test_load_config_from_dict_and_file(tmp_path):
    from_dict = load_config(GOOD)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(GOOD))
    assert load_config(path) == from_dict
    assert from_dict.sweep == (0.3, 0.6)
    assert from_dict.m == 8


def test_load_config_defaults():
    payload = {k: v for k, v in GOOD.items() if k not in ("m", "seed")}
    payload["horizon"] = 2000
    config = load_config(payload)
    assert config.m == 100
    assert config.seed == 0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra=1),
        lambda d: d.pop("kind"),
        lambda d: d.update(kind="round_robin"),
        lambda d: d.update(sweep="0.3"),
        lambda d: d.update(sweep=[]),
        lambda d: d.update(sweep=[float("inf")]),
        lambda d: d.update(trials=0),
        lambda d: d.update(n=0),
        lambda d: d.update(m=1),
        lambda d: d.update(horizon=80),
        lambda d: d.update(seed=-1),
        lambda d: d.update(sweep=["abc"]),
        lambda d: d.update(sweep=[None]),
        lambda d: d.update(sweep=[[0.3]]),
        lambda d: d.update(sweep=["0.3"]),
        lambda d: d.update(sweep=[True]),
        lambda d: d.update(sweep=[10**400]),
        lambda d: d.update(n=True),
        lambda d: d.update(trials=True),
        lambda d: d.update(seed=True),
        lambda d: d.update(m=True),
        lambda d: d.update(horizon=True),
        lambda d: d.update(n=2.0),
    ],
)
def test_load_config_rejects(mutate):
    payload = dict(GOOD)
    mutate(payload)
    with pytest.raises(ConfigError):
        load_config(payload)


def test_load_config_stores_the_sweep_as_floats():
    config = load_config(dict(GOOD, sweep=[0, 0.5]))
    assert config.sweep == (0.0, 0.5)
    assert all(type(x) is float for x in config.sweep)


@pytest.mark.parametrize("m", [2, 3, 100])
def test_config_and_engine_share_the_burn_in(m):
    # the shortest horizon a config accepts is the shortest the engine runs
    first = 10 * m + 1
    config = load_config(dict(GOOD, kind="symmetric", sweep=[0.5], horizon=first, m=m))
    sensors = trial_fleet(config)
    assert run_random(sensors, first, 0).j_realized >= 1.0
    with pytest.raises(ConfigError, match="burn-in"):
        load_config(dict(GOOD, kind="symmetric", sweep=[0.5], horizon=first - 1, m=m))
    with pytest.raises(ValueError, match="burn-in"):
        run_random(sensors, first - 1, 0)


def test_config_deterministic_constraints():
    base = dict(GOOD, kind="asym_deterministic", trials=1)
    load_config(base)  # fine
    with pytest.raises(ConfigError):
        load_config(dict(base, trials=3))
    with pytest.raises(ConfigError):
        load_config(dict(base, n=1))


# sweep points outside gen_sensors' range rule, each after a good point
BAD_POINTS = [
    ("asym_uniform", [0.4, 1.2], "uniform spread width must be in [0, 1), got 1.2"),
    ("symmetric", [0.5, 1.0], "symmetric at x=1.0: failure probability"),
    ("asym_gaussian", [0.1, -0.2], "gaussian spread width must be in [0, 1], got -0.2"),
    # width 1 loads; past it the redraw into (0, 1) slows linearly, and never ends at 1e300
    ("asym_gaussian", [1.0, math.nextafter(1.0, 2.0)], "in [0, 1], got 1.0000000000000002"),
    ("asym_gaussian", [1.0, 1e300], "gaussian spread width must be in [0, 1], got 1e+300"),
    ("asym_deterministic", [0.5, 1.0], "asym_deterministic at x=1.0: failure probability"),
    ("asym_deterministic", [0.5, -1.5], "asym_deterministic at x=-1.5: failure probability"),
]


@pytest.mark.parametrize(
    "kind, sweep, message",
    BAD_POINTS,
    ids=[
        "uniform-1.2", "symmetric-1.0", "gaussian-neg", "gaussian-past-1", "gaussian-1e300",
        "deterministic-1.0", "deterministic-neg",
    ],
)
def test_load_config_applies_the_range_rule_to_every_point(kind, sweep, message):
    payload = dict(GOOD, kind=kind, sweep=sweep, trials=1)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(payload)
    # the same error gen_sensors raises when it meets the point
    config = load_config(dict(payload, sweep=sweep[:1]))
    with pytest.raises(ConfigError) as raised:
        gen_sensors(config, sweep[1], np.random.default_rng(0))
    assert message in str(raised.value)


@pytest.mark.parametrize("kind", ["symmetric", "asym_deterministic"])
def test_load_config_checks_a_point_without_its_fleet(monkeypatch, kind):
    # a million sensors a point: the check makes at most two ChainParams per
    # point, the ends of its fleet, and builds no fleet
    made = []
    check = ChainParams.__post_init__
    monkeypatch.setattr(ChainParams, "__post_init__", lambda s: check(s) or made.append(s.p))
    sweep = [0.2, 0.5, 0.9]
    load_config(dict(GOOD, kind=kind, n=10**6, sweep=sweep, trials=1))

    def ends(x):  # the p of the first and the last sensor
        return (x, x) if kind == "symmetric" else (0.5 - x / 2, 0.5 + x / 2)

    assert made == pytest.approx([p for x in sweep for p in ends(x)])


def test_load_config_refuses_a_cap_past_the_supported_maximum():
    # the edge, checked at load; a drawn spread builds no table there
    assert load_config(dict(GOOD, m=MAX_CAP, horizon=10 * MAX_CAP + 1)).m == MAX_CAP
    with pytest.raises(ConfigError, match=f"age cap {MAX_CAP + 1} exceeds the supported maximum"):
        load_config(dict(GOOD, m=MAX_CAP + 1, horizon=10 * MAX_CAP + 11))


def test_missing_config_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/scenario.json")


def test_bad_json_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(path)
    for text in (b"\xff\xfe{}", b"[" * 100_000, b'{"n": 1' + b"0" * 5000 + b"}"):
        path.write_bytes(text)  # not UTF-8, nested too deep, an integer too long to read
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


def _config(**overrides):
    return load_config(dict(GOOD, **overrides))


def test_gen_symmetric():
    config = _config(kind="symmetric", n=3, trials=1)
    fleet = gen_sensors(config, 0.7, np.random.default_rng(0))
    assert [s.p for s in fleet] == [0.7] * 3
    assert all(s.m == 8 for s in fleet)


def test_gen_deterministic_spread():
    config = _config(kind="asym_deterministic", n=4, trials=1)
    fleet = gen_sensors(config, 0.6, np.random.default_rng(0))
    assert [s.p for s in fleet] == pytest.approx([0.2, 0.4, 0.6, 0.8], abs=1e-12)
    with pytest.raises(ConfigError):
        gen_sensors(config, 1.4, np.random.default_rng(0))


def test_gen_uniform_spread():
    config = _config(kind="asym_uniform", n=50)
    fleet = gen_sensors(config, 0.8, np.random.default_rng(3))
    for s in fleet:
        assert 0.1 <= s.p <= 0.9
    with pytest.raises(ConfigError):
        gen_sensors(config, 1.0, np.random.default_rng(3))


def test_gen_gaussian_spread():
    config = _config(kind="asym_gaussian", n=200)
    fleet = gen_sensors(config, 0.4, np.random.default_rng(4))
    for s in fleet:
        assert 0.0 < s.p < 1.0
    tight = gen_sensors(config, 0.0, np.random.default_rng(4))
    assert all(s.p == 0.5 for s in tight)
    with pytest.raises(ConfigError):
        gen_sensors(config, -0.1, np.random.default_rng(4))


def test_trial_fleet_is_stable():
    config = _config()
    a = trial_fleet(config, x_idx=1, trial=0)
    b = trial_fleet(config, x_idx=1, trial=0)
    assert [s.p for s in a] == [s.p for s in b]
    c = trial_fleet(config, x_idx=1, trial=1)
    assert [s.p for s in a] != [s.p for s in c]
    with pytest.raises(ConfigError):
        trial_fleet(config, x_idx=2)


def test_trial_fleet_unchanged_by_sweep_growth():
    # extending the sweep must not reshuffle earlier draws
    short = _config()
    long = _config(sweep=[0.3, 0.6, 0.9])
    for x_idx in (0, 1):
        for trial in (0, 1):
            assert [s.p for s in trial_fleet(short, x_idx, trial)] == [
                s.p for s in trial_fleet(long, x_idx, trial)
            ]


def test_run_scenario_shape_and_determinism():
    config = _config()
    rows = run_scenario(config)
    assert [row["x"] for row in rows] == [0.3, 0.6]
    for row in rows:
        assert set(row) == set(COLUMNS)
        assert row["ci_halfwidth"] > 0.0
        # coarse tables quantize the rate, so the winner may overshoot
        # the budget a little; it must still be the closest step to it
        assert abs(row["d_hat"] - 1.0) < 0.2
        assert row["j_relaxed_analytic"] >= 1.0
    again = run_scenario(config)
    assert again == rows


def test_run_scenario_parallel_matches_serial():
    config = _config()
    assert run_scenario(config, jobs=2) == run_scenario(config)


def _record_pool_sizes(monkeypatch, cpus):
    # a fake pool records its size and maps in this process, so no worker
    # process starts; the usable CPU count is fixed, not the host's
    import concurrent.futures

    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    return started


@pytest.mark.parametrize(
    "sweep, trials, jobs, workers",
    [([0.3, 0.6], 2, 8, 4), ([0.3, 0.6], 2, 3, 3), ([0.3], 1, 4, None)],
)
def test_run_scenario_starts_no_idle_worker(monkeypatch, sweep, trials, jobs, workers):
    # a run of one trial in all stays serial
    started = _record_pool_sizes(monkeypatch, cpus=64)
    config = _config(trials=trials, sweep=sweep)
    assert run_scenario(config, jobs=jobs) == run_scenario(config)
    assert started == ([] if workers is None else [workers])


@pytest.mark.parametrize("cpus, jobs, workers", [(2, 8, 2), (3, 8, 3), (1, 4, None)])
def test_run_scenario_starts_no_worker_past_the_cpus(monkeypatch, cpus, jobs, workers):
    # four trials; a single usable CPU keeps the run serial
    started = _record_pool_sizes(monkeypatch, cpus=cpus)
    config = _config(trials=2, sweep=[0.3, 0.6])
    assert run_scenario(config, jobs=jobs) == run_scenario(config)
    assert started == ([] if workers is None else [workers])


def test_usable_cpus_reads_the_affinity_then_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    assert experiments._usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert experiments._usable_cpus() == 16
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert experiments._usable_cpus() == 1


def test_csv_round_trip(tmp_path):
    config = _config()
    path = tmp_path / "rows.csv"
    rows = run_scenario(config)
    with open(path, "w", newline="") as fh:
        write_csv(rows, fh)
    back = read_csv(path)
    assert len(back) == len(rows)
    for row, parsed in zip(rows, back):
        for col in COLUMNS:
            assert parsed[col] == pytest.approx(row[col], rel=1e-8)
    # %.9g output is a fixed point of write/read/write
    twice = tmp_path / "rows2.csv"
    with open(twice, "w", newline="") as fh:
        write_csv(back, fh)
    assert twice.read_bytes() == path.read_bytes()


def test_csv_header_only_when_empty(tmp_path):
    path = tmp_path / "empty.csv"
    with open(path, "w", newline="") as fh:
        write_csv([], fh)
    assert path.read_text().strip() == ",".join(COLUMNS)
    assert read_csv(path) == []


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_csv(path)


@pytest.mark.parametrize("count", [3, 0, len(COLUMNS) + 1], ids=["short", "blank", "long"])
def test_csv_rejects_a_row_of_the_wrong_length(tmp_path, count):
    # line 3 of the file, between two good rows; zero fields is a blank line
    path = tmp_path / "rows.csv"
    good = ",".join(["1"] * len(COLUMNS))
    path.write_text("\n".join([",".join(COLUMNS), good, ",".join(["1"] * count), good]) + "\n")
    with pytest.raises(ConfigError) as raised:
        read_csv(path)
    assert str(raised.value) == f"{path} line 3 has {count} fields, not {len(COLUMNS)}"


def test_failed_trials_flag_the_row(tmp_path, monkeypatch, capsys):
    import aoi_bandit.experiments as exp

    def boom(sensors):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(exp, "solve_eta", boom)
    rows = run_scenario(_config())
    err = capsys.readouterr().err
    assert "trials failed" in err
    assert "forced failure" in err
    for row in rows:
        assert math.isnan(row["j_relaxed_analytic"])
        assert math.isnan(row["ci_halfwidth"])
    # flagged rows still serialize and parse
    path = tmp_path / "flagged.csv"
    with open(path, "w", newline="") as fh:
        write_csv(rows, fh)
    parsed = read_csv(path)
    assert math.isnan(parsed[0]["j_greedy_sim"])


def test_each_failed_trial_is_named(monkeypatch, capsys):
    config = _config(trials=3)
    doomed = {(0, 1), (1, 0), (1, 2)}
    fleets = {tuple(s.p for s in trial_fleet(config, i, t)): (i, t) for i, t in doomed}
    real = experiments.solve_eta

    def flaky(sensors):
        key = tuple(s.p for s in sensors)
        if key in fleets:
            raise RuntimeError(f"forced failure at {fleets[key]}")
        return real(sensors)

    monkeypatch.setattr(experiments, "solve_eta", flaky)
    rows = run_scenario(config)
    err = capsys.readouterr().err
    for i, x in enumerate(config.sweep):
        for t in range(config.trials):
            full = f"x={x} trial {t}: RuntimeError: forced failure at ({i}, {t})"
            assert (full in err) == (f"x={x} trial {t}:" in err) == ((i, t) in doomed)
    # the good trials of every row still fill it
    for row in rows:
        assert all(math.isfinite(row[c]) for c in COLUMNS[:-1])


def test_nan_column_makes_the_interval_nan():
    # a simulated column without a value has no interval, so the row's
    # widest interval is unknown rather than that of the other columns
    filled = {c: 1.0 for c in COLUMNS[1:-1]}
    trials = [
        dict(filled, j_random_sim=1.5, j_greedy_sim=2.0, ci_trial=0.1),
        dict(filled, j_relaxed_sim=math.nan, ci_trial=0.1),
    ]
    row = experiments._aggregate(0.3, trials)
    assert math.isnan(row["j_relaxed_sim"])
    assert math.isnan(row["ci_halfwidth"])


@pytest.mark.parametrize("short", ["run_random", "run_relaxed", "run_greedy"])
def test_one_trial_interval_is_nan_without_batches(monkeypatch, short):
    # a single trial takes its interval from the batch means of its three
    # runs; one run with fewer than two batches leaves it unknown,
    # whichever run that is
    real = getattr(experiments, short)

    def one_batch(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, batch_means=res.batch_means[:1])

    monkeypatch.setattr(experiments, short, one_batch)
    rows = run_scenario(_config(trials=1))
    for row in rows:
        assert math.isfinite(row["j_relaxed_sim"])
        assert math.isnan(row["ci_halfwidth"])


def test_t_quantile_matches_scipy_stats():
    for df in range(1, 201):
        assert experiments._t_quantile(df) == stats.t.ppf(0.5 + experiments._CONF / 2.0, df)


def test_t_table_is_stdtrit():
    # the committed quantiles, and the fallback past them, are stdtrit's bits
    for df, value in enumerate(experiments._T975, start=1):
        assert value == stdtrit(df, 0.975)
    for df in (65, 200, 1000):
        assert experiments._t_quantile(df) == stdtrit(df, 0.975)
