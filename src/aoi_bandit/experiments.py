"""Scenario harness: sweep a fleet parameter, compare policies, emit CSV.

A scenario fixes a fleet construction rule (symmetric or one of three
asymmetric spreads), a fleet size, an age cap, and a sweep over the
spread parameter x. For every sweep point it runs `trials` independent
trials; each trial draws a fleet, computes the analytic quantities
(stationary-fill lower bound, uniform-polling value, tuned cutoff and its
predicted value) and simulates the three policies over `horizon` slots.
Rows are aggregated across trials and written with a fixed column
order so downstream plotting never has to guess.
"""
from __future__ import annotations

import csv
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .baselines import lower_bound, random_policy_value
from .chain import MAX_CAP, ChainParams
from .relaxed_solver import solve_eta
from .sim import run_greedy, run_random, run_relaxed

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "load_config",
    "gen_sensors",
    "trial_fleet",
    "run_scenario",
    "write_csv",
    "read_csv",
    "COLUMNS",
]

COLUMNS = (
    "x",
    "lb",
    "j_random_analytic",
    "j_random_sim",
    "j_relaxed_analytic",
    "j_relaxed_sim",
    "j_greedy_sim",
    "eta_star",
    "d_hat",
    "ci_halfwidth",
)

_KINDS = ("symmetric", "asym_deterministic", "asym_uniform", "asym_gaussian")
_CONF = 0.95


class ConfigError(ValueError):
    """Scenario description is malformed or out of range."""


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    n: int
    sweep: tuple[float, ...]
    trials: int
    horizon: int
    m: int = 100
    seed: int = 0

    def __post_init__(self):
        # the one check of a config's values; bool subclasses int, so an integer must be an int
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}, expected one of {_KINDS}")
        if type(self.n) is not int or self.n < 1:
            raise ConfigError(f"fleet size must be a positive integer, got {self.n!r}")
        if self.kind == "asym_deterministic" and self.n < 2:
            raise ConfigError("the deterministic spread needs at least two sensors")
        if type(self.m) is not int or self.m < 2:
            raise ConfigError(f"age cap must be an integer >= 2, got {self.m!r}")
        if self.m > MAX_CAP:
            raise ConfigError(f"age cap {self.m} exceeds the supported maximum of {MAX_CAP}")
        if not isinstance(self.sweep, (list, tuple)) or not self.sweep:
            raise ConfigError(f"sweep must list at least one number, got {self.sweep!r}")
        for x in self.sweep:
            number = isinstance(x, (int, float)) and not isinstance(x, bool)
            # finite as a float: refuses nan, inf and an int past the float range
            if not number or not abs(x) <= sys.float_info.max:
                raise ConfigError(f"sweep points must be finite numbers, got {x!r}")
        object.__setattr__(self, "sweep", tuple(float(x) for x in self.sweep))
        for x in self.sweep:  # at load, not after the earlier points' trials
            _check_point(self, x)
        if type(self.trials) is not int or self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {self.trials!r}")
        if self.kind == "asym_deterministic" and self.trials != 1:
            raise ConfigError("the deterministic spread draws nothing, use trials = 1")
        if type(self.horizon) is not int or self.horizon <= 10 * self.m:
            raise ConfigError(
                f"horizon must exceed the burn-in of {10 * self.m} slots, got {self.horizon!r}"
            )
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")


def load_config(source) -> ScenarioConfig:
    """Build a ScenarioConfig from a dict or a JSON file path.

    Only the keys are checked here; ScenarioConfig checks every value.
    """
    if isinstance(source, dict):
        raw = dict(source)
    else:
        try:
            with open(source) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, a huge int, deep nesting
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
    schema = fields(ScenarioConfig)
    unknown = set(raw) - {f.name for f in schema}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {f.name for f in schema if f.default is MISSING} - set(raw)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    return ScenarioConfig(**raw)


def _fixed_ps(config: ScenarioConfig, x: float, sensors) -> list[float]:
    # the p of the given sensors (from 1) of a fleet that draws nothing: monotone
    # in i (each step rounds monotonically) and mirrored about 0.5, like [0, 1)
    if config.kind == "symmetric":
        return [x for _ in sensors]
    if config.kind == "asym_deterministic":
        return [0.5 + (i - (config.n + 1) / 2.0) * x / (config.n - 1) for i in sensors]
    return []


def _check_point(config: ScenarioConfig, x: float) -> None:
    # gen_sensors' range rule: a drawn spread's width, or ChainParams' rule on the
    # ends of a fleet that draws nothing, where its first p out of range must lie
    if config.kind == "asym_uniform" and not 0.0 <= x < 1.0:
        raise ConfigError(f"uniform spread width must be in [0, 1), got {x}")
    if config.kind == "asym_gaussian" and not 0.0 <= x <= 1.0:
        # redrawing into (0, 1) takes time linear in x; at x = 1 it is already near uniform
        raise ConfigError(f"gaussian spread width must be in [0, 1], got {x}")
    try:
        for p in _fixed_ps(config, x, (1, config.n)):
            ChainParams(p=p, m=config.m)
    except ValueError as exc:
        raise ConfigError(f"{config.kind} at x={x}: {exc}") from exc


def gen_sensors(config: ScenarioConfig, x: float, draw_rng: np.random.Generator) -> list[ChainParams]:
    """Materialize the fleet for one trial at sweep point x."""
    n = config.n
    _check_point(config, x)
    if config.kind == "asym_uniform":
        ps = draw_rng.uniform(0.5 - x / 2.0, 0.5 + x / 2.0, n)
    elif config.kind == "asym_gaussian":
        ps = draw_rng.normal(0.5, x, n)
        bad = (ps <= 0.0) | (ps >= 1.0)
        while bad.any():
            ps[bad] = draw_rng.normal(0.5, x, int(bad.sum()))
            bad = (ps <= 0.0) | (ps >= 1.0)
    else:
        ps = _fixed_ps(config, x, range(1, n + 1))
    return [ChainParams(p=float(p), m=config.m) for p in ps]


# the two-sided _CONF quantile of Student's t for df = 1..64, written out
# from [float(scipy.special.stdtrit(df, 0.975)) for df in range(1, 65)]
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
)


def _t_quantile(df: int) -> float:
    """Two-sided _CONF quantile of Student's t with df degrees of freedom.

    Up to df = 64 it is read from _T975, which covers the 20 batch means
    of a simulation and sweep points of up to 65 trials, so a run need
    not import scipy; past the table scipy.special.stdtrit is imported
    on first use. Either way the bits are those of
    scipy.stats.t.ppf(0.975, df).
    """
    if 1 <= df <= len(_T975):
        return _T975[df - 1]
    from scipy.special import stdtrit

    return float(stdtrit(df, 0.5 + _CONF / 2.0))


def _halfwidth(values) -> float:
    # _CONF t-interval half-width of the mean; nan below two values
    if len(values) < 2:
        return math.nan
    s = float(np.std(values, ddof=1))
    return _t_quantile(len(values) - 1) * s / math.sqrt(len(values))


def _widest(halfwidths) -> float:
    # unlike the builtin max, a nan half-width (no interval) wins
    return float(np.max(halfwidths))


def _trial_seeds(config: ScenarioConfig, x_idx: int, trial: int) -> list[int]:
    # fleet draw, random, relaxed, greedy: one independent stream each,
    # derived from (seed, kind, sweep index, trial) so additional trials
    # or sweep points never perturb existing ones
    ss = np.random.SeedSequence([config.seed, _KINDS.index(config.kind), x_idx, trial])
    return [int(s) for s in ss.generate_state(4, dtype=np.uint64)]


def trial_fleet(config: ScenarioConfig, x_idx: int = 0, trial: int = 0) -> list[ChainParams]:
    """The exact fleet a given (sweep index, trial) pair would use."""
    if not 0 <= x_idx < len(config.sweep):
        raise ConfigError(f"sweep index {x_idx} out of range")
    draw_seed = _trial_seeds(config, x_idx, trial)[0]
    return gen_sensors(config, config.sweep[x_idx], np.random.default_rng(draw_seed))


def _run_trial(config: ScenarioConfig, x_idx: int, trial: int) -> dict:
    seeds = _trial_seeds(config, x_idx, trial)
    sensors = trial_fleet(config, x_idx, trial)
    sol = solve_eta(sensors)
    r_rand = run_random(sensors, config.horizon, seeds[1])
    r_rel = run_relaxed(sensors, sol.eta_star, config.horizon, seeds[2])
    r_greedy = run_greedy(sensors, config.horizon, seeds[3])
    return {
        "lb": lower_bound(sensors).value,
        "j_random_analytic": random_policy_value(sensors),
        "j_random_sim": r_rand.j_realized,
        "j_relaxed_analytic": sol.j_value,
        "j_relaxed_sim": r_rel.j_realized,
        "j_greedy_sim": r_greedy.j_realized,
        "eta_star": sol.eta_star,
        "d_hat": sol.d_hat,
        "ci_trial": _widest([_halfwidth(r.batch_means) for r in (r_rand, r_rel, r_greedy)]),
    }


def _worker(task) -> dict | str:
    # a trial's results, or the text of its numerical failure, which
    # flags its row instead of dropping the trial
    try:
        return _run_trial(*task)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


_SIM_COLS = ("j_random_sim", "j_relaxed_sim", "j_greedy_sim")


def _aggregate(x: float, results: list[dict | str]) -> dict:
    # one sweep point's _worker results, in trial order
    errors = [(i, r) for i, r in enumerate(results) if isinstance(r, str)]
    good = [r for r in results if not isinstance(r, str)]
    if errors:
        print(
            f"row x={x}: {len(errors)}/{len(results)} trials failed ({errors[0][1]})",
            file=sys.stderr,
        )
        for i, err in errors:
            print(f"  x={x} trial {i}: {err}", file=sys.stderr)
    if not good:
        return dict.fromkeys(COLUMNS, math.nan) | {"x": x}
    row = {"x": x}
    for col in COLUMNS[1:-1]:
        row[col] = float(np.mean([t[col] for t in good]))
    if len(good) > 1:
        row["ci_halfwidth"] = _widest([_halfwidth([t[col] for t in good]) for col in _SIM_COLS])
    else:
        row["ci_halfwidth"] = good[0]["ci_trial"]
    return row


def _usable_cpus() -> int:
    # the CPUs this process may run on, where the platform says so
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_scenario(config: ScenarioConfig, jobs: int = 1) -> list[dict]:
    """Run every (sweep point, trial) pair and aggregate per sweep point.

    Returns one dict per sweep point, keyed by COLUMNS, for write_csv.
    jobs > 1 farms trials out to worker processes, at most one per trial
    and one per usable CPU; jobs < 1 is a ConfigError.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be a positive integer, got {jobs!r}")
    k = config.trials
    tasks = [(config, x_idx, trial) for x_idx in range(len(config.sweep)) for trial in range(k)]
    # a worker without a trial would idle, one without a CPU would wait
    workers = min(jobs, len(tasks), _usable_cpus())
    # both maps hand results back in task order
    if workers > 1:
        # imported here: a serial run need not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_worker, tasks))
    else:
        results = list(map(_worker, tasks))
    return [_aggregate(x, results[i * k : (i + 1) * k]) for i, x in enumerate(config.sweep)]


def write_csv(rows: list[dict], stream) -> None:
    """Write rows as %.9g under the COLUMNS header to an open text stream.

    A file stream should be opened with newline="", as csv asks.
    """
    writer = csv.writer(stream)
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow(format(float(row[c]), ".9g") for c in COLUMNS)


def read_csv(path) -> list[dict]:
    """Read a file written by write_csv back into float-valued rows."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != COLUMNS:
            raise ConfigError(f"unexpected CSV header in {path}: {header}")
        rows = []
        for line in reader:
            if len(line) != len(COLUMNS):
                raise ConfigError(
                    f"{path} line {reader.line_num} has {len(line)} fields, not {len(COLUMNS)}"
                )
            rows.append({c: float(v) for c, v in zip(COLUMNS, line)})
        return rows
