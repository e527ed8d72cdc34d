"""Minimum-age polling of partially observable sensor links.

Each sensor's age of information follows a capped renewal chain; the
scheduler only sees the ages it polls, so its knowledge per sensor is a
two-integer belief branch. The package covers the closed-form belief
and threshold analysis, the budget-tuned cutoff policy, a self-timed
lower bound, baselines, and a slot-level simulator with an experiment
harness on top.
"""

from .baselines import (
    LowerBoundResult,
    ProactiveRates,
    lower_bound,
    lower_bound_symmetric,
    proactive_rates,
    random_policy_value,
    random_policy_value_uniform,
)
from .belief import (
    BranchState,
    branch_belief,
    evolve,
    expected_aoi,
    expected_aoi_table,
    steady_expected_aoi,
)
from .chain import ChainParams, build_transition, steady_state, step_aoi
from .experiments import (
    COLUMNS,
    ConfigError,
    ScenarioConfig,
    gen_sensors,
    load_config,
    read_csv,
    run_scenario,
    trial_fleet,
    write_csv,
)
from .relaxed_solver import (
    AbsorbingBranchError,
    EtaSolution,
    PerSensorRates,
    RecurrenceSystem,
    SingularSystemError,
    aoi_rate,
    build_system,
    iterate_recurrence,
    relaxed_performance,
    sampling_rate,
    sensor_rates,
    solve_eta,
)
from .sim import SimResult, run_greedy, run_random, run_relaxed
from .threshold import NEVER, ThresholdTable, gamma_analytic, gamma_scan, lambert_w0

__version__ = "0.1.0"

__all__ = [
    "ChainParams",
    "build_transition",
    "steady_state",
    "step_aoi",
    "BranchState",
    "branch_belief",
    "expected_aoi",
    "expected_aoi_table",
    "steady_expected_aoi",
    "evolve",
    "NEVER",
    "ThresholdTable",
    "lambert_w0",
    "gamma_scan",
    "gamma_analytic",
    "AbsorbingBranchError",
    "SingularSystemError",
    "RecurrenceSystem",
    "build_system",
    "sampling_rate",
    "aoi_rate",
    "iterate_recurrence",
    "PerSensorRates",
    "sensor_rates",
    "EtaSolution",
    "solve_eta",
    "relaxed_performance",
    "ProactiveRates",
    "LowerBoundResult",
    "proactive_rates",
    "lower_bound",
    "lower_bound_symmetric",
    "random_policy_value",
    "random_policy_value_uniform",
    "SimResult",
    "run_random",
    "run_greedy",
    "run_relaxed",
    "ScenarioConfig",
    "ConfigError",
    "load_config",
    "gen_sensors",
    "run_scenario",
    "trial_fleet",
    "write_csv",
    "read_csv",
    "COLUMNS",
    "__version__",
]
