"""CSV bytes of pinned configs against the files committed in tests/golden.

Each golden/<name>.json config has its expected `aoi-bandit run` output
in golden/<name>.csv: acceptance 10's small uniform fleet, an m = 100
gaussian fleet whose cutoff search takes the bisected path, and an m = 3
symmetric fleet where the age cap binds the lower bound and the cutoff
search polls nothing (the relaxed columns are the documented nan). A
change that moves an output on purpose regenerates the .csv files and
records the diff in CHANGES.md.
"""
import sys
from pathlib import Path

import pytest

import aoi_bandit
from aoi_bandit.cli import main

GOLDEN = Path(__file__).parent / "golden"
# eta_solutions.json holds solver reprs, which test_relaxed_solver checks
CONFIGS = sorted(p for p in GOLDEN.glob("*.json") if p.name != "eta_solutions.json")


def test_every_config_has_its_csv():
    assert len(CONFIGS) == 3
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == [p.stem for p in CONFIGS]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_run_reproduces_golden_bytes(config, jobs, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(config), "--out", str(out), "--jobs", str(jobs)]) == 0
    assert out.read_bytes() == config.with_suffix(".csv").read_bytes()


# the paper's closed forms and the slot-by-slot steppers, kept as the
# oracles the tests check the hot path against; a run reaches none of them
ORACLES = {
    "chain": ("build_transition", "step_aoi"),
    "belief": ("BranchState", "branch_belief", "expected_aoi", "evolve"),
    "relaxed_solver": (
        "RecurrenceSystem", "build_system", "sampling_rate", "aoi_rate", "iterate_recurrence",
    ),
    "baselines": ("random_policy_value_uniform",),
}


def test_run_calls_no_oracle(monkeypatch, tmp_path, capsys):
    # each oracle raises under every name the package binds it to; a trial
    # that met one would fail, flag its row and so change the bytes
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "aoi_bandit"]
    for home, names in ORACLES.items():
        for name in names:
            real = getattr(getattr(aoi_bandit, home), name)

            def refuse(*args, _name=name, **kwargs):
                raise AssertionError(f"a run called the oracle {_name}")

            for module in modules:
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, refuse)
    for config in CONFIGS:
        out = tmp_path / f"{config.stem}.csv"
        assert main(["run", "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_bytes() == config.with_suffix(".csv").read_bytes()
