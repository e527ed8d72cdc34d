"""CSV bytes of pinned configs against the files committed in tests/golden.

Each golden/<name>.json config has its expected `aoi-bandit run` output
in golden/<name>.csv: acceptance 10's small uniform fleet, and an m = 100
gaussian fleet whose cutoff search takes the bisected path. A change that
moves an output on purpose regenerates the .csv files and records the
diff in CHANGES.md.
"""
from pathlib import Path

import pytest

from aoi_bandit.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = sorted(GOLDEN.glob("*.json"))


def test_every_config_has_its_csv():
    assert len(CONFIGS) == 2
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == [p.stem for p in CONFIGS]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_run_reproduces_golden_bytes(config, jobs, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(config), "--out", str(out), "--jobs", str(jobs)]) == 0
    assert out.read_bytes() == config.with_suffix(".csv").read_bytes()
