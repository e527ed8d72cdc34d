"""Workload definitions of the benchmark.

Each workload is one scenario config run through `aoi-bandit run`. The
config's own seed is fixed at 0; the benchmark's `--seed` reaches the
program as the CLI's `--seed`, which overrides it.

Why each workload exists, and which end-to-end metric each per-layer
metric is predicted to move on which workload, is written down in
perfbench/README.md; BENCHMARK.json repeats the one-line reasons.
"""
from __future__ import annotations

from dataclasses import dataclass

# The pinned seed of the stored reference CSVs in perfbench/reference/.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    jobs: int
    # stem of the stored reference CSV, written with --jobs 1; workloads
    # with the same inputs share one
    reference: str

    @property
    def trials(self) -> int:
        return len(self.config["sweep"]) * self.config["trials"]


def _symmetric_long(smoke: bool) -> dict:
    if smoke:
        return {"kind": "symmetric", "n": 2, "sweep": [0.3, 0.9], "trials": 1,
                "horizon": 3_000, "m": 12, "seed": 0}
    return {"kind": "symmetric", "n": 4, "sweep": [0.3, 0.6, 0.9], "trials": 1,
            "horizon": 100_000, "m": 100, "seed": 0}


def _hetero_trials(smoke: bool) -> dict:
    if smoke:
        return {"kind": "asym_gaussian", "n": 3, "sweep": [0.05, 0.15], "trials": 3,
                "horizon": 400, "m": 12, "seed": 0}
    return {"kind": "asym_gaussian", "n": 12, "sweep": [0.05, 0.15], "trials": 10,
            "horizon": 2_000, "m": 100, "seed": 0}


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """All workloads by name; smoke=True shrinks every config to a few slots."""
    prefix = "smoke_" if smoke else ""
    sym = _symmetric_long(smoke)
    het = _hetero_trials(smoke)
    items = [
        Workload("symmetric_long", sym, jobs=1, reference=prefix + "symmetric_long"),
        Workload("hetero_trials", het, jobs=1, reference=prefix + "hetero_trials"),
        # Not listed in BENCHMARK.json: with the default BLAS threads its
        # units of identical work range from 2.6 s to 22 s, so no median is
        # steady. It stays runnable by name for the --jobs defect and checks
        # that --jobs 2 writes the serial bytes.
        Workload("hetero_trials_jobs2", het, jobs=2, reference=prefix + "hetero_trials"),
    ]
    return {w.name: w for w in items}
