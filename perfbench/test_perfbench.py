"""The benchmark's own test: smoke-size runs of the real command.

Run with `python3 -m pytest perfbench`. Each case starts
`perfbench/run.py --smoke`, whose configs take a fraction of a second
per sweep, so a broken harness fails here in about a minute instead
of in a full benchmark run.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7  # not the reference seed, so units and the reference unit differ


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"], proc.stderr
    assert out["failed"] == 0 and out["attempted"] >= 1
    return out


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in spec()[kind]}


def test_declared_workloads_exist():
    sys.path.insert(0, str(HERE))
    from workloads import workloads

    assert {w["name"] for w in spec()["workloads"]} <= set(workloads())


def test_end_to_end_smoke_and_jobs_bytes():
    for name in ("symmetric_long", "hetero_trials", "hetero_trials_jobs2"):
        out = result(bench("--workload", name, "--seed", str(SEED), "--seconds", "1",
                           "--trace", "0", "--smoke"))
        assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("end_to_end")
        assert all(v["value"] > 0 for v in out["metrics"].values())
        # every unit timed the yardstick before, between and after its two timings
        record = json.loads((HERE / "_out" / f"smoke_{name}-seed{SEED}-trace0.json").read_text())
        assert all(len(u["yardstick_s"]) == 3 and min(u["yardstick_s"]) > 0
                   for u in record["units"])
    # --jobs 2 gives the serial bytes at a seed the reference does not pin
    serial = HERE / "_out" / f"smoke_hetero_trials-seed{SEED}.csv"
    parallel = HERE / "_out" / f"smoke_hetero_trials_jobs2-seed{SEED}.csv"
    assert serial.read_bytes() == parallel.read_bytes()


def test_traced_counts_repeat_exactly():
    exact = ("relaxed_solver.sensor_rates_calls", "relaxed_solver.distinct_system_ratio",
             "sim.relaxed_polls_per_slot")
    runs = [result(bench("--workload", "hetero_trials", "--seed", str(SEED), "--seconds", "1",
                         "--trace", "1", "--smoke")) for _ in range(2)]
    assert {k: v["unit"] for k, v in runs[0]["metrics"].items()} == declared("per_layer")
    for name in exact:
        assert runs[0]["metrics"][name]["value"] == runs[1]["metrics"][name]["value"], name
        assert runs[0]["metrics"][name]["value"] > 0, name


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = bench("--workload", "hetero_trials", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_rejects_unknown_workload():
    proc = bench("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
