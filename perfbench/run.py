#!/usr/bin/env python3
"""Benchmark of `aoi-bandit run`, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --workload all --seed N --seconds S [--smoke]

Run it from the repository root. Nothing is installed: the package is
imported from src/. The workloads are in perfbench/workloads.py, and
perfbench/README.md says why each exists and what each metric predicts.

A unit is one fresh Python process (perfbench/child.py) that imports
aoi_bandit.cli and runs `aoi-bandit run` once on the workload config
at --seed. With --trace 0 the benchmark repeats units for --seconds
seconds and reports the medians of the end-to-end metrics. Each time
is scaled by a fixed loop that the unit times just before and after it
(perfbench/yardstick.py), which takes out the host's speed drift. With
--trace 1 it runs one unit, then replays the same trials with spans
in another fresh process, and reports the per-layer metrics.

Every run starts with an untimed unit at the pinned reference seed.
It warms the file cache and the bytecode, and its CSV is checked
against perfbench/reference/. Every unit's CSV must read back through
read_csv with finite rows, and no row may report failed trials.
Trials are the operations; a trial fails when the program reports it
failed or when its unit's output check fails. The environment (CPU
count, BLAS threads, versions, git sha) is printed and stored with
every result in perfbench/_out/. The last stdout line is one JSON
object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import io
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import REFERENCE_SEED, Workload, workloads
from yardstick import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference"
OUT = HERE / "_out"

# a run must end within 180 s; stop starting work this long after launch
DEADLINE_S = 165.0
# fewest timed units a median is taken over, whatever --seconds says
MIN_UNITS = 3
# pinned-seed rows may move this much (relative) against the stored reference
REFERENCE_RTOL = 1e-6

END_TO_END = {
    "sweep_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}
# the end-to-end times, reported at the yardstick's reference speed, and
# the pair of yardstick timings (child.py) that bracket each of them
SCALED = {"setup_s": (0, 1), "sweep_s": (1, 2), "cpu_s": (1, 2)}

PER_LAYER = {
    "relaxed_solver.solve_eta_ms.p50": "ms",
    "relaxed_solver.solve_eta_ms.p90": "ms",
    "relaxed_solver.solve_share": "ratio",
    "relaxed_solver.sensor_rates_calls": "count",
    "relaxed_solver.sensor_rates_us.p50": "us",
    "relaxed_solver.build_system_us.p50": "us",
    "relaxed_solver.affine_solve_us.p50": "us",
    "relaxed_solver.distinct_system_ratio": "ratio",
    "relaxed_solver.self_s": "s",
    "threshold.gamma_analytic_us.p50": "us",
    "threshold.gamma_scan_us.p50": "us",
    "threshold.self_s": "s",
    "belief.table_build_us": "us",
    "sim.random_ns": "ns",
    "sim.relaxed_ns": "ns",
    "sim.greedy_ns": "ns",
    "sim.share": "ratio",
    "sim.relaxed_polls_per_slot": "count",
    "sim.jgap_ci.max": "ratio",
    "sim.self_s": "s",
    "experiments.trial_ms.p50": "ms",
    "experiments.trial_ms.p90": "ms",
    "experiments.parallel_efficiency": "ratio",
    "experiments.self_s": "s",
    "baselines.lower_bound_us": "us",
    "baselines.random_value_us": "us",
    "baselines.self_s": "s",
    "trace.overhead": "ratio",
}

_FAILED_TRIALS = re.compile(r"(\d+)/\d+ trials failed")


def environment() -> dict:
    """What the numbers depend on besides the code: CPUs, BLAS, versions."""
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "cpu_count": os.cpu_count(),
        "openblas_threads": _openblas_threads(numpy),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OPENBLAS_", "OMP_", "MKL_"))},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
    }


def _openblas_threads(numpy) -> int | None:
    # the thread count numpy's bundled OpenBLAS reports; dlopen of the
    # already-loaded library returns the same handle, so this is its state
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _run_child(args: list[str], deadline: float) -> tuple[int | None, str, str]:
    # own session, so a unit past the deadline goes down with its workers
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err + "\nkilled at the run deadline"
    return proc.returncode, out, err


def _last_json(text: str) -> dict | None:
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_csv(path: Path, config: dict, read_csv) -> list[str]:
    """Problems with one sweep CSV: unreadable, wrong rows, non-finite values."""
    try:
        rows = read_csv(path)
    except (OSError, ValueError, StopIteration) as exc:
        return [f"{path.name}: does not read back: {exc}"]
    if len(rows) != len(config["sweep"]):
        return [f"{path.name}: {len(rows)} rows for {len(config['sweep'])} sweep points"]
    problems = []
    for row, x in zip(rows, config["sweep"]):
        if row["x"] != float(format(x, ".9g")):
            problems.append(f"{path.name}: row x={row['x']} where {x} was swept")
        bad = [c for c, v in row.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"{path.name}: row x={row['x']} has non-finite {bad}")
    return problems


def check_reference(path: Path, wl: Workload, read_csv) -> list[str]:
    """Compare the pinned-seed CSV with the stored reference."""
    ref = REFERENCE / f"{wl.reference}.csv"
    if wl.jobs > 1:
        # the reference was written with --jobs 1; --jobs must not change a byte
        if path.read_bytes() != ref.read_bytes():
            return [f"{wl.name}: --jobs {wl.jobs} CSV differs from the serial bytes in {ref.name}"]
        return []
    got, want = read_csv(path), read_csv(ref)
    if len(got) != len(want):
        return [f"{wl.name}: {len(got)} rows against {len(want)} in {ref.name}"]
    problems = []
    for g, w in zip(got, want):
        for col, wv in w.items():
            if not abs(g[col] - wv) <= REFERENCE_RTOL * max(abs(g[col]), abs(wv)):
                problems.append(f"{wl.name}: {col}={g[col]!r} at x={w['x']}, "
                                f"reference {wv!r} (rtol {REFERENCE_RTOL})")
    return problems


class Run:
    """One benchmark run of one workload: units, checks, trial counts."""

    def __init__(self, wl: Workload, seed: int, smoke: bool, read_csv):
        self.wl = wl
        self.seed = seed
        self.read_csv = read_csv
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stderr: list[str] = []
        self.units: list[dict] = []
        self.raw: dict[str, float] = {}
        self.stem = ("smoke_" if smoke else "") + wl.name
        OUT.mkdir(exist_ok=True)
        self.config_path = OUT / f"{self.stem}.json"
        self.config_path.write_text(json.dumps(wl.config))

    def _fail(self, trials: int, problems: list[str]) -> None:
        self.failed += trials
        self.problems.extend(problems)

    def unit(self, seed: int, tag: str) -> tuple[dict | None, bytes | None]:
        """One fresh-process sweep; returns its timings and CSV bytes."""
        out = OUT / f"{self.stem}-{tag}.csv"
        out.unlink(missing_ok=True)
        rc, stdout, stderr = _run_child(
            ["sweep", "--config", str(self.config_path), "--out", str(out),
             "--jobs", str(self.wl.jobs), "--seed", str(seed)], self.deadline)
        self.stderr.append(stderr)
        self.attempted += self.wl.trials
        result = _last_json(stdout)
        if rc != 0 or result is None or result["rc"] != 0:
            self._fail(self.wl.trials, [f"{tag}: exit {rc}: {stderr.strip()[-500:]}"])
            return None, None
        problems = check_csv(out, self.wl.config, self.read_csv)
        if tag == "reference" and not problems:
            problems = check_reference(out, self.wl, self.read_csv)
        reported = sum(int(k) for k in _FAILED_TRIALS.findall(stderr))
        if problems:
            self._fail(self.wl.trials, problems)
        elif reported:
            self._fail(reported, [f"{tag}: {reported} trials reported failed"])
        return result, out.read_bytes()

    def end_to_end(self, seconds: float) -> dict:
        self.unit(REFERENCE_SEED, "reference")
        first_csv = None
        start = time.monotonic()
        while True:
            result, data = self.unit(self.seed, f"seed{self.seed}")
            if result is None:
                break
            self.units.append(result)
            first_csv = first_csv or data
            if data != first_csv:
                self._fail(self.wl.trials, [f"seed {self.seed}: CSV bytes differ between units"])
            elapsed = time.monotonic() - start
            per_unit = elapsed / len(self.units)
            if len(self.units) >= MIN_UNITS and elapsed + per_unit > seconds:
                break
            if time.monotonic() + 1.5 * per_unit > self.deadline:
                print(f"note: {len(self.units)} units fit before the deadline", file=sys.stderr)
                break
        if not self.units:
            return {}
        self.raw = {k: statistics.median(u[k] for u in self.units) for k in END_TO_END}
        scaled = {k: statistics.median(_scaled(u, k, pair) for u in self.units)
                  for k, pair in SCALED.items()}
        return {**self.raw, **scaled}

    def traced(self) -> dict:
        self.unit(REFERENCE_SEED, "reference")
        result, data = self.unit(self.seed, f"seed{self.seed}")
        if result is None:
            return {}
        self.units = [result]
        spans_path = OUT / f"{self.stem}-seed{self.seed}-spans.json"
        rc, stdout, stderr = _run_child(
            ["trace", "--config", str(self.config_path), "--seed", str(self.seed),
             "--spans", str(spans_path)], self.deadline)
        self.stderr.append(stderr)
        self.attempted += self.wl.trials
        replay = _last_json(stdout)
        if rc != 0 or replay is None:
            self._fail(self.wl.trials, [f"traced replay: exit {rc}: {stderr.strip()[-500:]}"])
            return {}
        problems = _compare_replay(replay["rows"], data)
        if replay["gamma_scan_mismatch"]:
            problems.append(f"{replay['gamma_scan_mismatch']} threshold tables differ "
                            "between gamma_analytic and gamma_scan")
        if problems:
            self._fail(self.wl.trials, problems)
        with open(spans_path) as fh:
            spans = json.load(fh)["spans"]
        # the unit's sweep_s at the host speed of the replay, so that the
        # replay-to-unit ratios do not carry the drift between the two
        y_unit, y_replay = result["yardstick_s"], replay["yardstick_s"]
        base_s = result["sweep_s"] * (sum(y_replay) / 2) / ((y_unit[1] + y_unit[2]) / 2)
        return layer_metrics(spans, replay, self.wl, base_s)

    def record(self, trace: int, metrics: dict, env: dict) -> dict:
        table = END_TO_END if trace == 0 else PER_LAYER
        out = {name: {"value": metrics[name], "unit": table[name]}
               for name in table if name in metrics}
        correct = not self.problems and self.failed == 0 and len(out) == len(table)
        record = {
            "workload": self.wl.name, "seed": self.seed, "trace": trace, "env": env,
            "config": self.wl.config, "jobs": self.wl.jobs, "units": self.units,
            "unscaled_medians": self.raw, "yardstick_reference_s": REFERENCE_S,
            "problems": self.problems, "stderr": [s for s in self.stderr if s.strip()],
            "result": {"correct": correct, "attempted": self.attempted,
                       "failed": self.failed, "metrics": out},
        }
        (OUT / f"{self.stem}-seed{self.seed}-trace{trace}.json").write_text(
            json.dumps(record, indent=1))
        return record["result"]


def _scaled(unit: dict, name: str, pair: tuple[int, int]) -> float:
    """A unit's time at the reference speed of the yardstick loop."""
    y = unit["yardstick_s"]
    return unit[name] * REFERENCE_S / ((y[pair[0]] + y[pair[1]]) / 2)


def _compare_replay(rows: list[dict], csv_bytes: bytes) -> list[str]:
    """The replay must reproduce the measured run's trial-mean columns."""
    measured = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    if len(measured) != len(rows):
        return [f"replay has {len(rows)} rows, the measured run {len(measured)}"]
    problems = []
    for got, want in zip(rows, measured):
        for col, value in got.items():
            if value != want[col]:
                problems.append(f"replay {col}={value} at x={want['x']}, measured {want[col]}: "
                                "replay and measured run disagree")
    return problems


def _pct(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = (len(values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], replay: dict, wl: Workload, sweep_s: float) -> dict:
    """Per-layer metrics from the spans and counts of one traced replay."""
    dur: dict[str, list[int]] = defaultdict(list)
    child_ns = [0] * len(spans)
    for sid, parent, name, start, end, _ in spans:
        dur[name].append(end - start)
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = [end - start - child_ns[sid] for sid, _, _, start, end, _ in spans]
    layer_self: dict[str, int] = defaultdict(int)
    for (sid, _, name, _, _, _), own in zip(spans, self_ns):
        layer_self[name.split(".", 1)[0]] += own
    # the self time of a sensor_rates call that built a system is its solve
    built = {parent for _, parent, name, _, _, _ in spans
             if name == "relaxed_solver.build_system"}
    affine_ns = [self_ns[sid] for sid, _, name, _, _, _ in spans
                 if name == "relaxed_solver.sensor_rates" and sid in built]

    trial_ns = dur["experiments.trial"]
    trials_total = sum(trial_ns)
    sim_ns = {p: sum(dur[f"sim.run_{p}"]) for p in ("random", "relaxed", "greedy")}
    slot_sensors = wl.config["horizon"] * wl.config["n"] * len(trial_ns)
    solves = len(dur["relaxed_solver.solve_eta"])
    rate_calls = len(dur["relaxed_solver.sensor_rates"])
    return {
        "relaxed_solver.solve_eta_ms.p50": _pct(dur["relaxed_solver.solve_eta"], 50) / 1e6,
        "relaxed_solver.solve_eta_ms.p90": _pct(dur["relaxed_solver.solve_eta"], 90) / 1e6,
        "relaxed_solver.solve_share": _ratio(sum(dur["relaxed_solver.solve_eta"]), trials_total),
        "relaxed_solver.sensor_rates_calls": _ratio(rate_calls, solves),
        "relaxed_solver.sensor_rates_us.p50": _pct(dur["relaxed_solver.sensor_rates"], 50) / 1e3,
        "relaxed_solver.build_system_us.p50": _pct(dur["relaxed_solver.build_system"], 50) / 1e3,
        "relaxed_solver.affine_solve_us.p50": _pct(affine_ns, 50) / 1e3,
        "relaxed_solver.distinct_system_ratio": _ratio(replay["distinct_systems"], rate_calls),
        "relaxed_solver.self_s": layer_self["relaxed_solver"] / 1e9,
        "threshold.gamma_analytic_us.p50": _pct(dur["threshold.gamma_analytic"], 50) / 1e3,
        "threshold.gamma_scan_us.p50": _pct(replay["gamma_scan_us"], 50),
        "threshold.self_s": layer_self["threshold"] / 1e9,
        "belief.table_build_us": _pct(replay["table_build_us"], 50),
        "sim.random_ns": _ratio(sim_ns["random"], slot_sensors),
        "sim.relaxed_ns": _ratio(sim_ns["relaxed"], slot_sensors),
        "sim.greedy_ns": _ratio(sim_ns["greedy"], slot_sensors),
        "sim.share": _ratio(sum(sim_ns.values()), trials_total),
        "sim.relaxed_polls_per_slot": _ratio(sum(replay["relaxed_polls_per_slot"]),
                                             len(replay["relaxed_polls_per_slot"])),
        "sim.jgap_ci.max": max(replay["jgap_ci"], default=0.0),
        "sim.self_s": layer_self["sim"] / 1e9,
        "experiments.trial_ms.p50": _pct(trial_ns, 50) / 1e6,
        "experiments.trial_ms.p90": _pct(trial_ns, 90) / 1e6,
        "experiments.parallel_efficiency": _ratio(trials_total / 1e9, wl.jobs * sweep_s),
        "experiments.self_s": layer_self["experiments"] / 1e9,
        "baselines.lower_bound_us": _pct(dur["baselines.lower_bound"], 50) / 1e3,
        "baselines.random_value_us": _pct(dur["baselines.random_policy_value"], 50) / 1e3,
        "baselines.self_s": layer_self["baselines"] / 1e9,
        "trace.overhead": _ratio(replay["replay_s"], sweep_s),
    }


def run_one(wl: Workload, seed: int, seconds: float, trace: int, smoke: bool,
            read_csv, env: dict) -> dict:
    run = Run(wl, seed, smoke, read_csv)
    metrics = run.traced() if trace else run.end_to_end(seconds)
    result = run.record(trace, metrics, env)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, entry in result["metrics"].items():
        print(f"{wl.name} {name} = {entry['value']:.6g} {entry['unit']}")
    for name in SCALED:
        if name in run.raw:
            print(f"{wl.name} {name} unscaled = {run.raw[name]:.6g} s (not a metric)")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny configs, for the own test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    table = workloads(args.smoke)
    if args.workload != "all" and args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)} or all")
    if not (SRC / "aoi_bandit" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from aoi_bandit.experiments import read_csv

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    if args.workload != "all":
        result = run_one(table[args.workload], args.seed, args.seconds, args.trace,
                         args.smoke, read_csv, env)
        print(json.dumps(result))
        return 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in table.values():
        for trace in (0, 1):
            result = run_one(wl, args.seed, args.seconds, trace, args.smoke, read_csv, env)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, entry in result["metrics"].items():
                total["metrics"][f"{wl.name}.{name}"] = entry
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
