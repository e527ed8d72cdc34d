"""Fresh-process side of the benchmark.

    python3 perfbench/child.py sweep --config CFG --out CSV --jobs J --seed S
    python3 perfbench/child.py trace --config CFG --seed S --spans FILE

`sweep` times what a user of `aoi-bandit run` waits for: the import of
`aoi_bandit.cli` (set-up) and one `cli.main(["run", ...])` call, with
the CPU time and peak memory of the process and its workers. The
yardstick loop (yardstick.py) is timed right before the import, between
the import and the call, and right after the call, so each timing can
be scaled by the host's speed at that moment.

`trace` replays every trial of the same sweep through public calls,
with a span around each call and around the names `relaxed_solver`
looks up at call time (`sensor_rates`, `gamma_analytic`,
`build_system`). The package source is not edited. Spans stay in
memory and are written to FILE at the end.

Either mode prints one JSON object as its last stdout line. The
environment is passed through untouched: BLAS thread variables are
the user's, never set here.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from yardstick import yardstick_s

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def sweep(args) -> dict:
    sys.path.insert(0, SRC)
    y_before = yardstick_s()
    t0 = time.perf_counter()
    import aoi_bandit.cli as cli

    setup_s = time.perf_counter() - t0
    y_between = yardstick_s()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t1 = time.perf_counter()
    rc = cli.main(["run", "--config", args.config, "--out", args.out,
                   "--jobs", str(args.jobs), "--seed", str(args.seed)])
    sweep_s = time.perf_counter() - t1
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = _cpu_s(self1) - _cpu_s(self0) + _cpu_s(kids1) - _cpu_s(kids0)
    # ru_maxrss is in KiB on Linux; the children figure is the largest worker
    peak_kib = max(self1.ru_maxrss, kids1.ru_maxrss)
    y_after = yardstick_s()
    return {"rc": rc, "setup_s": setup_s, "sweep_s": sweep_s, "cpu_s": cpu_s,
            "peak_rss_mib": peak_kib / 1024.0,
            "yardstick_s": [y_before, y_between, y_after]}


class Tracer:
    """Spans with parent links, kept in memory until the replay ends.

    A span is [id, parent id, name, start ns, end ns, trial]; parent is
    -1 for a root span. Trial numbers every replayed trial in run order.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trial = -1

    def call(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        span = [sid, self.stack[-1] if self.stack else -1, name, 0, 0, self.trial]
        self.spans.append(span)
        self.stack.append(sid)
        span[3] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter_ns()
            self.stack.pop()

    def wrap(self, name: str, fn, record=None):
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if record is not None:
                record(args, out)
            return out

        return traced


def _trial_sim_seeds(seed: int, kind_id: int, x_idx: int, trial: int) -> list[int]:
    # the README's documented derivation: one SeedSequence per
    # (seed, kind, sweep index, trial), streams for the fleet draw and the
    # random, cutoff and greedy simulations in that order
    import numpy as np

    ss = np.random.SeedSequence([seed, kind_id, x_idx, trial])
    return [int(s) for s in ss.generate_state(4, dtype=np.uint64)][1:]


# kind order as the README lists it; the seed derivation uses the position
_KINDS = ("symmetric", "asym_deterministic", "asym_uniform", "asym_gaussian")
# at most this many recorded threshold inputs are re-timed against the scan
_SCAN_SAMPLE = 2000


def trace(args) -> dict:
    sys.path.insert(0, SRC)
    import dataclasses
    import math

    import numpy as np
    from scipy import stats

    import aoi_bandit as ab
    from aoi_bandit import relaxed_solver

    config = dataclasses.replace(ab.load_config(args.config), seed=args.seed)
    tr = Tracer()
    threshold_calls: list[tuple] = []  # (params, eta, gamma) per gamma_analytic call
    relaxed_solver.sensor_rates = tr.wrap("relaxed_solver.sensor_rates",
                                          relaxed_solver.sensor_rates)
    relaxed_solver.build_system = tr.wrap("relaxed_solver.build_system",
                                          relaxed_solver.build_system)
    relaxed_solver.gamma_analytic = tr.wrap(
        "threshold.gamma_analytic", relaxed_solver.gamma_analytic,
        record=lambda a, out: threshold_calls.append((a[0], a[1], out.gamma)))

    kind_id = _KINDS.index(config.kind)
    trial_rows: list[list[dict]] = [[] for _ in config.sweep]
    sims: list = []  # SimResult of every simulation, in run order
    sensors_seen = set()

    def replay_trial(x_idx: int, trial: int) -> None:
        sensors = tr.call("experiments.trial_fleet", ab.trial_fleet, config, x_idx, trial)
        sensors_seen.update(sensors)
        s_rand, s_rel, s_greedy = _trial_sim_seeds(config.seed, kind_id, x_idx, trial)
        sol = tr.call("relaxed_solver.solve_eta", ab.solve_eta, sensors)
        horizon = config.horizon
        r_rand = tr.call("sim.run_random", ab.run_random, sensors, horizon, s_rand)
        r_rel = tr.call("sim.run_relaxed", ab.run_relaxed, sensors, sol.eta_star, horizon, s_rel)
        r_greedy = tr.call("sim.run_greedy", ab.run_greedy, sensors, horizon, s_greedy)
        sims.extend([r_rand, r_rel, r_greedy])
        trial_rows[x_idx].append({
            "lb": tr.call("baselines.lower_bound", ab.lower_bound, sensors).value,
            "j_random_analytic": tr.call("baselines.random_policy_value",
                                         ab.random_policy_value, sensors),
            "j_random_sim": r_rand.j_realized,
            "j_relaxed_analytic": sol.j_value,
            "j_relaxed_sim": r_rel.j_realized,
            "j_greedy_sim": r_greedy.j_realized,
            "eta_star": sol.eta_star,
            "d_hat": sol.d_hat,
        })

    y_before = yardstick_s()
    replay_t0 = time.perf_counter()
    for x_idx in range(len(config.sweep)):
        for trial in range(config.trials):
            tr.trial += 1
            tr.call("experiments.trial", replay_trial, x_idx, trial)
    replay_s = time.perf_counter() - replay_t0
    y_after = yardstick_s()

    # the threshold routes on the inputs the solver asked for, untraced
    step = max(1, len(threshold_calls) // _SCAN_SAMPLE)
    scan_us, scan_mismatch = [], 0
    for params, eta, gamma in threshold_calls[::step]:
        t0 = time.perf_counter_ns()
        got = ab.gamma_scan(params, eta).gamma
        scan_us.append((time.perf_counter_ns() - t0) / 1e3)
        scan_mismatch += got != gamma
    table_us = []
    for params in sorted(sensors_seen, key=lambda s: (s.p, s.m)):
        t0 = time.perf_counter_ns()
        ab.expected_aoi_table(params)
        table_us.append((time.perf_counter_ns() - t0) / 1e3)

    jgap = []
    for res in sims:
        means = res.batch_means
        if len(means) < 2:
            continue
        hw = float(stats.t.ppf(0.975, len(means) - 1) * np.std(means, ddof=1)
                   / math.sqrt(len(means)))
        if hw > 0:
            jgap.append(abs(res.j_realized - res.j_expected) / hw)

    # the CSV columns the replay reproduces exactly: every trial-mean column
    cols = ab.COLUMNS[1:-1]
    rows = [{c: format(float(np.mean([t[c] for t in trials])), ".9g") for c in cols}
            for trials in trial_rows]

    with open(args.spans, "w") as fh:
        json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns", "trial"],
                   "spans": tr.spans}, fh)
    return {
        "replay_s": replay_s,
        "yardstick_s": [y_before, y_after],
        "rows": rows,
        # polls per measured slot of every cutoff-policy run: exact counts
        "relaxed_polls_per_slot": [r.samples_per_slot for r in sims[1::3]],
        "distinct_systems": len({(p, g) for p, _, g in threshold_calls}),
        "gamma_scan_us": scan_us,
        "gamma_scan_mismatch": scan_mismatch,
        "table_build_us": table_us,
        "jgap_ci": jgap,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_sweep = sub.add_parser("sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--jobs", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, required=True)
    p_trace = sub.add_parser("trace")
    p_trace.add_argument("--config", required=True)
    p_trace.add_argument("--seed", type=int, required=True)
    p_trace.add_argument("--spans", required=True)
    args = parser.parse_args(argv)
    result = sweep(args) if args.mode == "sweep" else trace(args)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
