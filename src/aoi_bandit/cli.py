"""Command line front end.

Exit codes: 0 on success, 2 for configuration or usage problems, 3 for
numerical failures (singular systems, self test mismatches). run's --seed
overrides the config's seed, which the config checks; lb and solve-eta take
their fleet as the list of --p values with one --m, and --out names a file
in an existing directory. The CLI reads no environment variable.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .baselines import lower_bound, random_policy_value
from .chain import ChainParams
from .experiments import ConfigError, load_config, run_scenario, write_csv
from .relaxed_solver import SingularSystemError, solve_eta
from .sim import run_random, run_relaxed
from .threshold import gamma_analytic, gamma_scan

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3


def _fleet(args) -> list[ChainParams]:
    try:
        return [ChainParams(p=p, m=args.m) for p in args.p]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out = args.out
    if out is not None:
        # refuse an unwritable path before the sweep, not after it; the
        # probe makes no directory and leaves no new file, so a refused
        # or failed run leaves the tree as it was
        try:
            existed = os.path.exists(out)
            open(out, "a").close()
            if not existed:
                os.remove(out)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from exc
    rows = run_scenario(config, jobs=args.jobs)
    if out is None:
        write_csv(rows, sys.stdout)
    else:
        with open(out, "w", newline="") as fh:
            write_csv(rows, fh)
        print(f"wrote {out} ({len(rows)} rows)")
    return _EXIT_OK


def _cmd_lb(args) -> int:
    res = lower_bound(_fleet(args))
    print(f"l_star={res.l_star}")
    print(f"omega_star={res.omega_star:.9g}")
    print(f"value={res.value:.9g}")
    return _EXIT_OK


def _cmd_solve_eta(args) -> int:
    sol = solve_eta(_fleet(args))
    print(f"eta_star={sol.eta_star:.9g}")
    print(f"d_hat={sol.d_hat:.9g}")
    print(f"j={sol.j_value:.9g}")
    print(f"active={','.join(map(str, sol.active)) if sol.active else '-'}")
    return _EXIT_OK


def _selftest_checks():
    sensors = [ChainParams(p=0.3, m=64), ChainParams(p=0.6, m=64), ChainParams(p=0.8, m=64)]
    for s in sensors:
        for eta in (1.2, 1.9, 2.6, 3.4, 4.4, 6.0):
            a = gamma_analytic(s, eta)
            b = gamma_scan(s, eta)
            if a.gamma != b.gamma:
                yield False, f"cutoff mismatch at p={s.p} eta={eta}: {a.gamma} vs {b.gamma}"
                return
    yield True, "closed-form cutoffs match exhaustive scan"

    sol = solve_eta(sensors)
    if not 0.0 < sol.d_hat <= 1.0 + 1e-9:
        yield False, f"tuned budget usage {sol.d_hat} outside (0, 1]"
        return
    yield True, f"cutoff tuned: eta_star={sol.eta_star:.6g} d_hat={sol.d_hat:.6g}"

    horizon = 120_000
    rel = run_relaxed(sensors, sol.eta_star, horizon, 0)
    if not math.isfinite(rel.j_realized) or abs(rel.j_realized - sol.j_value) > 0.05 * sol.j_value:
        yield False, f"cutoff policy sim {rel.j_realized} vs analytic {sol.j_value}"
        return
    if abs(rel.samples_per_slot - sol.d_hat) > 0.05 * sol.d_hat:
        yield False, f"cutoff policy rate {rel.samples_per_slot} vs analytic {sol.d_hat}"
        return
    yield True, "cutoff policy simulation matches its analysis within 5%"

    rnd = run_random(sensors, horizon, 1)
    jr = random_policy_value(sensors)
    if abs(rnd.j_realized - jr) > 0.05 * jr:
        yield False, f"uniform polling sim {rnd.j_realized} vs analytic {jr}"
        return
    yield True, "uniform polling simulation matches its closed form within 5%"

    lb = lower_bound(sensors).value
    if lb > sol.j_value + 1e-9:
        yield False, f"lower bound {lb} exceeds tuned-cutoff value {sol.j_value}"
        return
    yield True, f"lower bound {lb:.6g} sits below the tuned value {sol.j_value:.6g}"


def _cmd_selftest(args) -> int:
    ok = True
    for passed, msg in _selftest_checks():
        print(f"selftest: {'ok' if passed else 'FAIL'} - {msg}")
        ok = ok and passed
    return _EXIT_OK if ok else _EXIT_NUMERIC


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoi-bandit",
        description="Minimum-age polling over partially observable sensor links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fleet = argparse.ArgumentParser(add_help=False)
    fleet.add_argument("--p", type=float, nargs="+", required=True, help="failure probabilities")
    fleet.add_argument("--m", type=int, default=100, help="age cap (default 100)")

    p_run = sub.add_parser("run", help="run a scenario config and emit the sweep CSV")
    p_run.add_argument("--config", required=True, help="path to a scenario JSON file")
    p_run.add_argument("--out", default=None, help="CSV file in an existing directory")
    p_run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default 1); at most one per trial and per usable CPU",
    )
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(func=_cmd_run)

    p_lb = sub.add_parser("lb", parents=[fleet], help="stationary-fill lower bound")
    p_lb.set_defaults(func=_cmd_lb)

    p_se = sub.add_parser("solve-eta", parents=[fleet], help="tune the cutoff for a fleet")
    p_se.set_defaults(func=_cmd_solve_eta)

    p_st = sub.add_parser("selftest", help="quick end-to-end consistency checks")
    p_st.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (SingularSystemError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
