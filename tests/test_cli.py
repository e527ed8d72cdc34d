"""Command line entry points: exit codes, output shapes, seeding."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aoi_bandit
from aoi_bandit import COLUMNS, read_csv
from aoi_bandit.cli import main

CONFIG = {
    "kind": "asym_uniform",
    "n": 2,
    "sweep": [0.4, 0.7],
    "trials": 1,
    "horizon": 1500,
    "m": 8,
    "seed": 3,
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(CONFIG))
    return path


def test_run_to_stdout(config_path, capsys):
    assert main(["run", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 3


def test_run_to_stdout_writes_the_file_bytes(config_path, tmp_path, capsysbinary):
    # one writer for both: the CSV's CRLF line ends reach stdout too
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert main(["run", "--config", str(config_path)]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_run_to_file_and_rerun_identical(config_path, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["run", "--config", str(config_path), "--out", str(a)]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = read_csv(a)
    assert [row["x"] for row in rows] == [0.4, 0.7]


def test_run_jobs_match_serial(config_path, tmp_path):
    a = tmp_path / "serial.csv"
    b = tmp_path / "parallel.csv"
    assert main(["run", "--config", str(config_path), "--out", str(a)]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(b), "--jobs", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_nonpositive_jobs_exits_2(config_path, tmp_path, jobs, capsys):
    out = tmp_path / "never.csv"
    assert main(["run", "--config", str(config_path), "--out", str(out), "--jobs", jobs]) == 2
    assert "jobs must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_run_seed_override_changes_output(config_path, tmp_path):
    base = tmp_path / "base.csv"
    flag = tmp_path / "flag.csv"
    assert main(["run", "--config", str(config_path), "--out", str(base)]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(flag), "--seed", "9"]) == 0
    assert base.read_bytes() != flag.read_bytes()


def test_run_negative_seed_exits_2_before_any_trial(config_path, monkeypatch, capsys):
    # the config refuses the overridden seed as it refuses one in the file
    calls = []
    monkeypatch.setattr(aoi_bandit.experiments, "_run_trial", lambda *args: calls.append(args))
    assert main(["run", "--config", str(config_path), "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be a nonnegative integer, got -1\n"
    assert captured.out == ""
    assert calls == []


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "gone.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(CONFIG, kind="nope")))
    assert main(["run", "--config", str(path)]) == 2
    assert "unknown kind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"sweep": ["abc"]}, "sweep points must be finite numbers, got 'abc'"),
        ({"sweep": [None]}, "sweep points must be finite numbers, got None"),
        ({"sweep": [[0.3]]}, "sweep points must be finite numbers, got [0.3]"),
        ({"sweep": ["0.3"]}, "sweep points must be finite numbers, got '0.3'"),
        ({"sweep": [True]}, "sweep points must be finite numbers, got True"),
        ({"n": True}, "fleet size must be a positive integer, got True"),
        ({"trials": True}, "trials must be a positive integer, got True"),
        ({"seed": True}, "seed must be a nonnegative integer, got True"),
    ],
)
def test_mistyped_config_exits_2_on_one_line(tmp_path, capsys, bad, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(CONFIG, **bad)))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    # one line, no traceback
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "bad",
    [
        {"sweep": [0.4, 1.2]},
        {"kind": "symmetric", "sweep": [0.4, 1.0]},
        {"kind": "asym_gaussian", "sweep": [0.1, -0.2]},
        {"kind": "asym_deterministic", "sweep": [0.4, 1.0]},
        {"kind": "asym_gaussian", "sweep": [1.0, math.nextafter(1.0, 2.0)]},
        {"kind": "asym_gaussian", "sweep": [1.0, 1e300]},
    ],
    ids=["uniform", "symmetric", "gaussian", "deterministic", "gaussian-past-1", "gaussian-1e300"],
)
def test_bad_sweep_point_exits_2_before_any_trial(tmp_path, monkeypatch, capsys, bad):
    calls = []
    monkeypatch.setattr(aoi_bandit.experiments, "_run_trial", lambda *args: calls.append(args))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(CONFIG, **bad)))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


@pytest.mark.parametrize("under", ["missing", "file", "directory", "newdir", "newdir-sep"])
def test_unwritable_out_exits_2_before_any_trial(config_path, tmp_path, monkeypatch, capsys, under):
    # a directory under a regular file, a regular file standing where the
    # CSV's directory belongs, a directory given as the CSV, or a directory
    # that does not exist, which the run must not make
    blocker = tmp_path / "plain.txt"
    blocker.write_text("")
    out = {
        "missing": blocker / "sub" / "y.csv",
        "file": blocker / "y.csv",
        "directory": tmp_path / "results",
        "newdir": tmp_path / "newdir" / "y.csv",
        "newdir-sep": str(tmp_path / "newdir") + os.sep,
    }[under]
    if under == "directory":
        out.mkdir()
    calls = []
    monkeypatch.setattr(aoi_bandit.experiments, "_run_trial", lambda *args: calls.append(args))
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert calls == []
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(
        ["plain.txt", "scenario.json"] + (["results"] if under == "directory" else [])
    )


def test_lb_output(capsys):
    assert main(["lb", "--p", "0.5", "0.5", "0.5", "0.5"]) == 0
    out = capsys.readouterr().out
    fields = dict(part.split("=") for part in out.split())
    assert fields["l_star"] == "1"
    assert float(fields["omega_star"]) == pytest.approx(0.5)
    assert float(fields["value"]) == pytest.approx(1.0)


def test_lb_explicit_fleet(capsys):
    assert main(["lb", "--p", "0.3", "0.8", "--m", "50"]) == 0
    assert "value=" in capsys.readouterr().out


def test_lb_reads_the_age_cap(capsys):
    # at m = 3 the cap binds; a deep cap gives the uncapped value
    assert main(["lb", "--p", "0.95", "0.95", "0.95", "0.95", "--m", "3"]) == 0
    capped = capsys.readouterr().out
    assert "value=2.41\n" in capped
    assert main(["lb", "--p", "0.95", "0.95", "0.95", "0.95", "--m", "100"]) == 0
    deep = capsys.readouterr().out
    assert "value=" in deep and deep != capped


def test_lb_default_age_cap_is_100(capsys):
    assert main(["lb", "--p", "0.95", "0.95", "0.95", "0.95"]) == 0
    default = capsys.readouterr().out
    assert main(["lb", "--p", "0.95", "0.95", "0.95", "0.95", "--m", "100"]) == 0
    assert capsys.readouterr().out == default


def test_solve_eta_from_probs(capsys):
    assert main(["solve-eta", "--p", "0.8", "0.8", "0.8", "0.8", "--m", "100"]) == 0
    out = capsys.readouterr().out
    fields = dict(part.split("=") for part in out.split())
    assert float(fields["eta_star"]) > 1.0
    assert abs(float(fields["d_hat"]) - 1.0) < 0.1
    assert fields["active"] == "0,1,2,3"


def test_solve_eta_default_age_cap_is_100(capsys):
    assert main(["solve-eta", "--p", "0.8", "0.8", "0.8", "0.8"]) == 0
    default = capsys.readouterr().out
    assert main(["solve-eta", "--p", "0.8", "0.8", "0.8", "0.8", "--m", "100"]) == 0
    assert capsys.readouterr().out == default


def test_solve_eta_needs_exactly_one_source(config_path, capsys):
    # --p is the one fleet route; argparse refuses the rest with usage code 2
    for argv in (["solve-eta"], ["solve-eta", "--config", str(config_path), "--p", "0.5"]):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["lb", "--p", "0.5"], ["solve-eta", "--p", "0.5", "0.5"], ["run", "--config"]],
    ids=["lb", "solve-eta", "run"],
)
def test_cap_past_the_supported_maximum_exits_2(tmp_path, capsys, argv):
    # refused before any table is built
    top = aoi_bandit.MAX_CAP
    cap = top + 1
    if argv[0] == "run":
        path = tmp_path / "big.json"
        path.write_text(json.dumps(dict(CONFIG, m=cap, horizon=10 * cap + 1)))
        argv = argv + [str(path)]
    else:
        argv = argv + ["--m", str(cap)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: age cap {cap} exceeds the supported maximum of {top}\n"


def test_bad_probability_exits_2(capsys):
    assert main(["lb", "--p", "1.5"]) == 2


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest: ok" in out
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["lb", "--p", "0.5", "--n", "4"],
        ["solve-eta", "--p", "0.5", "--n", "4"],
        ["selftest", "--seed", "1"],
    ],
    ids=["lb-n", "solve-eta-n", "selftest-seed"],
)
def test_removed_flags_are_usage_errors(argv):
    # a fleet is the list of --p values, and selftest takes no options
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2


def _fresh_python(code: str) -> str:
    # a fresh process, so modules imported by other tests do not count;
    # returns the last line the code printed
    src = str(Path(aoi_bandit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def _loaded_by_cli_import(*modules):
    code = f"import sys, aoi_bandit.cli; print([m for m in {modules!r} if m in sys.modules])"
    return _fresh_python(code)


def test_cli_import_leaves_out_scipy_stats():
    assert _loaded_by_cli_import("scipy.stats") == "[]"


def test_cli_import_leaves_out_scipy():
    # W0 and the tabulated t quantiles need no scipy on the import path
    assert _loaded_by_cli_import("scipy", "scipy.special") == "[]"


def test_cli_import_leaves_out_the_process_pool():
    # only --jobs > 1 needs worker processes; the golden --jobs 2 checks
    # guard what the pool writes
    assert _loaded_by_cli_import("concurrent.futures.process", "multiprocessing") == "[]"


def test_cli_run_imports_no_numpy_or_scipy_module(tmp_path):
    # a module first loaded inside cli.main is paid for by every run, and
    # timed as part of it; the import of aoi_bandit.cli should bring it in
    config = Path(__file__).resolve().parent / "golden" / "asym_uniform_m10.json"
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out.csv")]
    code = (
        "import sys, aoi_bandit.cli as cli\n"
        "before = set(sys.modules)\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(sorted(m for m in set(sys.modules) - before\n"
        "             if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    assert _fresh_python(code) == "[]"
