import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fso_isac import allocator, cli
from fso_isac.cli import EXIT_USAGE, SWEEP_COLUMNS, main
from fso_isac.monte_carlo import RmsePoint, RmseReport

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def src_env(**extra):
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_seed_rejected_outside_verify(scenario_dir, command, tmp_path):
    argv = [command, "--seed", "1", "--scenario", str(scenario_dir / "desk.json"),
            "--out", str(tmp_path)]
    if command == "sweep":
        argv += ["--param", "precision_cm", "--values", "12"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert not any(tmp_path.iterdir())


def test_seed_accepted_by_verify(tmp_path):
    # the parser takes --seed; the missing scenario then fails with exit 1
    missing = tmp_path / "missing.json"
    assert main(["verify", "--seed", "1", "--scenario", str(missing),
                 "--out", str(tmp_path)]) == 1


def test_solve_independent_of_blas_threads(scenario_dir, tmp_path):
    procs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = src_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        procs[threads] = subprocess.Popen(
            [sys.executable, "-m", "fso_isac.cli", "solve",
             "--scenario", str(scenario_dir / "desk.json"), "--out", str(out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
    for proc in procs.values():
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
    for name in ("solution.json", "allocation.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_runtime_path_loads_no_scipy(scenario_dir):
    # SciPy is a test dependency only: the CLI and the scenario loader must
    # not import it, nor the process pool that only `sweep --workers` uses
    code = (
        "import sys, fso_isac.cli\n"
        "from fso_isac.scenario import load_scenario\n"
        f"load_scenario({str(scenario_dir / 'desk.json')!r})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "             or m == 'concurrent.futures.process'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def desk_scenario(scenario_dir, tmp_path, **problem):
    """scenarios/desk.json with `problem` entries replaced, written to tmp_path."""
    doc = json.loads((scenario_dir / "desk.json").read_text(encoding="utf-8"))
    doc["problem"].update(problem)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def solve(path, out):
    return main(["solve", "--scenario", str(path), "--out", str(out)])


def sweep_rows(path, out, param, values):
    code = main(["sweep", "--scenario", str(path), "--out", str(out),
                 "--param", param, "--values", ",".join(map(str, values))])
    assert code == 0
    with open(out / "sweep.csv", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == SWEEP_COLUMNS
    assert all(len(r) == len(SWEEP_COLUMNS) for r in rows)
    return [dict(zip(SWEEP_COLUMNS, r)) for r in rows[1:]]


def test_exit_0_desk_solve(scenario_dir, tmp_path):
    assert solve(scenario_dir / "desk.json", tmp_path) == 0
    doc = json.loads((tmp_path / "solution.json").read_text(encoding="utf-8"))
    assert doc["case"] == "C" and doc["converged"]
    assert doc["precision_cm"] <= 12.0 * (1 + 1e-8)


def test_exit_1_unknown_scenario_key(scenario_dir, tmp_path):
    path = desk_scenario(scenario_dir, tmp_path, precision_mm=120.0)
    assert solve(path, tmp_path / "out") == 1
    assert not (tmp_path / "out" / "solution.json").exists()


def test_exit_1_wrong_type_names_line(scenario_dir, tmp_path, capsys):
    doc = json.loads((scenario_dir / "desk.json").read_text(encoding="utf-8"))
    doc["ofdm"]["N"] = "256"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    assert path.read_text(encoding="utf-8").splitlines()[3] == '    "N": "256",'
    assert solve(path, tmp_path / "out") == 1
    assert "'ofdm.N' has wrong type (line 4)" in capsys.readouterr().err
    assert not (tmp_path / "out" / "solution.json").exists()


def test_exit_2_infeasible_floor(scenario_dir, tmp_path):
    assert solve(desk_scenario(scenario_dir, tmp_path, precision_cm=5.0), tmp_path) == 2
    assert not (tmp_path / "solution.json").exists()


def test_exit_3_bcd_cap(scenario_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(allocator, "MAX_OUTER_BCD", 1)
    assert solve(scenario_dir / "desk.json", tmp_path) == 3
    assert not (tmp_path / "solution.json").exists()


def test_exit_4_rmse_gate(scenario_dir, tmp_path, monkeypatch, capsys):
    point = RmsePoint(snr_db=-100.0, trials=1, rmse_m=0.15, crb_m=0.1, ratio=1.5,
                      bias_m=0.0)
    monkeypatch.setattr(cli, "rmse_vs_crb", lambda *args: RmseReport(points=(point,)))
    code = main(["verify", "--scenario", str(scenario_dir / "desk.json"),
                 "--out", str(tmp_path), "--trials", "20"])
    assert code == 4
    err = capsys.readouterr().err
    assert "rmse_crb_ratio=1.500" in err
    assert "verification FAILED: rmse_crb_ratio" in err


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def test_verify_reports_match_golden(scenario_dir, tmp_path):
    # the exact reports of a short desk verify: a change meant only to
    # speed up the Monte Carlo loops must leave them byte for byte; only a
    # deliberate change of the draws, the estimator or the gates may
    # regenerate the files
    assert main(["verify", "--scenario", str(scenario_dir / "desk.json"),
                 "--out", str(tmp_path), "--trials", "40", "--seed", "401"]) == 0
    golden = GOLDEN_DIR / "desk_verify_trials40_seed401"
    for name in ("rmse_report.csv", "clipping_report.csv"):
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


GOLDEN_RUNS = {
    # golden directory: (scenario, extra arguments, files compared)
    "desk_solve": ("desk", ["solve"], ("solution.json", "allocation.csv")),
    "reference_solve": ("reference", ["solve"], ("solution.json", "allocation.csv")),
    "desk_sweep_precision_cm": (
        "desk", ["sweep", "--param", "precision_cm",
                 "--values", "10.1,10.2,10.5,11,12,13.5,14.5,16"], ("sweep.csv",)),
    "desk_sweep_C0_bpshz": (
        "desk", ["sweep", "--param", "C0_bpshz",
                 "--values", "0.1,0.3,0.4,0.5,0.6,0.7,0.8"], ("sweep.csv",)),
    "reference_verify_trials8": (
        "reference", ["verify", "--trials", "8"], ("rmse_report.csv", "clipping_report.csv")),
    # P2: case F with four coupled steps, so the psi_0 rule is pinned too
    "desk_sense_solve": ("desk_sense", ["solve"], ("solution.json", "allocation.csv")),
    "desk_sense_verify_trials40_seed401": (
        "desk_sense", ["verify", "--trials", "40", "--seed", "401"],
        ("rmse_report.csv", "clipping_report.csv")),
}


@pytest.mark.parametrize("name, workers", [
    *(pytest.param(name, [], id=name) for name in sorted(GOLDEN_RUNS)),
    # the pool receives the sweep's shared first bias step as pickled data
    *(pytest.param(name, ["--workers", "2"], id=f"{name}-workers2")
      for name in ("desk_sweep_C0_bpshz", "desk_sweep_precision_cm")),
])
def test_outputs_match_golden(scenario_dir, tmp_path, name, workers):
    # solve, sweep and verify outputs byte for byte: a change that should
    # keep the numbers must leave these files as they are; one that moves
    # a digit regenerates them and names the digits that moved
    scenario, argv, files = GOLDEN_RUNS[name]
    command, *options = argv
    assert main([command, "--scenario", str(scenario_dir / f"{scenario}.json"),
                 "--out", str(tmp_path), *options, *workers]) == 0
    for file in files:
        assert (tmp_path / file).read_bytes() == (GOLDEN_DIR / name / file).read_bytes(), file


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "fso_isac.cli", *argv], env=src_env(),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trials", ["1", "0"])
def test_exit_64_verify_too_few_trials(scenario_dir, tmp_path, trials):
    proc = run_cli("verify", "--scenario", str(scenario_dir / "desk.json"),
                   "--out", str(tmp_path), "--trials", trials)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("usage: fso-isac verify")
    assert f"argument --trials: must be at least 2, got {trials}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("seed", ["-3", "-1"])
def test_exit_64_verify_negative_seed(scenario_dir, tmp_path, seed):
    proc = run_cli("verify", "--scenario", str(scenario_dir / "desk.json"),
                   "--out", str(tmp_path), "--trials", "2", "--seed", seed)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("usage: fso-isac verify")
    assert f"argument --seed: must be at least 0, got {seed}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("values, message", [
    (["--values", "abc"], "argument --values: invalid number list: 'abc'"),
    (["--values", ","], "argument --values: needs at least one value"),
    (["--range", "1:2"], "argument --range: expected start:stop:count, got '1:2'"),
    (["--range", "12:16:0"], "argument --range: count must be at least 1, got 0"),
    ([], "one of the arguments --values --range is required"),
    (["--values", "12", "--range", "12:16:2"],
     "argument --range: not allowed with argument --values"),
], ids=["values-not-numbers", "values-empty", "range-two-fields", "range-count-0",
        "neither", "both"])
def test_exit_64_bad_sweep_values(scenario_dir, tmp_path, values, message):
    proc = run_cli("sweep", "--scenario", str(scenario_dir / "desk.json"),
                   "--out", str(tmp_path), "--param", "precision_cm", *values)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("usage: fso-isac sweep")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not any(tmp_path.iterdir())


def test_sweep_range(scenario_dir, tmp_path):
    assert main(["sweep", "--scenario", str(scenario_dir / "desk.json"), "--out",
                 str(tmp_path), "--param", "precision_cm", "--range", "12:16:2"]) == 0
    with open(tmp_path / "sweep.csv", encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["value"], r["status"]) for r in rows] == [("12.0", "ok"), ("16.0", "ok")]


def verify_with_mc_entry(scenario_dir, tmp_path, key, value, minimum):
    """`verify` on desk with mc.<key> set to value exits 1 with the scenario
    error that names the key's minimum and line, and writes no output."""
    doc = json.loads((scenario_dir / "desk.json").read_text(encoding="utf-8"))
    doc["mc"][key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    line = 1 + next(i for i, text in enumerate(path.read_text(encoding="utf-8").splitlines())
                    if f'"{key}"' in text)
    out = tmp_path / "out"
    proc = run_cli("verify", "--scenario", str(path), "--out", str(out))
    assert proc.returncode == 1
    assert (f"scenario error: 'mc.{key}' must be at least {minimum} (line {line})"
            in proc.stderr)
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_exit_1_scenario_too_few_trials(scenario_dir, tmp_path):
    verify_with_mc_entry(scenario_dir, tmp_path, "trials", 1, minimum=2)


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_exit_1_scenario_negative_seed(scenario_dir, tmp_path, seed):
    # SeedSequence takes no negative entropy; the scenario is refused
    # before the solve, as mc.trials is
    verify_with_mc_entry(scenario_dir, tmp_path, "seed", seed, minimum=0)


def test_usage_error_exit_code(scenario_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scenario", str(scenario_dir / "desk.json"),
              "--param", "bogus", "--values", "1"])
    assert exc.value.code == EXIT_USAGE
    assert EXIT_USAGE not in range(5)


def test_floor_missed_after_revert_is_infeasible(scenario_dir, tmp_path):
    # the first BCD step meets 10.1 cm, the second cannot; the first
    # iterate misses the floor at its own SNRs, so no solution is written
    path = desk_scenario(scenario_dir, tmp_path, precision_cm=10.1)
    assert solve(path, tmp_path) == 2
    assert not (tmp_path / "solution.json").exists()


def test_floor_near_lp_limit_solves(scenario_dir, tmp_path):
    path = desk_scenario(scenario_dir, tmp_path, precision_cm=10.2)
    assert solve(path, tmp_path) == 0
    doc = json.loads((tmp_path / "solution.json").read_text(encoding="utf-8"))
    assert doc["case"] == "C"
    assert doc["precision_cm"] <= 10.2 * (1 + 1e-8)


def test_capacity_floor_met(scenario_dir, tmp_path):
    (row,) = sweep_rows(scenario_dir / "desk.json", tmp_path, "C0_bpshz", [0.3])
    assert row["status"] == "ok" and row["case"] == "F"
    assert float(row["C_bps_hz"]) >= 0.3 * (1 - 1e-8)


def test_sweep_reason_column(scenario_dir, tmp_path):
    rows = sweep_rows(scenario_dir / "desk.json", tmp_path, "precision_cm", [10.1, 12.0])
    infeasible, ok = rows
    assert infeasible["status"] == "infeasible" and infeasible["precision_cm"] == ""
    # the message holds a comma, which csv quoting keeps inside the field
    assert "," in infeasible["reason"] and "own SNRs" in infeasible["reason"]
    assert ok["status"] == "ok" and ok["reason"] == ""


@pytest.fixture
def bias_searches(monkeypatch):
    """One entry per solve_bias call, True where the allocation is uniform."""
    calls = []
    search = allocator.solve_bias

    def counted(objective, p_norm, model):
        calls.append(bool(np.all(p_norm == p_norm[0])))
        return search(objective, p_norm, model)

    monkeypatch.setattr(allocator, "solve_bias", counted)
    monkeypatch.setattr(cli, "solve_bias", counted)
    return calls


@pytest.mark.parametrize("argv, codes, searches, uniform", [
    # a floor leaves the model as it is, so the first bias search, at the
    # uniform allocation, runs once per sweep call; a cold start at every
    # point would make 7 and 9 searches, 3 of them there
    (["sweep", "--param", "precision_cm", "--values", "10.1,12,16"], (0,), 5, 1),
    (["sweep", "--param", "C0_bpshz", "--values", "0.1,0.3,0.7"], (0,), 7, 1),
    # a noise value moves the model: each point runs its own first search
    (["sweep", "--param", "N_s_dbhz", "--values=-101,-100,-99"], (0,), 10, 3),
    (["solve"], (0,), 3, 1),
    # the solve's three, and the CRB probe's search at its own allocation;
    # two trials may miss a tolerance, which is exit 4
    (["verify", "--trials", "2"], (0, 4), 4, 1),
], ids=["sweep-precision_cm", "sweep-C0_bpshz", "sweep-N_s_dbhz", "solve", "verify"])
def test_bias_searches_per_call(scenario_dir, tmp_path, bias_searches, argv,
                                codes, searches, uniform):
    # two calls in one process search as often as each other: nothing
    # outlives a main call
    command, *options = argv
    for _ in range(2):
        bias_searches.clear()
        assert main([command, "--scenario", str(scenario_dir / "desk.json"),
                     "--out", str(tmp_path), *options]) in codes
        assert (len(bias_searches), sum(bias_searches)) == (searches, uniform)


def test_verify_at_n32_reports_half_the_lags(scenario_dir, tmp_path):
    # N = 32 has lags 0..31, and those above N/2 mirror the lower ones:
    # the clipping check compares lags 1..16 and writes its report
    doc = json.loads((scenario_dir / "desk.json").read_text(encoding="utf-8"))
    doc["ofdm"]["N"] = 32
    doc["problem"].update(precision_cm=200.0, p_max=0.2)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--scenario", str(path), "--out", str(tmp_path),
                 "--trials", "2"]) in (0, 4)
    report = (tmp_path / "clipping_report.csv").read_text(encoding="utf-8")
    lags = [r.split(",")[0] for r in report.splitlines() if r.startswith("r_wp_lag")]
    assert lags == [f"r_wp_lag{lag}" for lag in range(17)]
