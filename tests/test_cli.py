import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fso_isac import allocator, cli
from fso_isac.cli import EXIT_USAGE, SWEEP_COLUMNS, main
from fso_isac.monte_carlo import RmsePoint, RmseReport

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


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
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
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
