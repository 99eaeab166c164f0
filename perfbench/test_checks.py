"""Tests of the benchmark's output checks.

Each check must accept what the program writes today and reject a copy
corrupted by a small amount.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from fso_isac import cli  # noqa: E402


def run_cli(args):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(args)


def write_scenario(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def csv_text(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


@pytest.fixture(scope="module", params=["desk", "reference"])
def solved(request, tmp_path_factory):
    doc = workloads.DESK if request.param == "desk" else workloads.REFERENCE
    out = tmp_path_factory.mktemp(request.param)
    assert run_cli(["solve", "--scenario", write_scenario(out / "s.json", doc),
                    "--out", str(out)]) == 0
    solution = json.loads((out / "solution.json").read_text())
    allocation = list(csv.DictReader(io.StringIO((out / "allocation.csv").read_text())))
    return doc, solution, allocation


def fails_of(solved, solution=None, allocation=None):
    doc, sol, alloc = solved
    return checks.check_solution(doc, solution or sol, csv_text(allocation or alloc))


def copies(solved):
    _, sol, alloc = solved
    return json.loads(json.dumps(sol)), [dict(r) for r in alloc]


def test_solution_accepted(solved):
    assert fails_of(solved) == []


def test_budget_off_by_1e6(solved):
    _, alloc = copies(solved)
    alloc[0]["p_norm"] = repr(float(alloc[0]["p_norm"]) + 1e-6)
    assert any(f.startswith("budget:") for f in fails_of(solved, allocation=alloc))


def test_cap_exceeded(solved):
    doc = solved[0]
    _, alloc = copies(solved)
    p_max = doc["problem"]["p_max"]
    p = [float(r["p_norm"]) for r in alloc]
    top = max(range(len(p)), key=p.__getitem__)
    scale = (0.5 - (p_max + 1e-6)) / (0.5 - p[top])
    for i, r in enumerate(alloc):
        r["p_norm"] = repr(p_max + 1e-6 if i == top else p[i] * scale)
    fails = fails_of(solved, allocation=alloc)
    assert any(f.startswith("cap:") for f in fails)
    assert not any(f.startswith("budget:") for f in fails)


def test_floor_missed_by_1e6(solved):
    doc = solved[0]
    sol, _ = copies(solved)
    sol["fisher_tau"] = checks.floor_fisher_tau(doc["problem"]["precision_cm"]) * (1 - 1e-6)
    assert any(f.startswith("floor:") for f in fails_of(solved, solution=sol))


def test_capacity_off_by_1e6(solved):
    sol, _ = copies(solved)
    sol["spectral_efficiency_bps_hz"] *= 1 + 1e-6
    assert any(f.startswith("capacity:") for f in fails_of(solved, solution=sol))


def test_suboptimal_allocation(solved):
    """Power moved off the best subcarrier: every reported figure matches the
    moved allocation, so only the nested water-filling can tell."""
    doc = solved[0]
    sol, alloc = copies(solved)
    frame = checks.Frame(doc)
    p = [float(r["p_norm"]) for r in alloc]
    gamma_c = [float(r["gamma_c"]) for r in alloc]
    best = max((i for i in range(len(p)) if p[i] > 1e-3), key=gamma_c.__getitem__)
    worst = min((i for i in range(len(p)) if p[i] < doc["problem"]["p_max"] - 1e-3),
                key=gamma_c.__getitem__)
    p[best] -= 1e-3
    p[worst] += 1e-3
    for r, v in zip(alloc, p):
        r["p_norm"] = repr(v)
    a = checks.read_allocation(csv_text(alloc))
    sol["spectral_efficiency_bps_hz"] = frame.capacity(a["gamma_c"], a["p_norm"])
    fails = fails_of(solved, solution=sol, allocation=alloc)
    assert any(f.startswith("optimality:") for f in fails)
    assert not any(f.startswith(("capacity:", "budget:", "cap:")) for f in fails)


@pytest.fixture(scope="module")
def comm_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("comm")
    values = [14.5, 16.0]
    assert run_cli(["sweep", "--scenario", write_scenario(out / "s.json", workloads.DESK),
                    "--param", "precision_cm", "--values", "14.5,16.0",
                    "--out", str(out)]) == 0
    return values, checks.read_rows((out / "sweep.csv").read_text())


@pytest.fixture(scope="module")
def sense_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("sense")
    values = [0.3, 0.7]
    assert run_cli(["sweep", "--scenario", write_scenario(out / "s.json", workloads.DESK),
                    "--param", "C0_bpshz", "--values", "0.3,0.7", "--out", str(out)]) == 0
    return values, checks.read_rows((out / "sweep.csv").read_text())


def test_sweeps_accepted(comm_rows, sense_rows):
    assert checks.check_comm_sweep(comm_rows[1], comm_rows[0]) == []
    assert checks.check_sense_sweep(sense_rows[1], sense_rows[0]) == []


def test_failed_point_is_not_checked(comm_rows):
    values, rows = comm_rows
    rows = [dict(r) for r in rows]
    rows[0].update(status="diverged", C_bps_hz="", precision_cm="")
    assert checks.check_comm_sweep(rows, values) == []


def test_sweep_floor_missed_by_1e6(comm_rows, sense_rows):
    values, rows = comm_rows
    rows = [dict(r) for r in rows]
    rows[0]["precision_cm"] = repr(values[0] * (1 + 1e-6))
    assert any(f.startswith("floor:") for f in checks.check_comm_sweep(rows, values))
    values, rows = sense_rows
    rows = [dict(r) for r in rows]
    rows[0]["C_bps_hz"] = repr(values[0] * (1 - 1e-6))
    assert any(f.startswith("floor:") for f in checks.check_sense_sweep(rows, values))


def test_sweep_not_monotone(comm_rows, sense_rows):
    values, rows = comm_rows
    rows = [dict(r) for r in rows]
    rows[0]["C_bps_hz"], rows[1]["C_bps_hz"] = rows[1]["C_bps_hz"], rows[0]["C_bps_hz"]
    assert any(f.startswith("monotone:") for f in checks.check_comm_sweep(rows, values))
    values, rows = sense_rows
    rows = [dict(r) for r in rows]
    rows[0]["precision_cm"], rows[1]["precision_cm"] = (rows[1]["precision_cm"],
                                                        rows[0]["precision_cm"])
    assert any(f.startswith("monotone:") for f in checks.check_sense_sweep(rows, values))


@pytest.fixture(scope="module")
def verified(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    code = run_cli(["verify", "--scenario", write_scenario(out / "s.json", workloads.DESK),
                    "--trials", str(workloads.VERIFY_TRIALS), "--seed", "1",
                    "--out", str(out)])
    return (code, checks.read_rows((out / "clipping_report.csv").read_text()),
            checks.read_rows((out / "rmse_report.csv").read_text()))


def test_verify_accepted(verified):
    code, clip, rmse = verified
    assert checks.check_verify(code, csv_text(clip), csv_text(rmse)) == []


def test_verify_rejects_failed_gates(verified):
    code, clip, rmse = verified
    assert checks.check_verify(4, csv_text(clip), csv_text(rmse)) != []
    bad_clip = [dict(r) for r in clip]
    bad_clip[1]["error"] = repr(float(bad_clip[1]["tolerance"]) * 1.01)
    assert any(f.startswith("clipping row") for f in
               checks.check_verify(code, csv_text(bad_clip), csv_text(rmse)))
    bad_rmse = [dict(r) for r in rmse]
    bad_rmse[-1]["rmse_m"] = repr(1.31 * float(bad_rmse[-1]["crb_m"]))
    bad_rmse[-1]["ratio"] = "1.31"
    assert any(f.startswith("rmse gate:") for f in
               checks.check_verify(code, csv_text(clip), csv_text(bad_rmse)))
