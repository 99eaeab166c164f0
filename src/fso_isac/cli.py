"""Command-line entry points: solve, sweep, verify.

Exit codes: 0 success, 1 scenario/schema error, 2 infeasible problem,
3 divergence abort, 4 verification tolerance failure, 64 command-line
usage error (unknown option, missing or invalid argument).
"""

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .allocator import (
    MODE_COMM,
    AllocationSolution,
    DivergenceAborted,
    InfeasibleProblem,
    ProblemSpec,
    solve_bias,
    solve_p1,
    solve_p2,
)
from .monte_carlo import McCampaign, rmse_vs_crb, verify_clipping_model
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .system import SystemModel

SWEEP_PARAMS = ("precision_cm", "C0_bpshz", "N_c_dbhz", "N_s_dbhz")
SWEEP_COLUMNS = ("param", "value", "status", "case", "b", "C_bps_hz",
                 "precision_cm", "outer_iters", "dual_iters_max", "reason")
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on EXIT_USAGE, apart from the codes 0-4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("FSO_ISAC_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _solve_scenario(scenario: Scenario) -> AllocationSolution:
    model = scenario.model()
    if scenario.problem.mode == MODE_COMM:
        return solve_p1(scenario.problem, model)
    return solve_p2(scenario.problem, model)


def _solution_record(scenario: Scenario, sol: AllocationSolution) -> dict:
    return {
        "mode": "CommCentric" if scenario.problem.mode == MODE_COMM else "SensingCentric",
        "case": sol.case_tag,
        "b": sol.b_opt,
        "duals": None if sol.duals is None else {"mu": sol.duals.mu, "eta": sol.duals.eta},
        "spectral_efficiency_bps_hz": sol.metrics.spectral_efficiency,
        "fisher_tau": sol.metrics.fisher_tau,
        "fisher_distance": sol.metrics.fisher_distance,
        "precision_cm": sol.metrics.crb_distance_m * 100.0,
        "outer_iterations": sol.iterations,
        # outer eta evaluations of each BCD step that ran a coupled dual
        "dual_iterations": [len(t.eta) for t in sol.trace.dual_traces if t is not None],
        "converged": sol.converged,
        "flags": list(sol.trace.flags),
    }


def _write_solution(out: Path, scenario: Scenario, sol: AllocationSolution) -> None:
    record = _solution_record(scenario, sol)
    (out / "solution.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    model = scenario.model()
    snr = model.snr(sol.b_opt, sol.p_norm)
    lines = ["k,p_norm,gamma_c,gamma_s"]
    for i, k in enumerate(range(1, scenario.cfg.n_subcarriers // 2)):
        lines.append(
            f"{k},{sol.p_norm[i]:.12g},{snr.gamma_c[i]:.12g},{snr.gamma_s[i]:.12g}"
        )
    (out / "allocation.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args)
    try:
        sol = _solve_scenario(scenario)
    except InfeasibleProblem as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 2
    except DivergenceAborted as e:
        print(f"diverged: {e}", file=sys.stderr)
        return 3
    _write_solution(out, scenario, sol)
    print(f"case {sol.case_tag}: C = {sol.metrics.spectral_efficiency:.6g} bps/Hz, "
          f"precision = {sol.metrics.crb_distance_m * 100.0:.6g} cm")
    return 0


def _apply_param(doc: dict, param: str, value: float) -> dict:
    doc = json.loads(json.dumps(doc))
    if param == "precision_cm":
        doc["problem"]["mode"] = "CommCentric"
        doc["problem"]["precision_cm"] = value
        doc["problem"].pop("C0_bpshz", None)
    elif param == "C0_bpshz":
        doc["problem"]["mode"] = "SensingCentric"
        doc["problem"]["C0_bpshz"] = value
        doc["problem"].pop("precision_cm", None)
    elif param in ("N_c_dbhz", "N_s_dbhz"):
        doc["noise"][param] = value
    else:
        raise ValueError(f"unknown sweep parameter '{param}'")
    return doc


def _sweep_point(scenario_json: str, param: str, value: float) -> dict:
    doc = _apply_param(json.loads(scenario_json), param, value)
    scenario = parse_scenario(json.dumps(doc))
    row = dict.fromkeys(SWEEP_COLUMNS, "")
    row.update(param=param, value=value, status="ok")
    try:
        sol = _solve_scenario(scenario)
    except InfeasibleProblem as e:
        row.update(status="infeasible", reason=str(e))
        return row
    except DivergenceAborted as e:
        row.update(status="diverged", reason=str(e))
        return row
    rec = _solution_record(scenario, sol)
    row.update(
        case=rec["case"],
        b=f"{rec['b']:.12g}",
        C_bps_hz=f"{rec['spectral_efficiency_bps_hz']:.12g}",
        precision_cm=f"{rec['precision_cm']:.12g}",
        outer_iters=rec["outer_iterations"],
        dual_iters_max=max(rec["dual_iterations"], default=0),
    )
    return row


def _parse_values(args) -> list:
    if args.values:
        return [float(v) for v in args.values.split(",") if v.strip()]
    if args.sweep_range:
        start, stop, count = args.sweep_range.split(":")
        return [float(v) for v in np.linspace(float(start), float(stop), int(count))]
    return []


def cmd_sweep(args) -> int:
    scenario_json = Path(args.scenario).read_text(encoding="utf-8")
    parse_scenario(scenario_json)  # validate before dispatching workers
    values = _parse_values(args)
    out = _out_dir(args)
    jobs = [(scenario_json, args.param, v) for v in values]
    if args.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_point, *zip(*jobs)))
    else:
        rows = [_sweep_point(*j) for j in jobs]
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, SWEEP_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    n_ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"sweep complete: {n_ok}/{len(rows)} points solved -> {out / 'sweep.csv'}")
    return 0


def crb_probe_allocation(model: SystemModel):
    """Oversampled CRB probe: power on the lower 70% of the data band.

    Critically sampled full-band frames leave the three-point parabolic
    refinement with an interpolation-bias floor around a tenth of a sample,
    so the CRB-attainment check runs with a moderately oversampled
    correlation peak; the bias step still comes from the solver.
    """
    n_data = model.cfg.n_data_subcarriers
    n_used = max(8, (7 * n_data) // 10)
    p = np.zeros(n_data)
    p[:n_used] = 0.5 / n_used
    b, _ = solve_bias("fisher", p, model)
    return b, p


def cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario)
    if scenario.mc is None:
        print("scenario lacks an 'mc' section", file=sys.stderr)
        return 1
    out = _out_dir(args)
    model = scenario.model()
    seed = scenario.mc.seed if args.seed is None else args.seed
    trials = scenario.mc.trials if args.trials is None else args.trials

    try:
        sol = _solve_scenario(scenario)
    except InfeasibleProblem as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 2
    except DivergenceAborted as e:
        print(f"diverged: {e}", file=sys.stderr)
        return 3

    clip_report = verify_clipping_model(
        scenario.cfg, sol.b_opt, sol.p_norm, trials=max(trials, 1), seed=seed
    )
    (out / "clipping_report.csv").write_text(
        "\n".join(clip_report.csv_rows()) + "\n", encoding="utf-8"
    )

    b_probe, p_probe = crb_probe_allocation(model)
    cfg = scenario.cfg
    tof = (round(0.3 * cfg.guard_samples) + 0.31) / cfg.sample_rate
    ns_db = 10.0 * np.log10(model.chan.noise_psd_s)
    campaign = McCampaign(
        trials=max(trials, 1),
        rng_seed=seed,
        true_tof=tof,
        snr_sweep=(ns_db + 4.0, ns_db + 2.0, ns_db),
    )
    rmse_report = rmse_vs_crb(campaign, model, b_probe, p_probe)
    (out / "rmse_report.csv").write_text(
        "\n".join(rmse_report.csv_rows()) + "\n", encoding="utf-8"
    )

    failures = [r.quantity for r in clip_report.rows if not r.passed]
    gate_crb = model.chan.sigma_t2_s == 0
    top = rmse_report.points[-1]
    if gate_crb and not 1.0 <= top.ratio <= 1.3:
        failures.append(f"rmse_crb_ratio={top.ratio:.3f}")
    if failures:
        print("verification FAILED: " + ", ".join(failures), file=sys.stderr)
        return 4
    note = "" if gate_crb else " (CRB gate skipped: turbulent channel)"
    print(f"verification passed: ratio {top.ratio:.3f} at {top.snr_db} dB/Hz{note}")
    return 0


def main(argv=None) -> int:
    parser = _Parser(
        prog="fso-isac",
        description="DCO-OFDM optical ISAC power allocation and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", default=None, help="output directory (or $FSO_ISAC_OUT)")

    p_solve = sub.add_parser("solve", help="solve the scenario's allocation problem")
    common(p_solve)

    p_sweep = sub.add_parser("sweep", help="solve across a parameter sweep")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", default=None, help="comma-separated sweep values")
    p_sweep.add_argument("--range", dest="sweep_range", default=None,
                         help="start:stop:count")
    p_sweep.add_argument("--workers", type=int, default=1)

    p_verify = sub.add_parser("verify", help="Monte Carlo verification reports")
    common(p_verify)
    p_verify.add_argument("--seed", type=int, default=None,
                          help="override the scenario Monte Carlo seed")
    p_verify.add_argument("--trials", type=int, default=None,
                          help="override the scenario trial count")

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_verify(args)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
