"""The four workloads: seeded inputs, the CLI call of one round, and the
judgement of its outputs.

One round is one ``fso_isac.cli.main`` call.  An operation is one solve,
one sweep point or one verify, so a sweep round holds several operations.
The seed only moves inputs among values whose solver path was checked to
have the same case tag and outer-iteration count, so that run-to-run
spread measures the program rather than the draw.
"""

import json
import random

import checks

# Copies of scenarios/desk.json and scenarios/reference.json, pinned here so
# that edits to the shipped examples do not move the benchmark.
DESK = {
    "ofdm": {"M": 16, "N": 256, "delta_f_hz": 200000.0, "T_g_s": 2e-06, "P_w": 1.0},
    "channel": {
        "L_m": 200.0, "lambda_nm": 905.0, "atten_db_per_km": -12.8, "Cn2": 0.0,
        "theta_mrad": 0.5, "A_cm2": 10.0, "reflectivity": 0.5, "G_T": 1.0, "G_R": 10.0,
        "override_gain_c_db": -9.0103, "override_gain_s_db": -6.0,
    },
    "noise": {"N_c_dbhz": -100.0, "N_s_dbhz": -100.0},
    "problem": {"mode": "CommCentric", "precision_cm": 12.0, "p_max": 0.04},
    "mc": {"trials": 400, "seed": 7041776},
}
REFERENCE = {
    "ofdm": {"M": 64, "N": 1024, "delta_f_hz": 200000.0, "T_g_s": 2e-06, "P_w": 1.0},
    "channel": {
        "L_m": 200.0, "lambda_nm": 905.0, "atten_db_per_km": -12.8, "Cn2": 5e-14,
        "theta_mrad": 0.5, "A_cm2": 10.0, "reflectivity": 0.5, "G_T": 1.0, "G_R": 10.0,
        "override_gain_c_db": -9.0103, "override_gain_s_db": -6.0,
    },
    "noise": {"N_c_dbhz": -100.0, "N_s_dbhz": -100.0},
    "problem": {"mode": "CommCentric", "precision_cm": 4.0, "p_max": 0.01},
    "mc": {"trials": 200, "seed": 20240601},
}

# desk precision floors, cm.  10.2 raises DualIterationError on every run
# (a fault of allocator.dual_iterate_comm) and is kept as the one failing
# operation; 12.0 is the shipped floor.  The other three move by a seeded
# offset from FLOOR_OFFSETS_CM.
FAILING_FLOOR_CM = 10.2
COMM_FLOORS_CM = (10.2, 12.0, 13.5, 14.5, 16.0)
FLOOR_OFFSETS_CM = (-0.01, -0.005, 0.0, 0.005, 0.01)
SENSE_C0 = (0.3, 0.4, 0.5, 0.6, 0.7)
C0_OFFSETS = (-0.001, 0.0, 0.001)
REFERENCE_FLOOR_OFFSETS_CM = (-0.002, -0.001, 0.0, 0.001, 0.002)
VERIFY_TRIALS = 1000


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


class Workload:
    """Inputs for one seed and the judgement of each round's outputs.

    ``judge`` returns (outcomes, fails): one (failed, capacity_bps_hz,
    fisher_per_m2) tuple per operation, and the check failures found.
    """

    command = None

    def __init__(self, out):
        self.out = out
        self.scenario = out / "scenario.json"

    def cli_args(self):
        return [self.command, "--scenario", str(self.scenario), "--out", str(self.out)]

    def prepare(self, cli_main):
        """Untimed work before the rounds; returns check failures."""
        return []


class _Sweep(Workload):
    command = "sweep"
    param = None

    def __init__(self, out, values):
        super().__init__(out)
        self.doc = DESK
        self.values = values
        self.ops = len(values)
        _write_json(self.scenario, self.doc)

    def cli_args(self):
        return super().cli_args() + [
            "--param", self.param, "--values", ",".join(repr(v) for v in self.values),
            "--workers", "1",
        ]

    def judge(self, exit_code):
        if exit_code != 0:
            return [(True, 0.0, 0.0)] * self.ops, [f"sweep exit code {exit_code}"]
        rows = checks.read_rows((self.out / "sweep.csv").read_text(encoding="utf-8"))
        fails = self.check(rows, self.values)
        outcomes = []
        for r in rows:
            if r["status"] != "ok":
                outcomes.append((True, 0.0, 0.0))
                continue
            precision_m = float(r["precision_cm"]) / 100.0
            outcomes.append((False, float(r["C_bps_hz"]), 1.0 / precision_m**2))
        return outcomes, fails


class CommSweep(_Sweep):
    """CommCentric sweep over the desk precision floor."""

    name = "desk-comm-sweep"
    param = "precision_cm"

    def __init__(self, seed, out):
        rng = random.Random(seed)
        super().__init__(out, [v if v in (FAILING_FLOOR_CM, 12.0)
                               else round(v + rng.choice(FLOOR_OFFSETS_CM), 6)
                               for v in COMM_FLOORS_CM])

    check = staticmethod(checks.check_comm_sweep)


class SenseSweep(_Sweep):
    """SensingCentric sweep over the desk capacity floor."""

    name = "desk-sense-sweep"
    param = "C0_bpshz"

    def __init__(self, seed, out):
        rng = random.Random(seed)
        super().__init__(out, [round(v + rng.choice(C0_OFFSETS), 6) for v in SENSE_C0])

    check = staticmethod(checks.check_sense_sweep)


class ReferenceSolve(Workload):
    """`solve` on the N = 1024 turbulent reference scenario."""

    name = "reference-solve"
    command = "solve"
    ops = 1

    def __init__(self, seed, out):
        super().__init__(out)
        rng = random.Random(seed)
        self.doc = json.loads(json.dumps(REFERENCE))
        self.doc["problem"]["precision_cm"] = round(
            4.0 + rng.choice(REFERENCE_FLOOR_OFFSETS_CM), 6)
        _write_json(self.scenario, self.doc)

    def judge(self, exit_code):
        if exit_code in (2, 3):
            return [(True, 0.0, 0.0)], []
        if exit_code != 0:
            return [(True, 0.0, 0.0)], [f"solve exit code {exit_code}"]
        return judge_solution(self.doc, self.out)


def judge_solution(doc, out):
    solution = json.loads((out / "solution.json").read_text(encoding="utf-8"))
    allocation = (out / "allocation.csv").read_text(encoding="utf-8")
    fails = checks.check_solution(doc, solution, allocation)
    return [(False, solution["spectral_efficiency_bps_hz"], solution["fisher_distance"])], fails


class DeskVerify(Workload):
    """`verify` (Monte Carlo clipping and RMSE/CRB gates) on desk."""

    name = "desk-verify"
    command = "verify"
    ops = 1

    def __init__(self, seed, out):
        super().__init__(out)
        self.doc = DESK
        self.mc_seed = random.Random(seed).randrange(2**31)
        self.quality = (0.0, 0.0)
        _write_json(self.scenario, self.doc)

    def cli_args(self):
        return super().cli_args() + [
            "--trials", str(VERIFY_TRIALS), "--seed", str(self.mc_seed)]

    def judge(self, exit_code):
        if exit_code in (2, 3):
            return [(True, 0.0, 0.0)], []
        fails = checks.check_verify(
            exit_code,
            (self.out / "clipping_report.csv").read_text(encoding="utf-8"),
            (self.out / "rmse_report.csv").read_text(encoding="utf-8"),
        )
        return [(False, *self.quality)], fails

    def prepare(self, cli_main):
        """verify writes no solution, so the problem it solves is solved
        once more, untimed, for the quality figures and the solve checks."""
        solve_out = self.out / "solve"
        exit_code = cli_main(["solve", "--scenario", str(self.scenario),
                              "--out", str(solve_out)])
        if exit_code != 0:
            return [f"desk solve exit code {exit_code}"]
        (outcome,), fails = judge_solution(self.doc, solve_out)
        self.quality = outcome[1:]
        return fails


WORKLOADS = {w.name: w for w in (CommSweep, ReferenceSolve, SenseSweep, DeskVerify)}
