"""Record benchmark runs of two revisions in a BENCH_<label>.json file.

    python3 tools/bench_record.py --base REV --head REV --label NAME \\
        desk-verify=10 reference-solve=3 ... [--trace desk-verify] [--seconds S]

Each revision's committed files are exported with `git archive` into a
temporary directory, and `perfbench/run.py` runs there unchanged, one fresh
interpreter per run, with the run length of BENCHMARK.json unless
--seconds says otherwise.  WORKLOAD=PAIRS asks for that many pairs of runs;
the two runs of a pair share a seed, and the revision that runs first
alternates from pair to pair.  --trace WORKLOAD adds one `--trace 1` run
per revision.  Each revision also times two per-layer figures that no
workload measures: one `compute_clipping_stats` call at N = 256, 1024 and
4096, and one dual solve of each mode on desk.

The record keeps every run's last JSON line, with its revision, seed,
order, exit code and wall time, and the host: CPU count, Python and NumPy
versions.  For each end-to-end metric it also gives each revision's median
and quartiles and the number of pairs in which the head revision reads
better.  A new entry is appended when the file exists.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
STATS_SIZES = (256, 1024, 4096)
DUAL_SCENARIOS = ("desk.json", "desk_sense.json")

# One clipping-statistics call at each N, in a fresh interpreter on the
# checkout's src/: power evenly on the lower 70% of the data band (the
# shape of the CLI's CRB probe) at the desk solution's bias.
STATS_CODE = """\
import json, statistics, sys, time
import numpy as np
from fso_isac.clipping import compute_clipping_stats
from fso_isac.config import OfdmConfig
sizes = json.loads(sys.argv[1])
out = {}
for n in sizes:
    cfg = OfdmConfig(n_symbols=16, n_subcarriers=n, delta_f=2e5, guard_s=2e-6, power_w=1.0)
    p = np.zeros(cfg.n_data_subcarriers)
    used = 7 * cfg.n_data_subcarriers // 10
    p[:used] = 0.5 / used
    compute_clipping_stats(0.175, p, cfg)
    times = []
    for _ in range(101):
        start = time.perf_counter()
        compute_clipping_stats(0.175, p, cfg)
        times.append(1e3 * (time.perf_counter() - start))
    out[n] = {"median_ms": statistics.median(times), "min_ms": min(times)}
print(json.dumps(out))
"""


# One dual_iterate_comm and one dual_iterate_sense call, each timed the
# same way, on the desk SNRs at the uniform allocation and the desk
# solution's bias.  p_max and the floors are those of scenarios/desk.json
# (comm) and scenarios/desk_sense.json (sense); both lie in the coupled
# case there, which the code checks before timing.
DUAL_CODE = """\
import json, statistics, sys, time
import numpy as np
from fso_isac.allocator import (_subcarrier_weights, dual_iterate_comm, dual_iterate_sense,
                                sensing_lp, waterfill_comm)
from fso_isac.scenario import load_scenario
comm, sense = (load_scenario(path) for path in json.loads(sys.argv[1]))
model, p_max = comm.model(), comm.problem.p_max
if sense.model() != model or sense.problem.p_max != p_max:
    raise SystemExit("the two scenarios differ in more than their floors")
cfg = model.cfg
n = cfg.n_data_subcarriers
snr = model.snr(0.175, np.full(n, 0.5 / n))
gamma_c, k2gs = snr.gamma_c, _subcarrier_weights(n) * snr.gamma_s
p_wf, mu0 = waterfill_comm(gamma_c, p_max)
p_lp = sensing_lp(snr.gamma_s, p_max)
info = comm.problem.info_threshold(cfg)
cap = sense.problem.capacity_threshold_nats(cfg)
s0, c0 = float(np.sum(k2gs * p_wf)), float(np.sum(np.log1p(gamma_c * p_lp)))
if not s0 < info <= float(np.sum(k2gs * p_lp)):
    raise SystemExit("the comm floor is not in the coupled case")
if not c0 < cap <= float(np.sum(np.log1p(gamma_c * p_wf))):
    raise SystemExit("the sense floor is not in the coupled case")
calls = {"comm": lambda: dual_iterate_comm(gamma_c, k2gs, info, p_max, s0, mu0),
         "sense": lambda: dual_iterate_sense(gamma_c, k2gs, cap, p_max, c0)}
out = {}
for name, call in calls.items():
    call()
    times = []
    for _ in range(101):
        start = time.perf_counter()
        call()
        times.append(1e3 * (time.perf_counter() - start))
    out[name] = {"median_ms": statistics.median(times), "min_ms": min(times)}
print(json.dumps(out))
"""


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def export(rev: str, dest: Path):
    """The committed files of `rev` under `dest`."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise RuntimeError(f"git archive {rev} failed")


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of perfbench/run.py: its last JSON line, exit code, wall time
    (rounds, per-round checks and set-up together) and the end of its log."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"exit": proc.returncode, "wall_s": round(time.perf_counter() - start, 2),
            "result": result, "log": proc.stderr.strip().splitlines()[-10:]}


def layer_timing(checkout: Path, code: str, arg: str) -> dict:
    """The JSON that `code` prints when run with argument `arg` in a fresh
    interpreter on the checkout's src/, BLAS and OpenMP pools on one thread."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, arg],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def clipping_stats_ms(checkout: Path) -> dict:
    """Median and fastest of 101 timed `compute_clipping_stats` calls, in ms,
    at each of STATS_SIZES."""
    return layer_timing(checkout, STATS_CODE, json.dumps(STATS_SIZES))


def dual_solve_ms(checkout: Path) -> dict:
    """Median and fastest of 101 timed calls of `dual_iterate_comm` and of
    `dual_iterate_sense` on desk, in ms: the north star's one dual solve.
    The scenarios are this tree's, so every revision times the same inputs."""
    scenarios = [str(ROOT / "scenarios" / name) for name in DUAL_SCENARIOS]
    return layer_timing(checkout, DUAL_CODE, json.dumps(scenarios))


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload and end-to-end metric: each side's median and quartiles
    and the pairs in which the head reads better (ties count for neither)."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if not r["trace"]):
        pairs = {}
        for r in runs:
            if r["workload"] == workload and not r["trace"] and r["result"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            continue
        rows = {}
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            base = [p["base"][name]["value"] for p in pairs]
            head = [p["head"][name]["value"] for p in pairs]
            rows[name] = {
                "base": quartiles(base), "head": quartiles(head),
                "head_better": sum(sign * (h - b) < 0 for b, h in zip(base, head)),
                "pairs": len(pairs),
            }
        summary[workload] = rows
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision compared against")
    parser.add_argument("--head", default="HEAD", help="revision under test")
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("pairs", nargs="+", metavar="WORKLOAD=PAIRS")
    parser.add_argument("--trace", action="append", default=[], choices=names)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    plan = []
    for item in args.pairs:
        workload, _, count = item.partition("=")
        if workload not in names or not count.isdigit() or int(count) < 1:
            parser.error(f"bad WORKLOAD=PAIRS: {item!r} (workloads: {', '.join(names)})")
        plan.append((workload, int(count)))

    revs = {"base": git("rev-parse", f"{args.base}^{{commit}}"),
            "head": git("rev-parse", f"{args.head}^{{commit}}")}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        checkouts = {}
        for side, rev in revs.items():
            checkouts[side] = Path(tmp) / side
            checkouts[side].mkdir()
            export(rev, checkouts[side])

        def run(workload, pair, side, first, trace):
            seed = args.seed + pair
            print(f"{workload} pair {pair} {side} seed {seed}"
                  f"{' trace' if trace else ''}", file=sys.stderr, flush=True)
            runs.append({"workload": workload, "pair": pair, "side": side, "rev": revs[side],
                         "seed": seed, "first": first, "trace": trace,
                         **bench(checkouts[side], workload, seed, args.seconds, trace)})

        for workload, count in plan:
            for pair in range(count):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    run(workload, pair, side, side == order[0], 0)
        for workload in args.trace:
            for side in ("base", "head"):
                run(workload, 0, side, side == "base", 1)
        stats_ms = {side: clipping_stats_ms(checkouts[side]) for side in revs}
        dual_ms = {side: dual_solve_ms(checkouts[side]) for side in revs}

    entry = {
        "label": args.label,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "machine": platform.machine()},
        "revisions": revs,
        "seconds": args.seconds,
        "summary": summarize(runs, spec["end_to_end"]),
        "clipping_stats_ms": stats_ms,
        "dual_solve_ms": dual_ms,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    record = json.loads(out.read_text()) if out.exists() else {"entries": []}
    record["entries"].append(entry)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if all(r["exit"] == 0 and r["result"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
