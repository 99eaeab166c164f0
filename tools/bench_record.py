"""Record benchmark runs of two revisions in a BENCH_<label>.json file.

    python3 tools/bench_record.py --base REV --head REV --label NAME \\
        desk-verify=10 reference-solve=3 ... [--trace desk-verify] [--seconds S]

Each revision's committed files are exported with `git archive` into a
temporary directory, and `perfbench/run.py` runs there unchanged, one fresh
interpreter per run, with the run length of BENCHMARK.json unless
--seconds says otherwise.  WORKLOAD=PAIRS asks for that many pairs of runs;
the two runs of a pair share a seed, and the revision that runs first
alternates from pair to pair.  --trace WORKLOAD adds one `--trace 1` run
per revision.

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

    entry = {
        "label": args.label,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "machine": platform.machine()},
        "revisions": revs,
        "seconds": args.seconds,
        "summary": summarize(runs, spec["end_to_end"]),
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
