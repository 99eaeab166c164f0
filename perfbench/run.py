"""Benchmark of the fso_isac CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload in-process through ``fso_isac.cli.main``
for about S seconds of round time (at least three rounds), checks every
round's outputs, and
prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics from span
tracing with --trace 1.  BLAS and OpenMP pools are pinned to one thread.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
# Rounds a run makes however slow they are, so that op_s is a median of at
# least three.
MIN_ROUNDS = 3
# Sampler kernel times on a quiet 2-vCPU x86-64 KVM guest (Xeon, AVX-512);
# op_s and setup_s are expressed at that host speed.
KERNEL_REFERENCE_S = 0.7e-3
SETUP_KERNEL_REFERENCE_S = 100e-6

# Timed in a fresh interpreter, so the imports are cold as for a CLI user.
# As in SpeedSampler, a SIGALRM handler times a small kernel during the
# timed block for a host-speed reading.  The kernel is pure Python here:
# NumPy must not be imported before the import being timed.
SETUP_CODE = """\
import signal, sys, time
samples = []
def kernel():
    d = {}
    for i in range(400):
        d[i % 37] = d.get(i % 37, 0) + i * 0.5
        str(i)
def on_alarm(signum, frame):
    t0 = time.perf_counter()
    kernel()
    samples.append(time.perf_counter() - t0)
for _ in range(20):
    kernel()
signal.signal(signal.SIGALRM, on_alarm)
signal.setitimer(signal.ITIMER_REAL, 0.01, 0.01)
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fso_isac
from fso_isac.scenario import load_scenario
load_scenario(sys.argv[2])
wall = time.perf_counter() - t0
signal.setitimer(signal.ITIMER_REAL, 0, 0)
net = wall - sum(samples)
if not samples:
    on_alarm(None, None)
print(repr(net), repr(sum(samples) / len(samples)))
"""


def setup_seconds(scenario):
    """Median over fresh interpreters of the time to import fso_isac and
    parse, at the reference host speed; also the median of the plain times.
    """
    corrected, plain = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(scenario)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        net, kernel = (float(x) for x in proc.stdout.split())
        plain.append(net)
        corrected.append(net * SETUP_KERNEL_REFERENCE_S / kernel)
    return statistics.median(corrected), statistics.median(plain)


class SpeedSampler:
    """Reads the host's speed through a round with a timer signal.

    On a shared host the same round takes up to a fifth more or less wall
    time from one minute to the next.  Every PERIOD_S of wall time a
    SIGALRM handler times a fixed kernel of about 0.7 ms that mixes the two
    kinds of work the program does: transcendental maps with row sums on a
    64 x 192 grid (as in the clipping quadrature) and an interpreter loop
    over 127-element vectors (as in the dual bisections).  The kernel's mean
    time over a round is the round's speed reading; the handler's own time
    is taken out of the round.  Nothing here depends on src/.
    """

    PERIOD_S = 0.05

    def __init__(self):
        import numpy as np
        self.np = np
        self.grid = np.linspace(-1.0, 1.0, 64 * 192).reshape(64, 192)
        self.weights = np.linspace(0.0, 1.0, 192)
        self.gain = np.linspace(1.0, 50.0, 127)
        self.k2g = np.arange(1.0, 128.0) ** 2 * np.linspace(0.5, 2.0, 127)
        self.samples = []

    def _kernel(self):
        np = self.np
        for _ in range(3):
            np.einsum("ij,j->i", np.exp(-0.7 / (1.5 + np.sin(self.grid))), self.weights)
        for j in range(30):
            level = np.maximum(3.0 - 1e-3 * j * self.k2g, 1.0 / (0.04 + 1.0 / self.gain))
            float(np.sum(np.maximum(1.0 / level - 1.0 / self.gain, 0.0)))

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def sampling(self):
        """Sample while the block runs; yields the list of kernel times.

        A block too short for the timer gets one reading at its end.
        """
        samples = self.samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            if not samples:
                self._on_alarm(None, None)


def run_rounds(wl, cli_main, seconds, tracer, sampler):
    """MIN_ROUNDS rounds, then more while one more round of average length
    still fits in `seconds` of round time.

    Returns each round's wall time net of the sampler's handler, each
    round's mean kernel time (None when traced: the sampler is off, so that
    spans hold only the program's time), the operations' outcomes and the
    check failures.
    """
    round_s, kernel_s, outcomes, fails = [], [], [], []
    sink = io.StringIO()
    args = wl.cli_args()
    while len(round_s) < MIN_ROUNDS or sum(round_s) * (1 + 1 / len(round_s)) <= seconds:
        if tracer is not None:
            tracer.start_op(str(len(round_s)))
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), (
                sampler.sampling() if sampler else contextlib.nullcontext([])) as samples:
            if tracer is None:
                code = cli_main(args)
            else:
                code = tracer.span(f"cli.{wl.command}", cli_main, args)
        round_s.append(time.perf_counter() - t0 - sum(samples))
        kernel_s.append(statistics.fmean(samples) if samples else None)
        sink.seek(0)
        sink.truncate()
        got, round_fails = wl.judge(code)
        if len(got) != wl.ops:
            round_fails.append(f"round reported {len(got)} operations, expected {wl.ops}")
        outcomes += got
        fails += round_fails
    return round_s, kernel_s, outcomes, fails


def main(argv=None):
    # Pin the thread pools before anything imports NumPy.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fso_isac" / "cli.py").is_file():
        print(f"error: no fso_isac sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from fso_isac import allocator, cli, monte_carlo, system

    work_dir = OUT / args.workload / str(os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        if not args.trace:
            setup_s, wall_setup_s = setup_seconds(wl.scenario)
        with contextlib.redirect_stdout(io.StringIO()):
            fails = wl.prepare(cli.main)

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            missing = tracer.install({"cli": cli, "allocator": allocator,
                                      "system": system, "monte_carlo": monte_carlo})
            for name in missing:
                print(f"warning: wrap point {name} not found; its layer reads 0",
                      file=sys.stderr)
        try:
            round_s, kernel_s, outcomes, round_fails = run_rounds(
                wl, cli.main, args.seconds, tracer, None if tracer else SpeedSampler())
        finally:
            if tracer is not None:
                tracer.uninstall()
        fails += round_fails
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(1 for f, _, _ in outcomes if f)
    wall_op_s = statistics.median(t / wl.ops for t in round_s)
    print(f"wall op_s {wall_op_s:.6g} over {len(round_s)} rounds", file=sys.stderr)
    if tracer is None:
        op_s = KERNEL_REFERENCE_S * statistics.median(
            t / wl.ops / k for t, k in zip(round_s, kernel_s))
        print(f"wall setup_s {wall_setup_s:.6g}; sampler kernel "
              f"{1e3 * min(kernel_s):.4g}..{1e3 * max(kernel_s):.4g} ms", file=sys.stderr)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s": (op_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "capacity_bps_hz": (statistics.fmean(c for _, c, _ in outcomes), "bps/Hz"),
            "fisher_per_m2": (statistics.fmean(i for _, _, i in outcomes), "1/m2"),
        }
    else:
        metrics = tracing.layer_metrics(tracer.spans, attempted)
        roots = sum(s["end"] - s["start"] for s in tracer.spans if s["parent"] is None)
        coverage = roots / sum(round_s)
        print(f"trace: {len(tracer.spans)} spans, top-level spans cover "
              f"{coverage:.6f} of round time", file=sys.stderr)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json", {
            "workload": args.workload, "seed": args.seed, "round_s": round_s,
            "ops_per_round": wl.ops, "coverage": coverage,
            "metrics": {k: v for k, (v, _) in metrics.items()},
        })
    for f in fails:
        print(f"check failed: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
