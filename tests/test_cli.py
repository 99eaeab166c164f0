import os
import subprocess
import sys
from pathlib import Path

import pytest

from fso_isac.cli import main

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_seed_rejected_outside_verify(scenario_dir, command, tmp_path):
    argv = [command, "--seed", "1", "--scenario", str(scenario_dir / "desk.json"),
            "--out", str(tmp_path)]
    if command == "sweep":
        argv += ["--param", "precision_cm", "--values", "12"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
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
