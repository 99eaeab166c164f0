"""The benchmark's tracer rebinds module attributes by name
(`perfbench/tracing.py`, WRAP_POINTS).  A renamed entry point would make its
layer read 0 in a traced run, so the names are checked here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fso_isac import allocator, cli, monte_carlo, system

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrap_points_resolve():
    tracing = load_tracing()
    assert tracing.WRAP_POINTS
    for mod_name, attr, _ in tracing.WRAP_POINTS:
        module = importlib.import_module(f"fso_isac.{mod_name}")
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def traced_main(argv):
    """cli.main(argv) under the benchmark's tracer; returns the exit code
    and the spans."""
    tracer = load_tracing().Tracer()
    missing = tracer.install({"cli": cli, "allocator": allocator,
                              "system": system, "monte_carlo": monte_carlo})
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert missing == []
    return code, tracer.spans


def test_verify_calls_ofdm_hooks(scenario_dir, tmp_path):
    # a desk verify reaches generate_frame and to_time_domain through the
    # monte_carlo names the tracer wraps
    _, spans = traced_main(["verify", "--scenario", str(scenario_dir / "desk.json"),
                            "--out", str(tmp_path), "--trials", "2"])
    names = {span["name"] for span in spans}
    assert {"ofdm.generate_frame", "ofdm.to_time_domain",
            "monte_carlo.rmse", "monte_carlo.clip_verify"} <= names
    assert monte_carlo.generate_frame.__module__ == "fso_isac.ofdm"


@pytest.mark.parametrize("argv, case", [
    (["solve"], "C"),
    (["sweep", "--param", "C0_bpshz", "--values", "0.5"], "F"),
], ids=["comm-solve", "sense-sweep-point"])
def test_allocator_calls_dual_hooks(scenario_dir, tmp_path, monkeypatch, argv, case):
    # the desk solve at 12 cm and a sweep point at 0.5 bps/Hz reach the
    # coupled dual, water-filling and the sensing LP through the allocator
    # names the tracer wraps; a step that bypassed them would read as a
    # zero dual layer in a traced run
    records = []

    def record(*args, _real=cli._solution_record):
        records.append(_real(*args))
        return records[-1]

    monkeypatch.setattr(cli, "_solution_record", record)
    command, *options = argv
    code, spans = traced_main([command, "--scenario", str(scenario_dir / "desk.json"),
                               "--out", str(tmp_path), *options])
    assert code == 0
    assert [r["case"] for r in records] == [case]
    duals = [s for s in spans if s["name"] == "allocator.dual"]
    assert duals
    # each dual call's trace has one more evaluation than it has alternations
    assert (sum(s["alternations"] for s in duals)
            == sum(records[0]["dual_iterations"]) - len(duals))
    assert {"allocator.waterfill", "allocator.sensing_lp"} <= {s["name"] for s in spans}
