"""The benchmark's tracer rebinds module attributes by name
(`perfbench/tracing.py`, WRAP_POINTS).  A renamed entry point would make its
layer read 0 in a traced run, so the names are checked here."""

import importlib
import importlib.util
from pathlib import Path

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


def test_verify_calls_ofdm_hooks(scenario_dir, tmp_path):
    # a desk verify reaches generate_frame and to_time_domain through the
    # monte_carlo names the tracer wraps
    tracing = load_tracing()
    tracer = tracing.Tracer()
    missing = tracer.install({"cli": cli, "allocator": allocator,
                              "system": system, "monte_carlo": monte_carlo})
    try:
        cli.main(["verify", "--scenario", str(scenario_dir / "desk.json"),
                  "--out", str(tmp_path), "--trials", "2"])
    finally:
        tracer.uninstall()
    assert missing == []
    names = {span["name"] for span in tracer.spans}
    assert {"ofdm.generate_frame", "ofdm.to_time_domain",
            "monte_carlo.rmse", "monte_carlo.clip_verify"} <= names
    assert monte_carlo.generate_frame.__module__ == "fso_isac.ofdm"
