"""The pair summary of tools/bench_record.py, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

RECORDER = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture(scope="module")
def recorder():
    spec = importlib.util.spec_from_file_location("bench_record", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(workload, pair, side, op_s, capacity, trace=0):
    metrics = {"op_s": {"value": op_s}, "capacity_bps_hz": {"value": capacity}}
    return {"workload": workload, "pair": pair, "side": side, "trace": trace,
            "result": {"metrics": metrics}}


def test_summary_counts_pairs_by_direction(recorder):
    end_to_end = [{"name": "op_s", "better": "lower"},
                  {"name": "capacity_bps_hz", "better": "higher"}]
    runs = [
        run("w", 0, "base", 1.0, 0.5), run("w", 0, "head", 0.9, 0.5),
        run("w", 1, "head", 0.8, 0.6), run("w", 1, "base", 1.1, 0.5),
        run("w", 2, "base", 1.0, 0.5), run("w", 2, "head", 1.2, 0.4),
        # a pair with one side missing and a traced run are left out
        run("w", 3, "base", 9.0, 0.1),
        run("w", 0, "head", 0.1, 0.9, trace=1),
    ]
    summary = recorder.summarize(runs, end_to_end)["w"]
    assert summary["op_s"]["pairs"] == 3
    assert summary["op_s"]["head_better"] == 2
    assert summary["op_s"]["base"]["median"] == 1.0
    assert summary["op_s"]["head"]["median"] == 0.9
    # ties count for neither side
    assert summary["capacity_bps_hz"]["head_better"] == 1


def test_quartiles_of_one_run(recorder):
    assert recorder.quartiles([0.5]) == {"q1": 0.5, "median": 0.5, "q3": 0.5}


def test_clipping_stats_timing_of_this_checkout(recorder):
    timing = recorder.clipping_stats_ms(RECORDER.parent.parent)
    assert sorted(map(int, timing)) == list(recorder.STATS_SIZES)
    for row in timing.values():
        assert 0.0 < row["min_ms"] <= row["median_ms"]


def test_dual_solve_timing_of_this_checkout(recorder):
    timing = recorder.dual_solve_ms(RECORDER.parent.parent)
    assert sorted(timing) == ["comm", "sense"]
    for row in timing.values():
        assert 0.0 < row["min_ms"] <= row["median_ms"]
