"""Smoke tests of the benchmark itself: tiny passes, non-vacuous oracles, metric names.

Run with ``python3 -m pytest perfbench`` or ``python3 perfbench/test_smoke.py``
from the root of the source tree. Takes a few seconds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

# One wrong expected answer per workload; each must surface as a failed operation.
WRONG = {
    "verify": ("five.ca4_witness", (2,)),
    "census": ("census.per_hand", 61),
    "analyze": ("analyze.class_balance", {**workloads.EXPECT["analyze.class_balance"],
                                          "fact1": Fraction(1, 3)}),
}


def tiny_pass(workload: str, expect=workloads.EXPECT, trace: bool = True) -> measure.Recorder:
    rec = measure.Recorder(trace)
    workloads.RUNNERS[workload](rec, workloads.make_inputs(workload, 7, "tiny"), expect)
    return rec


def as_pass(rec: measure.Recorder) -> dict:
    """The shape run.py receives from a worker."""
    return {"setup_s": 0.01, "wall_s": 0.1, "rss_kib": 20000, "traced": rec.trace, "scale": 1.0,
            "latencies": rec.latencies, "failures": rec.failures,
            "counters": rec.counters, "spans": rec.spans}


def test_tiny_passes_are_correct_and_traced():
    for workload in workloads.WORKLOADS:
        rec = tiny_pass(workload)
        assert rec.latencies, workload
        assert rec.failures == [], (workload, rec.failures[:3])
        assert rec.spans and all(span is not None for span in rec.spans), workload
        layers = {span[3].split(".")[0] for span in rec.spans}
        assert layers - {"op"} <= set(run.LAYERS), layers


def test_wrong_expected_answer_counts_as_failure():
    for workload, (key, wrong) in WRONG.items():
        expect = copy.deepcopy(workloads.EXPECT)
        expect[key] = wrong
        rec = tiny_pass(workload, expect, trace=False)
        assert rec.failures, f"{workload}: wrong {key} went unnoticed"


def test_raising_operation_counts_as_failure():
    rec = measure.Recorder(trace=True)
    assert rec.op("boom", lambda: 1 // 0) is None
    assert len(rec.latencies) == 1 and "ZeroDivisionError" in rec.failures[0]


def test_self_time_subtracts_children():
    spans = [(0, -1, 0, "op.x", "", 0, 100), (1, 0, 0, "axioms.f", "", 10, 40),
             (2, 0, 0, "model.g", "", 50, 60)]
    assert run.self_times(spans) == {"op": 60 / 1e9, "axioms": 30 / 1e9, "model": 10 / 1e9}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        plain = [as_pass(tiny_pass(workload, trace=False))]
        traced = [as_pass(tiny_pass(workload))]
        e2e = run.end_to_end(plain * 100)
        layers = run.per_layer(plain, traced)
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
            (name, unit) for name, (_, unit) in e2e.items()]
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
            (name, unit) for name, (_, unit) in layers.items()]
        assert all(value > 0 for value, _ in e2e.values()), e2e


def test_refuses_to_run_without_source_tree():
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
