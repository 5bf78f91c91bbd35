"""Self-tests of the repo benchmark: its statistics, its span
arithmetic, ``BENCHMARK.json``, and a tiny-size smoke of every workload
(seconds, not a measurement run)."""

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from common import (Tracer, attach_by_containment, self_times,
                    sustained_rate, tail_percentile)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


@pytest.mark.parametrize("n, p", [(5, 100.0), (19, 100.0), (20, 50.0),
                                  (99, 50.0), (100, 90.0), (999, 90.0),
                                  (1000, 99.0), (9999, 99.0),
                                  (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_beyond(n, p):
    values = list(range(1, n + 1))
    got_p, value, count = tail_percentile(values[::-1])
    assert (got_p, count) == (p, n)
    assert value == math.ceil(Fraction(str(p)) * n / 100)  # nearest rank
    assert sum(v > value for v in values) >= 10 or p == 100.0


def _rung(rate, tail_ms, grew=False, failures=0):
    # 100 answered requests: the top fifth sets the p90 tail.
    lat = [1.0] * 80 + [tail_ms] * 20 + [math.inf] * failures
    return {"rate": rate, "latencies_ms": lat, "backlog_grew": grew}


def test_sustained_rate_is_highest_rung_meeting_the_limit():
    rungs = [_rung(10, 50), _rung(20, 90), _rung(40, 150), _rung(80, 50)]
    assert sustained_rate(rungs, limit_ms=100)["rate"] == 20


def test_sustained_rate_growing_backlog_or_failures_miss_the_limit():
    assert sustained_rate([_rung(10, 50), _rung(20, 50, grew=True)],
                          limit_ms=100)["rate"] == 10
    # Twenty failures of 120 attempts put the p90 tail at inf.
    assert sustained_rate([_rung(10, 50), _rung(20, 50, failures=20)],
                          limit_ms=100)["rate"] == 10
    assert sustained_rate([_rung(10, 500)], limit_ms=100) is None


def test_self_time_subtracts_covered_child_time_once():
    spans = [
        {"id": 0, "parent": None, "layer": "a", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "layer": "b", "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "layer": "b", "start": 3.0, "end": 6.0},
        {"id": 3, "parent": 1, "layer": "c", "start": 2.0, "end": 3.0},
        {"id": 4, "parent": None, "layer": "c", "start": 20.0, "end": 21.0},
    ]
    got = self_times(spans)
    # a: 10 - union([1,4],[3,6]) = 5; b: (3 - 1) + 3; c: 1 + 1.
    assert got == pytest.approx({"a": 5.0, "b": 5.0, "c": 2.0})


def test_imported_spans_attach_to_the_innermost_container():
    tracer = Tracer()
    with tracer.span("outer", "apps") as outer:
        with tracer.span("inner", "apps") as inner:
            pass
    mid = (inner["start"] + inner["end"]) / 2
    tracer.add("kernel", "engine", mid, mid)
    tracer.add("after", "engine", outer["end"] + 1.0, outer["end"] + 2.0)
    attach_by_containment(tracer.spans)
    parents = {s["name"]: s["parent"] for s in tracer.spans}
    assert parents == {"outer": None, "inner": outer["id"],
                       "kernel": inner["id"], "after": None}


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["better"] in ("higher", "lower")
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def _run(tmp_path, workload, trace):
    run_dir = tmp_path / f"{workload}-{trace}"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--tiny", "--run-dir", str(run_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert (run_dir / "result.json").exists()
    return result["metrics"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_runs_print_every_declared_metric(tmp_path, workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        metrics = _run(tmp_path, workload, trace)
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {n: m["unit"] for n, m in metrics.items()} == declared
        for metric in metrics.values():
            assert math.isfinite(metric["value"])
        if kind == "end_to_end":
            assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and its own files, the benchmark exits
    non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forward-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
