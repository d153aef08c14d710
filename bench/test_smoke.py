"""Smoke test of the benchmark itself (not collected by tier-1: run
``python -m pytest bench/test_smoke.py``).  Tiny sizes, real subprocesses."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run(*args):
    """``run.py --smoke`` over every workload; the last line, parsed."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", *args],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_lines(lines, expected):
    assert set(lines) == WORKLOADS
    for workload, line in lines.items():
        assert NAME.match(workload)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in expected}
        for metric, found in line["metrics"].items():
            assert NAME.match(metric)
            assert found["unit"]
            assert isinstance(found["value"], (int, float))


def test_every_workload_reports_every_end_to_end_metric():
    lines = run()
    check_lines(lines, SPEC["end_to_end"])
    for line in lines.values():
        assert all(found["value"] > 0 for found in line["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_nested_spans():
    lines = run("--trace", "1")
    check_lines(lines, SPEC["per_layer"])
    for workload, line in lines.items():
        assert line["metrics"]["bench.absent_layers"]["value"] == 0
        trace = json.loads((BENCH / "out" / f"trace_{workload}.json").read_text())
        assert trace["absent"] == {}
        spans = {span["id"]: span for span in trace["spans"]}
        assert any(span["name"] == "op" for span in spans.values())
        for span in spans.values():
            assert span["start"] <= span["end"]
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
                assert span["op"] == parent["op"]
