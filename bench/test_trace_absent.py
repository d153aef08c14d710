"""Later changes may delete what the traced run wraps, and may not edit
``bench/``: a missing function must cost its own metrics, nothing else."""

from __future__ import annotations

import gc
import json
from pathlib import Path

import harness
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_deleted_function_reports_its_layer_absent(monkeypatch):
    import repro.sprout.onescan as onescan

    # The engine bound the name at import, so the program still runs; only
    # the tracer can no longer find the function where it used to live.
    monkeypatch.delattr(onescan, "columnar_lineage")
    try:
        result = harness.trace(workloads.load("unsafe_cold", smoke=True), seed=1)
    finally:
        gc.unfreeze()

    gone = {"prob.lineage.extract_ms", "prob.lineage.clauses"}
    assert set(result["absent"]) == gone
    for metric in gone:
        assert "columnar_lineage" in result["absent"][metric]
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["bench.absent_layers"]["value"] == len(gone)
    for survivor in ("prob.dtree.steps", "prob.sharedag.steps", "sprout.topk.decide_ms",
                     "algebra.columnar.answer_ms", "sprout.parallel.lanes2_ratio"):
        assert metrics[survivor]["value"] > 0


def test_deleted_knob_reports_its_probe_absent(monkeypatch):
    from repro.sprout import SproutEngine

    original = SproutEngine.__init__

    def without_lanes(self, *args, **kwargs):
        if "refine_lanes" in kwargs:
            raise TypeError("__init__() got an unexpected keyword argument 'refine_lanes'")
        original(self, *args, **kwargs)

    monkeypatch.setattr(SproutEngine, "__init__", without_lanes)
    try:
        result = harness.trace(workloads.load("unsafe_cold", smoke=True), seed=1)
    finally:
        gc.unfreeze()
    assert set(result["absent"]) == {"sprout.parallel.lanes2_ratio"}
    assert result["metrics"]["sprout.parallel.workers2_ratio"]["value"] > 0
