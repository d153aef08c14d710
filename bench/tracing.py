"""Span recorder that traces the program from the outside.

Nothing under ``src/`` knows about spans.  The traced run swaps wrappers onto
the public functions listed in ``TARGETS`` for the duration of one pass and
restores them afterwards.  A target that no longer exists is recorded in
``Recorder.absent`` with the reason, and every metric that needs it is
reported absent instead of crashing the run: later changes may delete
functions and may not edit this directory.

A span is ``(id, name, start, end, parent, op, counts)``.  Spans of one
benchmark operation share ``op``.  A layer's self time is its span minus
the part its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (span name, module, dotted attribute, counts taken from the call or None).
# A counts function receives (args, kwargs, result) and returns a dict of
# integers; it runs outside the span's clock.
TARGETS = [
    ("tpch.generate", "repro.tpch.datagen", "generate_tpch", None),
    ("tpch.generate", "repro.tpch.probabilistic", "make_probabilistic_tpch", None),
    ("query.parse", "repro.query.parser", "parse_query", None),
    ("query.analyse", "repro.sprout.engine", "SproutEngine.signature_for", None),
    ("query.analyse", "repro.sprout.engine", "SproutEngine.is_tractable", None),
    ("query.analyse", "repro.sprout.engine", "SproutEngine.hierarchy_for", None),
    ("sprout.planner.plan", "repro.sprout.planner", "JoinOrderPlanner.lazy_join_order", None),
    (
        "sprout.planner.plan",
        "repro.sprout.planner",
        "JoinOrderPlanner.hierarchical_join_order",
        None,
    ),
    (
        "algebra.columnar.answer",
        "repro.algebra.columnar",
        "BatchOperator.to_batch",
        lambda args, kwargs, result: {"rows": len(result)},
    ),
    ("algebra.columnar.answer", "repro.algebra.columnar", "sort_batch", None),
    (
        "algebra.row.answer",
        "repro.algebra.operators",
        "Operator.to_relation",
        lambda args, kwargs, result: {"rows": len(result)},
    ),
    (
        "sprout.conf_operator.prob",
        "repro.sprout.conf_operator",
        "compute_answer_confidences",
        lambda args, kwargs, result: {"scans": int(result[2])},
    ),
    ("sprout.conf_operator.prob", "repro.sprout.conf_operator", "reduce_relation", None),
    ("sprout.conf_operator.prob", "repro.sprout.planner", "_aggregate_pair", None),
    (
        "prob.lineage.extract",
        "repro.sprout.onescan",
        "columnar_lineage",
        lambda args, kwargs, result: {"clauses": sum(len(c) for c in result[0].values())},
    ),
    (
        "prob.lineage.extract",
        "repro.prob.lineage",
        "lineage_by_tuple",
        lambda args, kwargs, result: {"clauses": sum(len(d.clauses) for d in result.values())},
    ),
    (
        "prob.dtree.confidence",
        "repro.sprout.parallel",
        "compute_confidences",
        lambda args, kwargs, result: {"steps": sum(r.steps for r in result.values())},
    ),
    (
        "prob.sharedag.compile",
        "repro.prob.lineage",
        "dtrees_from_dnfs",
        lambda args, kwargs, result: {"nodes": len(kwargs["cache"].store.table)},
    ),
    ("prob.sharedag.compile", "repro.prob.sharedag", "SharedDTreeCache.get", None),
    (
        "prob.sharedag.refine",
        "repro.prob.sharedag",
        "SharedLineageStore.refine_round",
        lambda args, kwargs, result: {"steps": int(result)},
    ),
    (
        "prob.sharedag.refine",
        "repro.prob.sharedag",
        "SharedLineageStore.expand_leaf",
        lambda args, kwargs, result: {"steps": 1},
    ),
    ("sprout.topk.decide", "repro.sprout.topk", "run_decision", None),
    ("sprout.topk.finish", "repro.sprout.topk", "finish_selected", None),
    (
        "prob.delta.update",
        "repro.prob.sharedag",
        "SharedLineageStore.update_probability",
        lambda args, kwargs, result: {
            "reseeded": int(result.reseeded),
            "touched": len(result.touched),
        },
    ),
    (
        "sprout.streaming.refresh",
        "repro.sprout.streaming",
        "StandingQuery.refresh",
        lambda args, kwargs, result: {"delta_steps": int(result.delta_steps)},
    ),
    ("sprout.streaming.insert", "repro.sprout.streaming", "StandingQuery.insert_tuple", None),
    ("sprout.streaming.delete", "repro.sprout.streaming", "StandingQuery.delete_tuple", None),
    ("service.core.payload", "repro.service.core", "result_payload", None),
]


class Recorder:
    """Spans in memory; one stack per thread; written out when the run ends."""

    def __init__(self):
        self.spans = []
        self.absent = {}
        self.current_op = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name, op=None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            # A thread the program started (the service's refinement lane)
            # has no parent span: it works for the operation now running.
            op = self.current_op if parent is None else parent["op"]
        else:
            self.current_op = op
        span = {"name": name, "parent": None if parent is None else parent["id"], "op": op}
        if attrs:
            span["attrs"] = attrs
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        span["start"] = perf_counter()
        return span

    def stop(self, span):
        span["end"] = perf_counter()
        stack = self._stack()
        while stack and stack.pop() is not span:
            pass

    def wrap(self, name, function, counts=None):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = self.start(name)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                self.stop(span)
                raise
            self.stop(span)
            if counts is not None:
                try:
                    span["counts"] = counts(args, kwargs, result)
                except Exception as error:  # the call's shape changed
                    self.absent[name + ".counts"] = repr(error)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self):
        for name, module_name, attribute, counts in TARGETS:
            label = f"{module_name}.{attribute}"
            try:
                module = importlib.import_module(module_name)
                owner = module
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError) as error:
                self.absent[label] = f"{type(error).__name__}: {error}"
                continue
            traced = self.wrap(name, original, counts)
            if path:
                self._swap(owner, leaf, original, traced)
                continue
            # ``from m import f`` binds f in the importer too: swap every
            # binding of the same function object across the program.
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").split(".")[0] != "repro":
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._swap(loaded, key, original, traced)

    def _swap(self, owner, key, original, traced):
        setattr(owner, key, traced)
        self._undo.append((owner, key, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def is_absent(self, name):
        """Why span ``name`` cannot be trusted, or None.

        One missing target is enough: the layer changed shape, so what the
        remaining wrappers see is no longer the number the metric names.
        """
        reasons = [
            f"{module}.{attribute}: {self.absent[f'{module}.{attribute}']}"
            for span, module, attribute, _ in TARGETS
            if span == name and f"{module}.{attribute}" in self.absent
        ]
        if name + ".counts" in self.absent:
            reasons.append("counts: " + self.absent[name + ".counts"])
        return "; ".join(reasons) or None

    # -- analysis ------------------------------------------------------------

    def summary(self, first=0):
        """Per span name over ``spans[first:]``: calls, operations entered,
        inclusive and self milliseconds, and summed counts.

        Inclusive time counts outermost spans of a name only, so a wrapped
        function calling another wrapped function of the same layer is not
        counted twice.
        """
        spans = self.spans[first:]
        child_ms = defaultdict(float)
        for span in spans:
            if span["parent"] is not None:
                child_ms[span["parent"]] += (span["end"] - span["start"]) * 1000.0
        layers = {}
        for span in spans:
            layer = layers.setdefault(
                span["name"],
                {"calls": 0, "ops": set(), "ms": 0.0, "self_ms": 0.0, "counts": defaultdict(int)},
            )
            duration = (span["end"] - span["start"]) * 1000.0
            layer["calls"] += 1
            layer["ops"].add(span["op"])
            layer["self_ms"] += duration - child_ms[span["id"]]
            ancestor = span["parent"]
            while ancestor is not None and self.spans[ancestor]["name"] != span["name"]:
                ancestor = self.spans[ancestor]["parent"]  # a span's id is its index
            if ancestor is None:
                layer["ms"] += duration
            for key, value in span.get("counts", {}).items():
                layer["counts"][key] += value
        for layer in layers.values():
            layer["ops"] = len(layer["ops"])
            layer["counts"] = dict(layer["counts"])
        return layers

    def dump(self, path, extra):
        epoch = min((span["start"] for span in self.spans), default=0.0)
        spans = [
            dict(span, start=span["start"] - epoch, end=span["end"] - epoch)
            for span in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(dict(extra, absent_targets=self.absent, spans=spans), handle)
