"""Run shape shared by every workload: set-ups, warm-up, timed passes, checks.

A run is three timed set-ups, one untimed warm-up pass that fixes the
reference digests and runs the cross-checks, then timed passes of the same
seeded schedule until ``--seconds`` have gone by, at least ``MIN_PASSES``.

Two estimators are chosen for this 2-core sandbox, whose neighbours slow a
pass by 10-25 % for seconds at a time and never speed one up (README,
"Measured noise").  Across passes a timing metric is the quartile on its good
side, which a burst covering half the run does not move; the median and both
quartiles are printed beside it.  Within a pass a percentile is the mean of
the order statistics within five points of it, because a pass is a few dozen
operation classes repeated and a single rank can sit on the cliff between two
classes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

MIN_PASSES = 7
MAX_PASSES = 40
SETUPS = 3


def spec():
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def scrubbed_env():
    """The environment every benchmark process runs in: no ``REPRO_*`` knob
    leaks in from the caller, and string hashing is pinned so set orders (and
    with them join and clause orders) repeat from run to run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def digest(value) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=12).hexdigest()


def result_digest(result) -> str:
    """Digest of an ``EvaluationResult``: rows, decision and bounds."""
    rows = sorted((tuple(row) for row in result.relation), key=repr)
    bounds = sorted(result.bounds.items(), key=repr)
    return digest((rows, result.decided, bounds))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(sorted_values, share, band=0.05):
    """Mean of the order statistics from ``share - band`` to ``share + band``.

    The nearest-rank p90 of ``safe_tpch`` lies exactly between the 4th and
    5th slowest of 40 operation classes and jumped between 42 and 53 ms from
    pass to pass; the band straddles such a cliff with fixed weights.  At 0.9
    of 120 samples the band is ranks 103-114 and six samples lie beyond it.
    """
    count = len(sorted_values)
    # round() first: 0.95 * 120 is 114.00000000000001 in binary floating point.
    low = min(count - 1, math.ceil(round((share - band) * count, 6)))
    high = max(low + 1, math.ceil(round((share + band) * count, 6)))
    return statistics.fmean(sorted_values[low:high])


class Workload:
    """One workload.  Subclasses fill in the hooks; ``run_pass`` is shared
    unless the load is concurrent (``service_mix``)."""

    name = ""
    #: Set by the traced run for the duration of one pass, else None.
    recorder = None

    def __init__(self, smoke=False):
        self.smoke = smoke

    def setup(self):
        """One full set-up from nothing (timed)."""
        raise NotImplementedError

    def teardown(self):
        """Release what ``setup`` acquired."""

    def schedule(self, seed):
        """The pass's operations, a pure function of ``seed``."""
        raise NotImplementedError

    def begin_pass(self):
        """Put the program in the state every pass starts from (untimed)."""

    def run_op(self, op):
        raise NotImplementedError

    def digest(self, op, result) -> str:
        return result_digest(result)

    def describe(self, op) -> dict:
        """Attributes of the operation's root span."""
        return {}

    def cross_check(self, ops, results):
        """Compare warm-up results with an independent route; error strings."""
        return []

    def probes(self, recorder, ops, values, absent):
        """Traced run only: layer metrics no span can give, into ``values``."""

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run_pass(self, ops, keep=None):
        """Run ``ops`` in order; ``[(seconds, digest)]``.  An exception is a
        digest starting with ``!``, which never matches a reference."""
        recorder = self.recorder
        outcomes = []
        for index, op in enumerate(ops):
            span = recorder.start("op", op=index, **self.describe(op)) if recorder else None
            started = perf_counter()
            try:
                result = self.run_op(op)
            except Exception as error:  # counted as a failed operation
                result = error
            elapsed = perf_counter() - started
            if span is not None:
                recorder.stop(span)
            if keep is not None:
                keep.append(result)
            if isinstance(result, Exception):
                outcomes.append((elapsed, f"!{type(result).__name__}: {result}"))
            else:
                outcomes.append((elapsed, self.digest(op, result)))
        return outcomes


def timed_pass(workload, ops, reference, errors):
    """One pass from the common start state: wall time, latencies, failures."""
    workload.begin_pass()
    gc.collect()  # every pass starts with the same (empty) young generations
    started = perf_counter()
    outcomes = workload.run_pass(ops)
    wall = perf_counter() - started
    failed = count_failures(outcomes, reference, errors)
    return wall, sorted(seconds for seconds, _ in outcomes), failed


def count_failures(outcomes, reference, errors):
    """Operations that raised or whose digest differs from the warm-up's."""
    failed = 0
    for index, ((_, found), expected) in enumerate(zip(outcomes, reference)):
        if found != expected or found.startswith("!"):
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {index}: {found} (reference {expected})")
    return failed


def warm_up(workload, ops, errors):
    """The untimed pass: reference digests plus the cross-checks."""
    workload.begin_pass()
    results = []
    outcomes = workload.run_pass(ops, keep=results)
    reference = [found for _, found in outcomes]
    errors.extend(workload.cross_check(ops, results))
    return reference


def environment():
    from repro.prob import backend_info  # names the backend and NumPy's version

    return {"nproc": os.cpu_count(), "python": platform.python_version(), **backend_info()}


def measure(workload, seed, seconds):
    """The end-to-end run (tracing off)."""
    setups = 1 if workload.smoke else SETUPS
    min_passes = 2 if workload.smoke else MIN_PASSES
    setup_seconds = []
    for _ in range(setups):
        workload.teardown()
        gc.collect()
        started = perf_counter()
        workload.setup()
        setup_seconds.append(perf_counter() - started)
    # Set-up objects live for the whole run: keep the collector from
    # re-walking them on every generation-2 pass.  Collection stays on.
    gc.collect()
    gc.freeze()

    errors = []
    ops = workload.schedule(seed)
    reference = warm_up(workload, ops, errors)
    passes = []
    attempted = failed = 0
    started = perf_counter()
    while len(passes) < min_passes or (
        perf_counter() - started < seconds and len(passes) < MAX_PASSES
    ):
        wall, latencies, bad = timed_pass(workload, ops, reference, errors)
        attempted += len(ops)
        failed += bad
        passes.append(
            {
                "ops_per_s": len(ops) / wall,
                "op_p50_ms": percentile(latencies, 0.5) * 1000.0,
                "op_p90_ms": percentile(latencies, 0.9) * 1000.0,
            }
        )
    peak = workload.peak_rss_mb()
    workload.teardown()

    metrics = {}
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms"):
        q1, q2, q3 = quartiles([p[name] for p in passes])
        good = q3 if name == "ops_per_s" else q1
        metrics[name] = {"value": good, "q1": q1, "median": q2, "q3": q3, "samples": len(passes)}
    q1, q2, q3 = quartiles(setup_seconds)
    metrics["setup_s"] = {
        "value": q2, "q1": q1, "median": q2, "q3": q3, "samples": len(setup_seconds)
    }
    metrics["peak_rss_mb"] = {"value": peak, "samples": 1}
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "metrics": metrics,
        "errors": errors,
        "environment": environment(),
    }


# -- traced run ---------------------------------------------------------------

# (metric, span, how).  ``ms_per_op`` is the span's inclusive time divided by
# the operations that entered it; ``ms_per_call`` divides by calls;
# ``count:k`` sums count ``k`` over the pass (exact, repeats bit for bit);
# ``ms_per:k`` divides inclusive time by that count; ``per_s:k`` is the count
# per second of inclusive time.
SPAN_METRICS = [
    ("query.parse_ms", "query.parse", "ms_per_op"),
    ("query.analyse_ms", "query.analyse", "ms_per_op"),
    ("sprout.planner.plan_ms", "sprout.planner.plan", "ms_per_op"),
    ("algebra.columnar.answer_ms", "algebra.columnar.answer", "ms_per_op"),
    ("algebra.columnar.rows_per_s", "algebra.columnar.answer", "per_s:rows"),
    ("algebra.row.answer_ms", "algebra.row.answer", "ms_per_op"),
    ("sprout.conf_operator.prob_ms", "sprout.conf_operator.prob", "ms_per_op"),
    ("sprout.conf_operator.scans", "sprout.conf_operator.prob", "count:scans"),
    ("prob.lineage.extract_ms", "prob.lineage.extract", "ms_per_op"),
    ("prob.lineage.clauses", "prob.lineage.extract", "count:clauses"),
    ("prob.dtree.confidence_ms", "prob.dtree.confidence", "ms_per_op"),
    ("prob.dtree.steps", "prob.dtree.confidence", "count:steps"),
    ("prob.dtree.ms_per_step", "prob.dtree.confidence", "ms_per:steps"),
    ("prob.sharedag.compile_ms", "prob.sharedag.compile", "ms_per_op"),
    ("prob.sharedag.nodes", "prob.sharedag.compile", "count:nodes"),
    ("prob.sharedag.refine_ms", "prob.sharedag.refine", "ms_per_op"),
    ("prob.sharedag.steps", "prob.sharedag.refine", "count:steps"),
    ("prob.sharedag.ms_per_step", "prob.sharedag.refine", "ms_per:steps"),
    ("sprout.topk.decide_ms", "sprout.topk.decide", "ms_per_op"),
    ("sprout.topk.finish_ms", "sprout.topk.finish", "ms_per_op"),
    ("prob.delta.update_ms", "prob.delta.update", "ms_per_call"),
    ("prob.delta.reseeded_rows", "prob.delta.update", "count:reseeded"),
    ("prob.delta.touched_nodes", "prob.delta.update", "count:touched"),
    ("sprout.streaming.refresh_ms", "sprout.streaming.refresh", "ms_per_call"),
    ("sprout.streaming.insert_ms", "sprout.streaming.insert", "ms_per_call"),
    ("sprout.streaming.delete_ms", "sprout.streaming.delete", "ms_per_call"),
    ("sprout.streaming.delta_steps", "sprout.streaming.refresh", "count:delta_steps"),
]


def span_metrics(recorder, layers):
    """Layer metrics read off one traced pass; ``(values, absent)``.

    A layer the pass never entered reads 0: that is the measurement, and it
    is how a workload shows which layers it bypasses."""
    values, absent = {}, {}
    for metric, span, how in SPAN_METRICS:
        reason = recorder.is_absent(span)
        if reason:
            absent[metric] = reason
            continue
        layer = layers.get(span)
        if layer is None:
            values[metric] = 0.0
            continue
        kind, _, key = how.partition(":")
        count = layer["counts"].get(key, 0)
        if kind == "ms_per_op":
            values[metric] = layer["ms"] / layer["ops"]
        elif kind == "ms_per_call":
            values[metric] = layer["ms"] / layer["calls"]
        elif kind == "count":
            values[metric] = count
        elif kind == "ms_per":
            values[metric] = layer["ms"] / count if count else 0.0
        else:  # per_s
            values[metric] = count / (layer["ms"] / 1000.0) if layer["ms"] else 0.0
    return values, absent


def probe(values, absent, metrics, function):
    """Run one probe; what it returns lands in ``values``, and if it raises,
    the ``metrics`` it feeds are reported absent with the reason."""
    try:
        values.update(function())
    except Exception as error:  # a deleted knob or internal: absent, not fatal
        for metric in metrics:
            absent[metric] = f"{type(error).__name__}: {error}"


def trace(workload, seed):
    """The traced run: one untraced and one traced pass plus the workload's
    probes; writes ``out/trace_<workload>.json``."""
    from tracing import Recorder

    recorder = Recorder()
    span = recorder.start("setup", op="setup")
    recorder.install()
    try:
        workload.setup()
    finally:
        recorder.uninstall()
    recorder.stop(span)
    setup_layers = recorder.summary()
    gc.collect()
    gc.freeze()

    errors = []
    ops = workload.schedule(seed)
    reference = warm_up(workload, ops, errors)
    plain_wall, _, failed = timed_pass(workload, ops, reference, errors)

    workload.begin_pass()
    first = len(recorder.spans)
    recorder.install()
    workload.recorder = recorder
    try:
        started = perf_counter()
        outcomes = workload.run_pass(ops)
        traced_wall = perf_counter() - started
    finally:
        workload.recorder = None
        recorder.uninstall()
    failed += count_failures(outcomes, reference, errors)
    layers = recorder.summary(first)

    values, absent = span_metrics(recorder, layers)
    reason = recorder.is_absent("tpch.generate")
    if reason:
        absent["tpch.generate_s"] = reason
    else:
        values["tpch.generate_s"] = setup_layers.get("tpch.generate", {"ms": 0.0})["ms"] / 1000.0
    values["bench.trace_overhead"] = traced_wall / plain_wall - 1.0
    workload.probes(recorder, ops, values, absent)
    workload.teardown()

    units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    # Every per-layer metric is printed on every workload.  One that this
    # workload has no probe for, or whose function is gone, prints 0;
    # ``bench.absent_layers`` says how many of the zeros mean "gone".
    values["bench.absent_layers"] = len(absent)
    not_measured = sorted(set(units) - set(values) - set(absent))
    metrics = {
        name: {"value": 0.0 if name in absent else values.get(name, 0.0), "unit": unit}
        for name, unit in units.items()
    }
    for name, reason in sorted(absent.items()):
        print(f"ABSENT {name}: {reason}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    recorder.dump(
        OUT / f"trace_{workload.name}.json",
        {
            "workload": workload.name,
            "seed": seed,
            "metrics": metrics,
            "absent": absent,
            "not_measured_on_this_workload": not_measured,
            "layers": layers,
        },
    )
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": not errors and failed == 0,
        "attempted": 2 * len(ops),
        "failed": failed,
        "metrics": metrics,
        "absent": absent,
        "not_measured": not_measured,
        "errors": errors,
    }
