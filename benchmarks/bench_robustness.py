"""Deadlines as anytime degradation on the unsafe brand query (PR 10).

Decision requests now carry an optional wall-clock :class:`repro.deadline.
Deadline`, checked only *between* refinement rounds — a round that has
started always commits, so the store is never torn and the bounds on a
deadline-cut answer are exactly the sound monotone brackets of the last
completed round.  This benchmark pins both halves of that contract on the
unsafe TPC-H brand top-10 of ``bench_shared_lineage.py``:

* **zero overhead and bit-equality without pressure** — a run with no
  deadline and a run with a generous (60 s) deadline produce identical
  fingerprints: same decided set, confidences, bounds, logical steps, and
  raw IEEE-754 bound bytes.  The deadline check is a clock read between
  rounds; with headroom it must not change a bit.  Timings for both legs
  land in the JSON so CI can watch the overhead stay at noise level.
* **sound degradation under pressure** — an already-expired deadline
  (0 ms) returns ``decided=False`` / ``degraded="deadline"`` after zero
  steps, and every reported bracket *contains* the fully-refined value
  from the no-deadline run (monotone shrinkage: earlier bounds are wider,
  never wrong).

The instance is pinned to SF 0.001 (independent of ``REPRO_TPCH_SF``):
step counts are a property of this exact workload.  Every measured call
builds a fresh engine so no run starts from another's refined store.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.deadline import Deadline
from repro.tpch import probabilistic_tpch
from repro.sprout import SproutEngine

from bench_shared_lineage import brand_query
from conftest import run_benchmark

K = 10
GENEROUS_MS = 60_000.0


@pytest.fixture(scope="module")
def robustness_db():
    return probabilistic_tpch(scale_factor=0.001, seed=7, probability_seed=11)


def _decide(db, deadline_ms):
    """One fresh-engine top-k decision; returns (result, fingerprint, secs)."""
    started = perf_counter()
    deadline = None if deadline_ms is None else Deadline.after_ms(deadline_ms)
    with SproutEngine(db) as engine:
        result = engine.evaluate_topk(
            brand_query(), k=K, confidence="approx", deadline=deadline
        )
        seconds = perf_counter() - started
        store = engine.dtree_cache.store
        fingerprint = (
            sorted(result.confidences().items()),
            sorted(result.bounds.items()),
            result.decided,
            result.degraded,
            result.refine_steps,
            store.steps,
            store.table.bounds_fingerprint(),
        )
    return result, fingerprint, seconds


def test_generous_deadline_is_free_and_bit_identical(benchmark, robustness_db):
    """A deadline with headroom changes nothing: not a bit, not a step."""
    _, unbounded, unbounded_seconds = _decide(robustness_db, None)
    result, bounded, bounded_seconds = run_benchmark(
        benchmark, _decide, robustness_db, GENEROUS_MS
    )

    assert bounded == unbounded, "a generous deadline changed the decision"
    assert result.decided
    assert result.degraded is None
    assert result.refine_steps > 0

    benchmark.extra_info["refine_steps"] = unbounded[4]
    benchmark.extra_info["seconds_no_deadline"] = unbounded_seconds
    benchmark.extra_info["seconds_generous_deadline"] = bounded_seconds
    benchmark.extra_info["overhead_ratio"] = bounded_seconds / max(
        unbounded_seconds, 1e-12
    )


def test_expired_deadline_degrades_inside_the_monotone_envelope(
    benchmark, robustness_db
):
    """0 ms: no steps, degraded answer, every bracket contains the truth."""
    full, _, _ = _decide(robustness_db, None)
    # Ground truth for *every* answer: the top-k result keeps confidences
    # only for decided tuples, so the envelope check needs full marginals.
    with SproutEngine(robustness_db) as engine:
        exact = engine.evaluate(brand_query()).confidences()
    cut, _, _ = run_benchmark(benchmark, _decide, robustness_db, 0.0)

    assert cut.decided is False
    assert cut.degraded == "deadline"
    assert cut.refine_steps == 0
    contained = 0
    for answer, (low, high) in cut.bounds.items():
        assert low - 1e-12 <= exact[answer] <= high + 1e-12, (
            f"deadline bracket [{low}, {high}] excludes the refined value "
            f"{exact[answer]} for {answer}"
        )
        contained += 1
    assert contained == len(exact)

    benchmark.extra_info["answers"] = contained
    benchmark.extra_info["full_refine_steps"] = full.refine_steps
    benchmark.extra_info["degraded_refine_steps"] = cut.refine_steps
