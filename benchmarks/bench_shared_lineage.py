"""Shared-lineage DAG scheduling vs. per-tuple refinement (the PR 5 claim).

The top-k/threshold scheduler compiles candidate lineages into one
hash-consed DAG and, per logical step, expands the shared node with the
largest bound-width mass over the gating tuples.  This benchmark quantifies
the claim on the unsafe TPC-H brand query of ``bench_topk_pruning.py``

    q(p_brand) :- part(partkey, p_brand), partsupp(partkey, suppkey,
                  ps_availqty), supplier(suppkey), ps_availqty < 3000

and asserts the acceptance contract:

* deciding the top-10 brand set (and the τ = 0.9 partition) takes no more
  logical refinement steps than the per-tuple crossing-pair scheduler did.
  That scheduler was removed with the per-tuple compiler; its step counts on
  this exact instance, measured at commit 750851d, are the recorded
  ceilings :data:`PER_TUPLE_TOPK_STEPS` and :data:`PER_TUPLE_THRESHOLD_STEPS`;
* the decided sets and the exact confidences agree with the exact
  lineage oracle (``tests/oracles/lineage.py``: memoised Shannon expansion
  over each tuple's DNF, independent of the d-tree code) — sharing changes
  the work, never the answer.

The instance is pinned to SF 0.001 (independent of ``REPRO_TPCH_SF``):
step counts are a property of this exact workload and the contrast claim
is calibrated on it.  Logical steps are Shannon expansions — an expansion
of a node contained in many candidate lineages counts once, which is
exactly the saving being measured.  Every measured call builds a fresh
engine so no run starts from another's refined store.

``test_canonical_clause_caching`` additionally pins the satellite
micro-optimisation: the canonical clause serialisation is cached on the
DNF object, so re-canonicalising the same lineage (seed derivation and
snapshots) is O(1) after the first call.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro import Atom, ConjunctiveQuery, SproutEngine
from repro.algebra import Comparison, conjunction_of
from repro.prob.dtree import canonical_clauses
from repro.prob.formulas import DNF
from repro.tpch import probabilistic_tpch

from conftest import run_benchmark
from oracles.lineage import lineage_evaluate

K = 10
TAU = 0.9
AVAILQTY_CUT = 3000
TOLERANCE = 1e-12

#: Logical steps the per-tuple crossing-pair scheduler took on this instance
#: (commit 750851d): the approximate top-10 decision, the exact top-10
#: (decision plus finishing) and the approximate τ = 0.9 partition.
PER_TUPLE_TOPK_STEPS = 21
PER_TUPLE_EXACT_TOPK_STEPS = 48
PER_TUPLE_THRESHOLD_STEPS = 23


@pytest.fixture(scope="module")
def shared_db():
    return probabilistic_tpch(scale_factor=0.001, seed=7, probability_seed=11)


def brand_query() -> ConjunctiveQuery:
    return ConjunctiveQuery(
        "unsafe_brands",
        [
            Atom("part", ["partkey", "p_brand"]),
            Atom("partsupp", ["partkey", "suppkey", "ps_availqty"]),
            Atom("supplier", ["suppkey"]),
        ],
        projection=["p_brand"],
        selections=conjunction_of([Comparison("ps_availqty", "<", AVAILQTY_CUT)]),
    )


@pytest.fixture(scope="module")
def exact_confidences(shared_db):
    """Every brand's exact confidence from the lineage oracle."""
    return lineage_evaluate(shared_db, brand_query())


def decide_topk(db):
    """Decision phase only (approx mode: no exact-finishing steps mixed in)."""
    with SproutEngine(db) as engine:
        return engine.evaluate_topk(brand_query(), k=K, confidence="approx")


def assert_valid_topk(selected, exact):
    """``selected`` is *a* top-K set of ``exact`` (tie-tolerant)."""
    assert len(selected) == min(K, len(exact))
    weakest = min(exact[data] for data in selected)
    for data in set(exact) - set(selected):
        assert exact[data] <= weakest + TOLERANCE


def test_topk_shared_vs_per_tuple_scheduler(benchmark, shared_db, exact_confidences):
    """The headline: no more logical steps than the per-tuple scheduler."""
    shared = run_benchmark(benchmark, decide_topk, shared_db)
    assert shared.decided

    benchmark.extra_info["k"] = K
    benchmark.extra_info["shared_steps"] = shared.refine_steps
    benchmark.extra_info["legacy_serial_steps"] = PER_TUPLE_TOPK_STEPS
    benchmark.extra_info["speedup_vs_legacy_serial"] = (
        PER_TUPLE_TOPK_STEPS / max(1, shared.refine_steps)
    )

    # The shared-DAG scheduler never regresses against the per-tuple
    # crossing-pair path, and it proves a top-K set of the exact answer.
    assert shared.refine_steps <= PER_TUPLE_TOPK_STEPS
    assert_valid_topk(shared.confidences(), exact_confidences)


def test_topk_exact_confidences_match_the_lineage_evaluator(
    benchmark, shared_db, exact_confidences
):
    """Exact mode: the winners' confidences are the lineage evaluator's."""
    result = run_benchmark(
        benchmark, lambda: SproutEngine(shared_db).evaluate_topk(brand_query(), k=K)
    )
    benchmark.extra_info["shared_steps"] = result.refine_steps
    benchmark.extra_info["legacy_steps"] = PER_TUPLE_EXACT_TOPK_STEPS
    assert result.decided
    assert_valid_topk(result.confidences(), exact_confidences)
    for data, confidence in result.confidences().items():
        assert confidence == pytest.approx(exact_confidences[data], abs=TOLERANCE)
        lower, upper = result.bounds[data]
        assert upper - lower <= 1e-12


def test_threshold_shared_step_reduction(benchmark, shared_db, exact_confidences):
    """τ-partition: tracked alongside top-k (no 2x gate; ratio recorded)."""
    def decide():
        with SproutEngine(shared_db) as engine:
            return engine.evaluate_threshold(
                brand_query(), tau=TAU, confidence="approx"
            )

    shared = run_benchmark(benchmark, decide)
    benchmark.extra_info["tau"] = TAU
    benchmark.extra_info["shared_steps"] = shared.refine_steps
    benchmark.extra_info["legacy_serial_steps"] = PER_TUPLE_THRESHOLD_STEPS
    assert shared.decided
    assert set(shared.confidences()) == {
        data for data, confidence in exact_confidences.items() if confidence >= TAU
    }
    assert shared.refine_steps <= PER_TUPLE_THRESHOLD_STEPS


def test_repeat_topk_reuses_shared_store(benchmark, shared_db):
    """A second top-k over the same lineage re-reads warm shared views."""
    engine = SproutEngine(shared_db)
    engine.evaluate_topk(brand_query(), k=K)  # warm the store

    result = run_benchmark(benchmark, engine.evaluate_topk, brand_query(), K)
    benchmark.extra_info["refine_steps"] = result.refine_steps
    benchmark.extra_info["cache_hits"] = engine.dtree_cache.hits
    benchmark.extra_info["store_nodes"] = engine.dtree_cache.store.node_count
    assert result.decided
    assert result.refine_steps == 0
    assert engine.dtree_cache.hits > 0


def test_canonical_clause_caching(benchmark):
    """Satellite: canonical serialisation is computed once per DNF object."""
    dnf = DNF([[3 * i, 3 * i + 1, 3 * i + 2] for i in range(4000)])
    started = perf_counter()
    first = canonical_clauses(dnf)
    first_seconds = perf_counter() - started

    result = run_benchmark(benchmark, lambda: canonical_clauses(dnf))
    assert result is first  # the cached object itself, not a recomputation

    started = perf_counter()
    for _ in range(100):
        canonical_clauses(dnf)
    cached_seconds = (perf_counter() - started) / 100

    benchmark.extra_info["clauses"] = len(dnf)
    benchmark.extra_info["first_call_seconds"] = first_seconds
    benchmark.extra_info["cached_call_seconds"] = cached_seconds
    benchmark.extra_info["cache_speedup"] = first_seconds / max(cached_seconds, 1e-12)
    # The win the benchmark JSON tracks: cached reads are at least 10x the
    # full sort (in practice several orders of magnitude).
    assert cached_seconds * 10 <= first_seconds
