"""Unsafe-query confidence: exact d-tree compilation vs. anytime approximation.

Non-hierarchical queries have no safe plan and no signature; the engine
answers them by compiling each tuple's DNF lineage into a decomposition tree
held in its shared lineage store.
This benchmark tracks the latency of that path on the canonical unsafe query

    q() :- part(partkey), partsupp(partkey, suppkey), supplier(suppkey)

over the probabilistic TPC-H instance (800 partsupp clauses at SF 0.001),
plus a synthetic hub-structured instance whose supplier dimension is wide
enough that exact compilation (and the memoised Shannon expansion of the
tests' lineage oracle, ``tests/oracles/lineage.py``) is intractable while
the anytime bounds still converge in milliseconds; that instance is
compiled on the production path, a view of a fresh
:class:`repro.prob.sharedag.SharedDTreeCache` refined by
:func:`repro.prob.dtree.refine_to_budget`.  ``extra_info`` records the
achieved bound width so the CI artifact tracks approximation quality
alongside latency.
"""

from __future__ import annotations

import pytest

from repro import Atom, ConjunctiveQuery, SproutEngine
from repro.prob.dtree import karp_luby_probability, refine_to_budget
from repro.prob.sharedag import SharedDTreeCache
from repro.prob.synthetic import hub_lineage

from conftest import run_benchmark

EPSILONS = [0.05, 0.01, 0.001]


def unsafe_tpch_query() -> ConjunctiveQuery:
    return ConjunctiveQuery(
        "unsafe_partsupp",
        [
            Atom("part", ["partkey"]),
            Atom("partsupp", ["partkey", "suppkey"]),
            Atom("supplier", ["suppkey"]),
        ],
        projection=[],
    )


def shared_probability(dnf, probabilities, epsilon):
    """One cold compile into a fresh store, refined to ``epsilon``."""
    view = SharedDTreeCache().get(dnf, probabilities)
    return refine_to_budget(view, epsilon=epsilon)


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_unsafe_tpch_approx(benchmark, tpch_db, epsilon):
    """End-to-end engine latency of the anytime path on real TPC-H tables."""
    engine = SproutEngine(tpch_db)
    query = unsafe_tpch_query()
    result = run_benchmark(
        benchmark, engine.evaluate, query, confidence="approx", epsilon=epsilon
    )
    lower, upper = result.bounds[()]
    benchmark.extra_info["epsilon"] = epsilon
    benchmark.extra_info["clauses"] = result.answer_rows
    benchmark.extra_info["bound_width"] = upper - lower
    assert upper - lower <= 2 * epsilon + 1e-12


def test_unsafe_tpch_exact(benchmark, tpch_db):
    """Exact d-tree compilation on the same query (feasible: 10 supplier hubs)."""
    engine = SproutEngine(tpch_db)
    query = unsafe_tpch_query()
    result = run_benchmark(benchmark, engine.evaluate, query, plan="dtree")
    benchmark.extra_info["clauses"] = result.answer_rows
    benchmark.extra_info["confidence"] = result.boolean_confidence()


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_hub_lineage_approx(benchmark, epsilon):
    """Anytime bounds on the 25-hub instance where exact compilation blows up."""
    dnf, probabilities = hub_lineage()

    result = run_benchmark(
        benchmark, shared_probability, dnf, probabilities, epsilon
    )
    benchmark.extra_info["epsilon"] = epsilon
    benchmark.extra_info["clauses"] = len(dnf)
    benchmark.extra_info["steps"] = result.steps
    benchmark.extra_info["bound_width"] = result.gap
    assert result.gap <= 2 * epsilon + 1e-12


def test_hub_lineage_karp_luby(benchmark):
    """The Monte Carlo fallback on the same instance (5k samples)."""
    dnf, probabilities = hub_lineage()
    result = run_benchmark(
        benchmark, karp_luby_probability, dnf, probabilities, samples=5_000, seed=1
    )
    benchmark.extra_info["clauses"] = len(dnf)
    benchmark.extra_info["estimate"] = result.estimate
    benchmark.extra_info["half_width"] = result.half_width
