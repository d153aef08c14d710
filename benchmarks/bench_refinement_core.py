"""The columnar refinement core: one full-table bound-propagation sweep.

The probabilistic core stores d-tree nodes in a columnar
:class:`repro.prob.nodetable.NodeTable` — kinds, child ranges, and bound
columns in parallel flat arrays — and propagates bounds in per-level passes
instead of per-node recursion.  This benchmark times a full-table sweep
(``refresh_all_bounds``) over the store the unsafe TPC-H brand query of
``bench_shared_lineage.py``

    q(p_brand) :- part(partkey, p_brand), partsupp(partkey, suppkey,
                  ps_availqty), supplier(suppkey)

leaves behind (its ``ps_availqty < 3000`` cut lifted), pinned to SF 0.001,
and asserts that the sweep is idempotent on a table that incremental
propagation already made consistent: it leaves float-for-float the same
bound columns behind.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro import Atom, ConjunctiveQuery, SproutEngine
from repro.algebra import Comparison, conjunction_of
from repro.prob.lineage import dtrees_from_dnfs
from repro.prob.sharedag import SharedDTreeCache
from repro.tpch import probabilistic_tpch

from conftest import run_benchmark

SWEEP_REPEATS = 50


@pytest.fixture(scope="module")
def core_db():
    return probabilistic_tpch(scale_factor=0.001, seed=7, probability_seed=11)


def brand_query() -> ConjunctiveQuery:
    """The brand query with its availqty cut lifted, so every partsupp
    clause participates (~10k table rows at SF 0.001)."""
    return ConjunctiveQuery(
        "unsafe_brands",
        [
            Atom("part", ["partkey", "p_brand"]),
            Atom("partsupp", ["partkey", "suppkey", "ps_availqty"]),
            Atom("supplier", ["suppkey"]),
        ],
        projection=["p_brand"],
        selections=conjunction_of([Comparison("ps_availqty", "<", 10**9)]),
    )


def refined_store(db):
    """Compile the full brand-query lineage into a shared store and refine it.

    Mirrors what a top-k decision leaves behind: the store holds the
    hash-consed DAG for every candidate with partially refined bounds —
    the table a propagation sweep has to traverse.
    """
    with SproutEngine(db) as engine:
        answer = engine._answer_lineage(brand_query(), None, "row")
    cache = SharedDTreeCache()
    trees = dtrees_from_dnfs(answer.lineage, answer.probabilities, cache=cache)
    for tree in trees.values():
        tree.refine(64)
    return cache.store


def sweep_seconds(table, repeats=SWEEP_REPEATS):
    started = perf_counter()
    for _ in range(repeats):
        table.refresh_all_bounds()
    return (perf_counter() - started) / repeats


def test_propagation_sweep(benchmark, core_db):
    """A full sweep over the refined store leaves every bound where it was."""
    store = refined_store(core_db)
    table = store.table

    before = (list(table.lower), list(table.upper))
    seconds = sweep_seconds(table)
    assert (list(table.lower), list(table.upper)) == before

    run_benchmark(benchmark, table.refresh_all_bounds)

    benchmark.extra_info["table_nodes"] = len(table)
    benchmark.extra_info["table_edges"] = len(table.edge_child)
    benchmark.extra_info["store_steps"] = store.steps
    benchmark.extra_info["sweep_seconds"] = seconds
