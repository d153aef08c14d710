"""The columnar refinement core: vectorized passes vs. scalar (the PR 6 claim).

The probabilistic core now stores d-tree nodes in a columnar
:class:`repro.prob.nodetable.NodeTable` — kinds, child ranges, and bound
columns in parallel flat arrays — and propagates bounds in batched
per-level passes instead of per-node recursion.  With NumPy installed the
per-level pass runs as masked array kernels; without it an ``array``-module
scalar sweep computes the same thing.  This benchmark quantifies the claim
on the unsafe TPC-H brand query of ``bench_shared_lineage.py``

    q(p_brand) :- part(partkey, p_brand), partsupp(partkey, suppkey,
                  ps_availqty), supplier(suppkey), ps_availqty < 3000

pinned to SF 0.001, and asserts the acceptance contract:

* a full-table bound-propagation sweep (``refresh_all_bounds``) over the
  refined shared store runs **≥ 2× faster** under the NumPy backend than
  under the scalar backend (asserted only when NumPy is importable — the
  pure-Python leg records the scalar timing and skips the ratio gate);
* the two backends are **bit-identical**: the sweep leaves float-for-float
  the same bound columns behind, and full engine runs (top-k decision plus
  exact confidences) agree on confidences, bounds, decided sets, and step
  counts with ``vectorize`` on and off.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro import Atom, ConjunctiveQuery, SproutEngine
from repro.algebra import Comparison, conjunction_of
from repro.prob.backend import HAS_NUMPY, backend_info
from repro.prob.lineage import dtrees_from_dnfs
from repro.prob.sharedag import SharedDTreeCache
from repro.tpch import probabilistic_tpch

from conftest import run_benchmark

K = 10
AVAILQTY_CUT = 3000
VECTOR_SPEEDUP_FLOOR = 2.0
SWEEP_REPEATS = 50


@pytest.fixture(scope="module")
def core_db():
    return probabilistic_tpch(scale_factor=0.001, seed=7, probability_seed=11)


def brand_query(availqty_cut: int = AVAILQTY_CUT) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        "unsafe_brands",
        [
            Atom("part", ["partkey", "p_brand"]),
            Atom("partsupp", ["partkey", "suppkey", "ps_availqty"]),
            Atom("supplier", ["suppkey"]),
        ],
        projection=["p_brand"],
        selections=conjunction_of([Comparison("ps_availqty", "<", availqty_cut)]),
    )


def refined_store(db):
    """Compile the full brand-query lineage into a shared store and refine it.

    Mirrors what a top-k decision leaves behind: the store holds the
    hash-consed DAG for every candidate with partially refined bounds —
    the table a propagation sweep has to traverse.  The availqty cut is
    lifted so every partsupp clause participates (~10k table rows at
    SF 0.001); the decision-phase tests below keep the selective cut.
    """
    with SproutEngine(db, shared_lineage=True) as engine:
        answer = engine._answer_lineage(brand_query(10**9), None, "row")
    cache = SharedDTreeCache(vectorize=False)
    trees = dtrees_from_dnfs(answer.lineage, answer.probabilities, cache=cache)
    for tree in trees.values():
        tree.refine(64)
    return cache.store


def sweep_seconds(table, vectorize, repeats=SWEEP_REPEATS):
    started = perf_counter()
    for _ in range(repeats):
        table.refresh_all_bounds(vectorize=vectorize)
    return (perf_counter() - started) / repeats


def result_fingerprint(result):
    return (
        tuple(sorted(result.confidences().items())),
        tuple(sorted(result.bounds.items())),
        result.refine_steps,
        result.decided,
    )


def test_vectorized_sweep_throughput(benchmark, core_db):
    """The headline: the NumPy per-level pass beats the scalar sweep ≥ 2×."""
    store = refined_store(core_db)
    table = store.table

    before = (list(table.lower), list(table.upper))
    scalar_seconds = sweep_seconds(table, vectorize=False)
    vector_seconds = sweep_seconds(table, vectorize=True)
    # Bit-identical columns: propagation is idempotent on a refined table,
    # and the NumPy kernels replicate the scalar arithmetic exactly.
    assert (list(table.lower), list(table.upper)) == before

    run_benchmark(benchmark, table.refresh_all_bounds, vectorize=HAS_NUMPY)

    benchmark.extra_info["backend"] = backend_info()["backend"]
    benchmark.extra_info["numpy_available"] = HAS_NUMPY
    benchmark.extra_info["table_nodes"] = len(table)
    benchmark.extra_info["table_edges"] = len(table.edge_child)
    benchmark.extra_info["store_steps"] = store.steps
    benchmark.extra_info["scalar_sweep_seconds"] = scalar_seconds
    benchmark.extra_info["vector_sweep_seconds"] = vector_seconds
    benchmark.extra_info["vector_speedup"] = scalar_seconds / max(vector_seconds, 1e-12)

    if not HAS_NUMPY:
        pytest.skip("NumPy not installed — scalar timing recorded, ratio gate skipped")
    # The acceptance claim: ≥ 2x refinement-pass throughput from the
    # vectorized backend on the unsafe TPC-H table at SF 0.001.
    assert scalar_seconds >= VECTOR_SPEEDUP_FLOOR * vector_seconds


def test_backends_bit_identical_end_to_end(benchmark, core_db):
    """Engine runs with ``vectorize`` on and off agree to the bit."""
    def decide(vectorize):
        with SproutEngine(
            core_db, shared_lineage=True, vectorize=vectorize
        ) as engine:
            topk = engine.evaluate_topk(brand_query(), k=K)
            approx = engine.evaluate_topk(brand_query(), k=K, confidence="approx")
        return result_fingerprint(topk) + result_fingerprint(approx)

    scalar = decide(False)
    vectorized = run_benchmark(benchmark, decide, HAS_NUMPY)
    benchmark.extra_info["k"] = K
    benchmark.extra_info["refine_steps"] = scalar[2]
    benchmark.extra_info["backends_identical"] = scalar == vectorized
    assert scalar == vectorized
