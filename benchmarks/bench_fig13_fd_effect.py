"""Fig. 13: the effect of functional dependencies on the operator itself.

For queries 2, 7, 11 and B3 the paper compares, on the materialised answer of
the query: the time of a plain sequential scan, the time to sort the answer in
the operator's order, and the time of the confidence operator with and without
the TPC-H FDs (which decide how many scans it needs).  Paper numbers
(scale factor 1, seconds):

    query   seqscan   sort   operator(no FDs)   operator(FDs)   #rows   #distinct
    2          0.02    0.03              0.20            0.09     642         642
    7          0.02    0.07              0.66            0.02    5924         796
    11         0.09    0.12              4.23            0.40   31680       29818
    B3         0.01    0.03              0.05            0.03    4488           1

The engine's answer is one column batch, so the sort and the operator timed
here are the engine's columnar ones; the distinct tuples and confidences they
produce are checked against the row oracle (``tests/oracles/rows.py``).
"""

from __future__ import annotations

import pytest

from repro.algebra.columnar import sort_batch
from repro.query.signature import fully_starred, num_scans
from repro.sprout.onescan import sort_column_order
from repro.sprout.planner import build_answer_plan_batch, project_answer_columns
from repro.sprout.scans import apply_scan_schedule_columns
from repro.tpch import FIGURE13_KEYS, tpch_query

from conftest import run_benchmark
from oracles.rows import apply_scan_schedule

PAPER = {
    "2": {"seqscan": 0.02, "sort": 0.03, "no_fds": 0.20, "fds": 0.09, "rows": 642, "distinct": 642},
    "7": {
        "seqscan": 0.02, "sort": 0.07, "no_fds": 0.66, "fds": 0.02,
        "rows": 5924, "distinct": 796,
    },
    "11": {
        "seqscan": 0.09, "sort": 0.12, "no_fds": 4.23, "fds": 0.40,
        "rows": 31680, "distinct": 29818,
    },
    "B3": {"seqscan": 0.01, "sort": 0.03, "no_fds": 0.05, "fds": 0.03, "rows": 4488, "distinct": 1},
}


@pytest.fixture(scope="module")
def materialised_answers(tpch_db, engine):
    """Materialise each query's answer once, as the lazy plan would."""
    answers = {}
    for key in FIGURE13_KEYS:
        query = tpch_query(key).query
        order = engine.planner.lazy_join_order(query)
        plan = project_answer_columns(build_answer_plan_batch(tpch_db, query, order), query)
        answers[key] = (query, plan.to_batch(query.name))
    return answers


@pytest.mark.parametrize("key", FIGURE13_KEYS)
def test_fig13_seqscan(benchmark, materialised_answers, key):
    _, answer = materialised_answers[key]

    def scan():
        count = 0
        for _ in answer.rows():
            count += 1
        return count

    rows = run_benchmark(benchmark, scan)
    benchmark.extra_info["query"] = key
    benchmark.extra_info["answer_rows"] = rows
    benchmark.extra_info["paper_seconds_sf1"] = PAPER[key]["seqscan"]


@pytest.mark.parametrize("key", FIGURE13_KEYS)
def test_fig13_sorting(benchmark, engine, materialised_answers, key):
    query, answer = materialised_answers[key]
    signature = engine.signature_for(query, use_fds=True)
    order = sort_column_order(answer.schema, signature)
    run_benchmark(benchmark, sort_batch, answer, order)
    benchmark.extra_info["query"] = key
    benchmark.extra_info["paper_seconds_sf1"] = PAPER[key]["sort"]


@pytest.mark.parametrize("key", FIGURE13_KEYS)
@pytest.mark.parametrize("use_fds", [False, True], ids=["no_fds", "with_fds"])
def test_fig13_operator(benchmark, engine, materialised_answers, key, use_fds):
    query, answer = materialised_answers[key]
    # "Without FDs" means: the key constraints are not used to refine the
    # signature, so every relationship is treated as many-to-many and the
    # operator needs extra pre-aggregation scans (Section VII, experiment 3).
    refined = engine.signature_for(query, use_fds=True)
    signature = refined if use_fds else fully_starred(refined)

    def compute():
        return apply_scan_schedule_columns(answer, signature)

    result, schedule = run_benchmark(benchmark, compute)
    reference, _ = apply_scan_schedule(answer.to_relation(query.name), signature)
    assert sorted(result.rows) == sorted(reference.rows)
    benchmark.extra_info["query"] = key
    benchmark.extra_info["use_fds"] = use_fds
    benchmark.extra_info["scans"] = schedule.total_scans
    benchmark.extra_info["signature"] = str(signature)
    benchmark.extra_info["answer_rows"] = len(answer)
    benchmark.extra_info["distinct_tuples"] = len(result)
    benchmark.extra_info["paper_seconds_sf1"] = PAPER[key]["fds" if use_fds else "no_fds"]
    # With FDs the signatures of these four queries need a single scan, never
    # more than without FDs (the effect Fig. 13 demonstrates).
    if use_fds:
        assert schedule.total_scans == 1
    assert num_scans(refined) <= num_scans(fully_starred(refined))
