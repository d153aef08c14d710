"""Ablation: the scan-based operator versus the literal GRP-sequence semantics.

Not a figure of the paper, but the design choice Section V.C motivates: the
semantics of the operator (Fig. 5) suggests one independent aggregation pass
per signature star, whereas the implementation groups them into as few scans
as the signature allows.  This ablation measures both on the same materialised
answers — the engine's column batch for the scan side, the same rows for the
semantics side, which is the reference oracle the tests check the operator
against (``tests/oracles/semantics.py``), so the scan side's confidences are
asserted equal to it.
"""

from __future__ import annotations

import pytest

from repro.algebra.columnar import sort_batch
from repro.sprout.onescan import sort_column_order
from repro.sprout.planner import build_answer_plan_batch, project_answer_columns
from repro.sprout.scans import apply_scan_schedule_columns
from repro.tpch import tpch_query

from conftest import run_benchmark
from oracles.semantics import apply_semantics

KEYS = ["3", "18", "B17", "10"]


@pytest.fixture(scope="module")
def sorted_answers(tpch_db, engine):
    answers = {}
    for key in KEYS:
        query = tpch_query(key).query
        order = engine.planner.lazy_join_order(query)
        plan = project_answer_columns(build_answer_plan_batch(tpch_db, query, order), query)
        batch = plan.to_batch(query.name)
        signature = engine.signature_for(query)
        batch = sort_batch(batch, sort_column_order(batch.schema, signature))
        answers[key] = (signature, batch, batch.to_relation(query.name))
    return answers


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("method", ["scans", "semantics"])
def test_conf_method_ablation(benchmark, sorted_answers, key, method):
    signature, batch, answer = sorted_answers[key]

    if method == "scans":
        result = run_benchmark(
            benchmark, apply_scan_schedule_columns, batch, signature, presorted=True
        )
        relation = result[0]
    else:
        relation = run_benchmark(benchmark, apply_semantics, answer, signature).relation
    expected = apply_semantics(answer, signature).confidences()
    found = {tuple(row[:-1]): row[-1] for row in relation}
    assert found.keys() == expected.keys()
    assert all(found[data] == pytest.approx(expected[data], abs=1e-9) for data in expected)
    distinct = len(relation)

    benchmark.extra_info["query"] = key
    benchmark.extra_info["method"] = method
    benchmark.extra_info["signature"] = str(signature)
    benchmark.extra_info["answer_rows"] = len(answer)
    benchmark.extra_info["distinct_tuples"] = distinct
