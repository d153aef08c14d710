"""Tests for the conf() operator: its Fig. 5/6 definition, the GRP sequence
inside eager/hybrid plans, and the scan schedule of the lazy plans.

The definition is the self-contained oracle ``oracles.semantics``; the
engine's ``reduce_relation`` and scan-based evaluator, and their row twins in
``oracles.rows``, are checked against it.
"""

import pytest

from repro.algebra.columnar import ColumnBatch
from repro.query.signature import parse_signature
from repro.sprout.conf_operator import reduce_relation
from repro.sprout.scans import apply_scan_schedule_columns, schedule_scans
from repro.sprout.engine import SproutEngine
from repro.sprout.planner import build_answer_plan_batch, project_answer_columns
from repro.storage.schema import ColumnRole

from helpers import assert_confidences_close, build_paper_database, paper_query
from oracles import rows
from oracles.semantics import apply_semantics, grp_statements

SIGNATURES = ["(Cust* (Ord* Item*)*)*", "(Cust (Ord Item*)*)*", "(Cust* (Ord Item*)*)*"]


def paper_answer_relation():
    """Materialised answer of the Introduction's query Q with V/P columns."""
    db = build_paper_database()
    query = paper_query()
    engine = SproutEngine(db)
    plan = build_answer_plan_batch(db, query, engine.planner.lazy_join_order(query))
    return project_answer_columns(plan, query).to_relation("Q")


class TestGrpStatements:
    def test_unrefined_signature_has_five_aggregations_two_propagations(self):
        # Example V.1 / Fig. 6: Q1..Q7.
        statements = grp_statements(parse_signature("(Cust* (Ord* Item*)*)*"))
        assert len(statements) == 7
        assert sum(1 for s in statements if s.startswith("aggregate")) == 5
        assert sum(1 for s in statements if s.startswith("propagate")) == 2

    def test_refined_signature_has_three_aggregations(self):
        statements = grp_statements(parse_signature("(Cust (Ord Item*)*)*"))
        assert sum(1 for s in statements if s.startswith("aggregate")) == 3

    def test_item_is_aggregated_before_ord(self):
        # Fig. 6 evaluates the right part of a concatenation first.
        statements = grp_statements(parse_signature("(Cust* (Ord* Item*)*)*"))
        item_position = next(i for i, s in enumerate(statements) if "Item" in s)
        ord_position = next(i for i, s in enumerate(statements) if "Ord*" in s and "Item" not in s)
        assert item_position < ord_position


class TestApplySemantics:
    @pytest.mark.parametrize("signature_text", SIGNATURES)
    def test_paper_example_probability(self, signature_text):
        # Example V.1: the distinct answer tuple has probability 0.0028 under
        # both the unrefined and the FD-refined signatures.
        answer = paper_answer_relation()
        result = apply_semantics(answer, parse_signature(signature_text))
        assert_confidences_close(result.confidences(), {("1995-01-10",): 0.0028})

    def test_steps_are_recorded_with_row_counts(self):
        answer = paper_answer_relation()
        result = apply_semantics(answer, parse_signature("(Cust* (Ord* Item*)*)*"))
        assert result.aggregation_count == 5
        assert result.propagation_count == 2
        assert all(
            step.rows_in >= step.rows_out for step in result.steps if step.kind == "aggregate"
        )

    @pytest.mark.parametrize("signature_text", SIGNATURES)
    def test_executed_steps_follow_the_static_translation(self, signature_text):
        signature = parse_signature(signature_text)
        result = apply_semantics(paper_answer_relation(), signature)
        statements = grp_statements(signature)
        assert [step.kind for step in result.steps] == [s.split("[")[0] for s in statements]
        assert [step.signature for step in result.steps] == [
            s.split("[", 1)[1].split("]")[0] for s in statements
        ]

    def test_the_answer_is_left_as_it_was(self):
        answer = paper_answer_relation()
        rows = list(answer.rows)
        apply_semantics(answer, parse_signature("(Cust* (Ord* Item*)*)*"))
        assert answer.rows == rows


class TestReduceRelation:
    """The GRP sequence the eager/hybrid planners run at plan nodes."""

    def test_reduce_relation_keeps_leader_pair(self):
        answer = paper_answer_relation()
        reduced, leader = reduce_relation(
            ColumnBatch.from_relation(answer), parse_signature("(Cust (Ord Item*)*)*")
        )
        assert leader == "Cust"
        pairs = reduced.schema.var_prob_pairs()
        assert [pair.source for pair in pairs] == ["Cust"]
        assert len(reduced) == 1

    @pytest.mark.parametrize("backend", ["engine", "rows"])
    @pytest.mark.parametrize("signature_text", SIGNATURES)
    def test_matches_semantics(self, signature_text, backend):
        answer = paper_answer_relation()
        signature = parse_signature(signature_text)
        if backend == "engine":
            reduced, leader = reduce_relation(ColumnBatch.from_relation(answer), signature)
            reduced = reduced.to_relation("Q")
        else:
            reduced, leader = rows.reduce_relation(answer, signature)
        schema = reduced.schema
        data = [i for i, a in enumerate(schema) if a.role is ColumnRole.DATA]
        prob = schema.index_of(schema.var_prob_pairs()[0].prob_name)
        confidences = {tuple(row[i] for i in data): row[prob] for row in reduced}
        assert_confidences_close(confidences, apply_semantics(answer, signature).confidences())


class TestScanScheduling:
    def test_refined_signature_needs_single_scan(self):
        schedule = schedule_scans(parse_signature("(Cust (Ord Item*)*)*"))
        assert schedule.total_scans == 1
        assert schedule.pre_aggregations == []

    def test_unrefined_signature_needs_three_scans(self):
        # Example V.11: [Ord*] and [Cust*] first, then the final 1scan pass.
        schedule = schedule_scans(parse_signature("(Cust* (Ord* Item*)*)*"))
        assert schedule.total_scans == 3
        aggregated = [step.aggregated_table for step in schedule.pre_aggregations]
        assert aggregated == ["Ord", "Cust"]
        # Fig. 6: aggregating [Ord*] turns every Ord* into Ord.
        after = [str(step.signature_after) for step in schedule.pre_aggregations]
        assert after == ["(Cust* (Ord Item*)*)*", "(Cust (Ord Item*)*)*"]
        assert str(schedule.final_signature) == "(Cust (Ord Item*)*)*"
        assert "scan" in schedule.describe()

    def test_composite_pre_aggregation(self):
        schedule = schedule_scans(parse_signature("((R S*)* (U W*)*)*"))
        assert schedule.total_scans == 2
        step = schedule.pre_aggregations[0]
        assert str(step.sub_signature) == "(R S*)*"
        # Section V.B: ancestors see the aggregate as its leftmost table.
        assert step.aggregated_table == "R"
        assert str(step.signature_after) == "(R (U W*)*)*"

    def test_apply_scan_schedule_matches_semantics(self):
        answer = paper_answer_relation()
        for text in ("(Cust* (Ord* Item*)*)*", "(Cust (Ord Item*)*)*"):
            signature = parse_signature(text)
            by_semantics = apply_semantics(answer, signature)
            by_rows, row_schedule = rows.apply_scan_schedule(answer, signature)
            by_scans, schedule = apply_scan_schedule_columns(
                ColumnBatch.from_relation(answer), signature
            )
            assert by_scans.rows == by_rows.rows
            assert schedule.total_scans == row_schedule.total_scans >= 1
            scans_confidences = {
                tuple(row[:-1]): row[-1] for row in by_scans
            }
            assert_confidences_close(scans_confidences, by_semantics.confidences())
