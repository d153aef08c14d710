"""Tests for join ordering, answer plans, and eager/hybrid evaluation."""

import pytest

from repro.errors import PlanningError
from repro.algebra.columnar import BatchProjectOp, BatchScanOp, BatchSelectOp
from repro.query.hierarchy import build_hierarchy
from repro.sprout.engine import SproutEngine
from repro.sprout.planner import (
    JoinOrderPlanner,
    base_table_plan_batch,
    build_answer_plan_batch,
    eager_evaluation,
    needed_data_attributes,
    project_answer_columns,
)
from repro.storage.schema import ColumnRole

from helpers import build_paper_database, paper_query
from oracles import rows
from oracles.worlds import evaluate_deterministic


def walk(plan):
    """Pre-order traversal of an operator tree."""
    yield plan
    for child in plan.children:
        yield from walk(child)


@pytest.fixture
def db():
    return build_paper_database()


@pytest.fixture
def query():
    return paper_query()


class TestBaseTablePlan:
    def test_needed_data_attributes(self, query):
        assert needed_data_attributes(query, "Cust") == ["ckey"]
        assert needed_data_attributes(query, "Ord") == ["okey", "ckey", "odate"]
        assert needed_data_attributes(query, "Item") == ["okey", "ckey"]

    def test_plan_structure(self, db, query):
        plan = base_table_plan_batch(db, query, "Cust")
        operators = list(walk(plan))
        assert any(isinstance(op, BatchScanOp) for op in operators)
        assert any(isinstance(op, BatchSelectOp) for op in operators)
        assert any(isinstance(op, BatchProjectOp) for op in operators)
        relation = plan.to_relation("cust")
        assert len(relation) == 1  # only Joe survives
        assert relation.schema.names == ("ckey", "Cust.V", "Cust.P")
        assert relation.rows == rows.base_table_plan(db, query, "Cust").to_relation("cust").rows

    def test_plan_without_selection(self, db, query):
        plan = base_table_plan_batch(db, query, "Ord")
        assert not any(isinstance(op, BatchSelectOp) for op in walk(plan))


class TestJoinOrder:
    def test_lazy_order_starts_with_most_selective_table(self, db, query):
        planner = JoinOrderPlanner(db)
        order = planner.lazy_join_order(query)
        assert order[0] == "Cust"
        assert set(order) == {"Cust", "Ord", "Item"}

    def test_lazy_order_prefers_connected_tables(self, db, query):
        planner = JoinOrderPlanner(db)
        order = planner.lazy_join_order(query)
        # every prefix is connected for this query
        assert order.index("Ord") < 3 and order.index("Item") < 3

    def test_hierarchical_order_joins_deep_subtree_first(self, db, query):
        planner = JoinOrderPlanner(db)
        tree = build_hierarchy(query.boolean_version())
        order = planner.hierarchical_join_order(query, tree)
        # The Ord/Item component is deeper than the Cust leaf, so it comes first.
        assert set(order[:2]) == {"Ord", "Item"}
        assert order[2] == "Cust"

    def test_filtered_cardinality(self, db, query):
        planner = JoinOrderPlanner(db)
        assert planner.filtered_cardinality(query, "Cust") < planner.filtered_cardinality(
            query, "Ord"
        )


class TestAnswerPlan:
    def test_build_and_project(self, db, query):
        order = ["Cust", "Ord", "Item"]
        plan = project_answer_columns(build_answer_plan_batch(db, query, order), query)
        relation = plan.to_relation("answer")
        assert len(relation) == 2  # the two derivations of the single answer tuple
        data_names = [a.name for a in relation.schema if a.role is ColumnRole.DATA]
        assert data_names == ["odate"]
        assert {pair.source for pair in relation.schema.var_prob_pairs()} == {"Cust", "Ord", "Item"}
        answer, _, _ = rows.materialize_answer(db, JoinOrderPlanner(db), query, order)
        assert relation.rows == answer.rows

    def test_any_join_order_gives_same_answer(self, db, query):
        reference = None
        for order in (["Cust", "Ord", "Item"], ["Ord", "Item", "Cust"], ["Item", "Cust", "Ord"]):
            plan = project_answer_columns(build_answer_plan_batch(db, query, order), query)
            answer = sorted(plan.to_relation("a").project(["odate"]).rows)
            if reference is None:
                reference = answer
            assert answer == reference

    def test_incomplete_join_order_rejected(self, db, query):
        with pytest.raises(PlanningError):
            build_answer_plan_batch(db, query, ["Cust", "Ord"])


class TestDeterministicEvaluation:
    def test_on_full_instance(self, db, query):
        instance = {
            name: db.table(name).relation.project(list(db.table(name).data_schema.names))
            for name in db.table_names()
        }
        answer = evaluate_deterministic(query, instance)
        assert answer.rows == [("1995-01-10",)]

    def test_boolean_query(self, db, query):
        instance = {
            name: db.table(name).relation.project(list(db.table(name).data_schema.names))
            for name in db.table_names()
        }
        answer = evaluate_deterministic(query.boolean_version(), instance)
        assert answer.rows == [()]


class TestEagerEvaluation:
    def test_eager_and_hybrid_compute_the_paper_probability(self, db, query):
        engine = SproutEngine(db)
        tree = engine.hierarchy_for(query)
        signature = engine.signature_for(query)
        for aggregate_leaves in (True, False):
            result = eager_evaluation(
                db, query, tree, signature, aggregate_leaves=aggregate_leaves,
                head_attributes=engine.planning_head(query),
            )
            pair = result.relation.schema.var_prob_pairs()[0]
            confidences = {
                row[0]: row[pair.prob_index] for row in result.relation.rows()
            }
            assert confidences["1995-01-10"] == pytest.approx(0.0028)
            row_result = rows.eager_evaluation(
                db, query, tree, signature, aggregate_leaves=aggregate_leaves,
                head_attributes=engine.planning_head(query),
            )
            assert list(result.relation.rows()) == row_result.relation.rows
            assert (result.leader, result.rows_processed) == (
                row_result.leader,
                row_result.rows_processed,
            )

    def test_rows_processed_reported(self, db, query):
        engine = SproutEngine(db)
        result = eager_evaluation(
            db, query, engine.hierarchy_for(query), engine.signature_for(query)
        )
        assert result.rows_processed > 0
