"""Tests for the iterator-model plan operators (scan/select/project/joins/...),
and for the row group-by of the reference pipeline (``oracles.rows``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NumericalError, QueryError
from repro.algebra.aggregate import AggregateSpec, mystiq_log_prob_or, prob_or
from repro.algebra.expressions import Comparison
from repro.algebra.joins import HashJoinOp, MergeJoinOp, NestedLoopJoinOp, natural_join_attributes
from repro.algebra.operators import MaterializedOp, ProjectOp, ScanOp, SelectOp
from repro.storage.relation import Relation
from repro.storage.schema import Schema

from oracles.rows import GroupByOp


@pytest.fixture
def customers():
    return Relation(
        "Cust", Schema.of("ckey:int", "cname:str"), [(1, "Joe"), (2, "Dan"), (3, "Li")]
    )


@pytest.fixture
def orders():
    return Relation(
        "Ord",
        Schema.of("okey:int", "ckey:int", "total:float"),
        [(10, 1, 5.0), (11, 1, 7.5), (12, 2, 1.0), (13, 9, 2.0)],
    )


class TestBasicOperators:
    def test_scan(self, customers):
        scan = ScanOp(customers)
        assert list(scan) == customers.rows
        assert scan.rows_out == 3
        assert "Scan" in scan.label()

    def test_select(self, customers):
        select = SelectOp(ScanOp(customers), Comparison("cname", "=", "Joe"))
        assert list(select) == [(1, "Joe")]

    def test_project(self, customers):
        project = ProjectOp(ScanOp(customers), ["cname"])
        assert list(project) == [("Joe",), ("Dan",), ("Li",)]
        assert project.schema.names == ("cname",)

    def test_materialized(self, customers):
        op = MaterializedOp(customers, label="Temp")
        assert list(op) == customers.rows
        assert "Temp" in op.label()

    def test_to_relation_and_rows_processed(self, customers):
        plan = SelectOp(ScanOp(customers), Comparison("ckey", "<", 3))
        relation = plan.to_relation("filtered")
        assert len(relation) == 2
        assert plan.total_rows_processed() == 3 + 2


class TestJoins:
    def test_natural_join_attributes(self, customers, orders):
        assert natural_join_attributes(customers.schema, orders.schema) == ["ckey"]

    @pytest.mark.parametrize("join_class", [HashJoinOp, MergeJoinOp, NestedLoopJoinOp])
    def test_join_variants_agree(self, join_class, customers, orders):
        join = join_class(ScanOp(customers), ScanOp(orders))
        rows = sorted(join, key=repr)
        assert len(rows) == 3  # ckey 9 has no customer
        assert join.schema.names == ("ckey", "cname", "okey", "total")
        reference = sorted(HashJoinOp(ScanOp(customers), ScanOp(orders)), key=repr)
        assert rows == reference

    def test_join_on_explicit_attributes(self, customers, orders):
        join = HashJoinOp(ScanOp(orders), ScanOp(customers), on=["ckey"])
        assert len(list(join)) == 3

    def test_cross_product_with_empty_on(self, customers):
        regions = Relation("Region", Schema.of("rkey:int"), [(1,), (2,)])
        join = HashJoinOp(ScanOp(customers), ScanOp(regions), on=[])
        assert len(list(join)) == len(customers) * 2

    def test_null_join_keys_do_not_match(self):
        left = Relation("L", Schema.of("k:int", "x:str"), [(None, "a"), (1, "b")])
        right = Relation("R", Schema.of("k:int", "y:str"), [(None, "c"), (1, "d")])
        assert list(HashJoinOp(ScanOp(left), ScanOp(right))) == [(1, "b", "d")]

    def test_merge_join_requires_keys(self, customers, orders):
        with pytest.raises(QueryError):
            MergeJoinOp(ScanOp(customers), ScanOp(customers.renamed({"ckey": "x", "cname": "y"})))

    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=30),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_join_equivalence_property(self, left_rows, right_rows):
        left = Relation("L", Schema.of("k:int", "a:int"), left_rows)
        right = Relation("R", Schema.of("k:int", "b:int"), right_rows)
        variants = [
            sorted(cls(ScanOp(left), ScanOp(right), on=["k"]), key=repr)
            for cls in (HashJoinOp, MergeJoinOp, NestedLoopJoinOp)
        ]
        assert variants[0] == variants[1] == variants[2]


class TestAggregation:
    def test_prob_or(self):
        assert prob_or([0.5, 0.5]) == pytest.approx(0.75)
        assert prob_or([]) == 0.0

    def test_mystiq_log_prob_close_to_exact_for_small_inputs(self):
        exact = prob_or([0.2, 0.3])
        approximate = mystiq_log_prob_or([0.2, 0.3])
        assert approximate == pytest.approx(exact, abs=5e-3)

    def test_mystiq_log_prob_fails_on_long_disjunctions(self):
        with pytest.raises(NumericalError):
            mystiq_log_prob_or([0.9] * 100_000)

    def test_group_by(self, orders):
        group = GroupByOp(
            ScanOp(orders),
            ["ckey"],
            [
                AggregateSpec("count", "okey", "n"),
                AggregateSpec("sum", "total", "total_sum"),
                AggregateSpec("min", "okey", "first_okey"),
            ],
        )
        result = {row[0]: row[1:] for row in group}
        assert result[1] == (2, 12.5, 10)
        assert result[2] == (1, 1.0, 12)
        assert group.schema.names == ("ckey", "n", "total_sum", "first_okey")

    def test_group_by_preserves_roles(self):
        from repro.storage.schema import Attribute, ColumnRole

        schema = Schema(
            [
                Attribute("g:str".split(":")[0], "str"),
                Attribute("T.V", "int", ColumnRole.VAR, source="T"),
                Attribute("T.P", "float", ColumnRole.PROB, source="T"),
            ]
        )
        relation = Relation("t", schema, [("a", 1, 0.5), ("a", 2, 0.5)])
        group = GroupByOp(
            MaterializedOp(relation),
            ["g"],
            [AggregateSpec("min", "T.V", "T.V"), AggregateSpec("prob", "T.P", "T.P")],
        )
        output = group.to_relation()
        assert output.schema["T.V"].role is ColumnRole.VAR
        assert output.rows == [("a", 1, 0.75)]

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(QueryError):
            AggregateSpec("median", "a", "m")


class TestPlans:
    def test_materialise_and_explain(self, customers, orders):
        plan = ProjectOp(HashJoinOp(ScanOp(customers), ScanOp(orders)), ["cname", "total"])
        result = plan.to_relation("answer")
        assert len(result) == 3
        assert plan.total_rows_processed() > 0
        text = plan.explain()
        assert "HashJoin" in text and "Scan" in text
