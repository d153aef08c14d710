"""Unit tests of the columnar batch operators against their row twins.

Every batch operator must produce exactly the relation (schema, rows, order)
its iterator-model counterpart produces — the engine relies on this to be
bit-identical with the row reference pipeline (``oracles.rows``).
"""

import pytest

from repro.algebra import (
    AggregateSpec,
    AttributeComparison,
    BatchHashJoinOp,
    BatchMaterializedOp,
    BatchProjectOp,
    BatchScanOp,
    BatchSelectOp,
    ColumnBatch,
    Comparison,
    Conjunction,
    Disjunction,
    HashJoinOp,
    MaterializedOp,
    Negation,
    ProjectOp,
    ScanOp,
    SelectOp,
    TruePredicate,
    compile_selection,
    group_by_columns,
    sort_batch,
)
from repro.errors import SchemaError
from repro.storage import Relation, Schema

from oracles.rows import GroupByOp


@pytest.fixture
def people():
    return Relation(
        "people",
        Schema.of("pid:int", "name:str", "age:int", "city:str"),
        [
            (1, "ann", 34, "oslo"),
            (2, "bob", 27, "bergen"),
            (3, "cec", None, "oslo"),
            (4, "dan", 41, None),
            (5, "eve", 27, "oslo"),
        ],
    )


@pytest.fixture
def visits():
    return Relation(
        "visits",
        Schema.of("pid:int", "place:str"),
        [
            (1, "museum"),
            (1, "park"),
            (2, "park"),
            (5, "museum"),
            (None, "harbor"),
            (6, "castle"),
        ],
    )


def assert_same_output(batch_op, row_op, name="out"):
    got = batch_op.to_relation(name)
    want = row_op.to_relation(name)
    assert got.schema == want.schema
    assert got.rows == want.rows  # identical rows in identical order


class TestColumnBatch:
    def test_roundtrip(self, people):
        batch = ColumnBatch.from_relation(people)
        assert len(batch) == len(people)
        assert list(batch.rows()) == people.rows
        assert batch.to_relation("copy").rows == people.rows

    def test_column_access(self, people):
        batch = ColumnBatch.from_relation(people)
        assert batch.column("name") == ["ann", "bob", "cec", "dan", "eve"]

    def test_take(self, people):
        batch = ColumnBatch.from_relation(people)
        taken = batch.take([4, 0])
        assert list(taken.rows()) == [people.rows[4], people.rows[0]]

    def test_arity_mismatch_raises(self, people):
        with pytest.raises(SchemaError):
            ColumnBatch(people.schema, [[1, 2]])

    def test_ragged_columns_raise(self):
        schema = Schema.of("a:int", "b:int")
        with pytest.raises(SchemaError):
            ColumnBatch(schema, [[1, 2], [3]])
        with pytest.raises(SchemaError):
            Relation.from_columns("r", schema, [[1, 2], [3]])

    def test_zero_column_batch_keeps_length(self):
        batch = ColumnBatch(Schema([]), [], length=3)
        assert len(batch) == 3
        assert list(batch.rows()) == [(), (), ()]


class TestBatchScan:
    def test_emits_all_rows_in_order(self, people):
        op = BatchScanOp(people)
        assert len(op.to_batch()) == op.rows_out == 5
        assert_same_output(BatchScanOp(people), ScanOp(people))

    def test_hands_over_the_cached_columns_themselves(self, people):
        batch = BatchScanOp(people).to_batch()
        assert all(a is b for a, b in zip(batch.columns, people.columns_cached()))

    def test_names_prune_the_scan(self, people):
        op = BatchScanOp(people, names=["city", "pid"])
        assert op.schema == people.schema.project(["city", "pid"])
        assert_same_output(op, ProjectOp(ScanOp(people), ["city", "pid"]))
        assert op.rows_out == 5
        assert op.to_batch().columns[0] is people.columns_cached()[3]

    def test_empty_relation(self, people):
        op = BatchScanOp(people.empty_like())
        assert len(op.to_batch()) == op.rows_out == 0
        assert op.to_batch().schema == people.schema

    def test_materialized_from_batch(self, people):
        batch = ColumnBatch.from_relation(people)
        assert BatchMaterializedOp(batch).to_relation().rows == people.rows


class TestBatchSelect:
    @pytest.mark.parametrize(
        "predicate",
        [
            TruePredicate(),
            Comparison("age", ">", 30),
            Comparison("age", "=", 27),
            Comparison("city", "=", "oslo"),
            Comparison("age", "!=", 27),
            Conjunction([Comparison("age", ">", 20), Comparison("city", "=", "oslo")]),
            Disjunction([Comparison("age", ">", 40), Comparison("city", "=", "bergen")]),
            Negation(Comparison("city", "=", "oslo")),
            AttributeComparison("pid", "<", "age"),
        ],
    )
    def test_matches_row_select(self, people, predicate):
        assert_same_output(
            BatchSelectOp(BatchScanOp(people), predicate),
            SelectOp(ScanOp(people), predicate),
        )

    def test_selection_handles_none_like_bind(self, people):
        # None never satisfies a comparison, matching Predicate.bind.
        rows = compile_selection(Comparison("age", ">", 0), people.schema)
        batch = ColumnBatch.from_relation(people)
        assert rows(batch, range(batch.length)) == [0, 1, 3, 4]
        assert rows(batch, [1, 2, 4]) == [1, 4]  # only the candidates are looked at


class TestBatchProject:
    def test_matches_row_project(self, people):
        names = ["city", "pid"]
        assert_same_output(
            BatchProjectOp(BatchScanOp(people), names),
            ProjectOp(ScanOp(people), names),
        )


class TestBatchHashJoin:
    def test_matches_row_hash_join(self, people, visits):
        assert_same_output(
            BatchHashJoinOp(BatchScanOp(people), BatchScanOp(visits)),
            HashJoinOp(ScanOp(people), ScanOp(visits)),
        )

    def test_multi_attribute_key(self, people):
        other = Relation(
            "other",
            Schema.of("pid:int", "age:int", "tag:str"),
            [(1, 34, "x"), (2, 27, "y"), (2, 99, "z"), (None, 27, "n")],
        )
        assert_same_output(
            BatchHashJoinOp(BatchScanOp(people), BatchScanOp(other)),
            HashJoinOp(ScanOp(people), ScanOp(other)),
        )

    def test_none_keys_do_not_match(self, people, visits):
        joined = BatchHashJoinOp(BatchScanOp(people), BatchScanOp(visits)).to_relation()
        assert all(row[0] is not None for row in joined.rows)
        assert "harbor" not in {row[-1] for row in joined.rows}

    def test_explicit_on(self, people, visits):
        assert_same_output(
            BatchHashJoinOp(BatchScanOp(people), BatchScanOp(visits), on=["pid"]),
            HashJoinOp(ScanOp(people), ScanOp(visits), on=["pid"]),
        )

    def test_cross_join_matches_row_join(self, people):
        # No shared attributes -> empty join key -> full cross product,
        # exactly like the row HashJoinOp.
        other = Relation("tags", Schema.of("tag:str"), [("x",), ("y",)])
        batch = BatchHashJoinOp(BatchScanOp(people), BatchScanOp(other))
        row = HashJoinOp(ScanOp(people), ScanOp(other))
        assert_same_output(batch, row)
        assert len(batch.to_relation()) == len(people) * len(other)


class TestBatchGroupBy:
    def test_matches_row_group_by(self, people):
        aggregates = [
            AggregateSpec("count", "pid", "n"),
            AggregateSpec("min", "name", "first_name"),
            AggregateSpec("sum", "pid", "pid_sum"),
        ]
        got = group_by_columns(ColumnBatch.from_relation(people), ["city"], aggregates)
        want = GroupByOp(ScanOp(people), ["city"], aggregates).to_relation("out")
        assert got.schema == want.schema
        assert list(got.rows()) == want.rows

    def test_empty_group_by_single_group(self, people):
        aggregates = [AggregateSpec("count", "pid", "n")]
        got = group_by_columns(ColumnBatch.from_relation(people), [], aggregates)
        want = GroupByOp(ScanOp(people), [], aggregates).to_relation("out")
        assert got.schema == want.schema
        assert list(got.rows()) == want.rows

    def test_group_by_columns_function(self, people):
        batch = ColumnBatch.from_relation(people)
        out = group_by_columns(batch, ["age"], [AggregateSpec("count", "pid", "n")])
        want = GroupByOp(MaterializedOp(people), ["age"], [AggregateSpec("count", "pid", "n")])
        assert list(out.rows()) == want.to_relation().rows


class TestBatchSort:
    def test_matches_relation_sort(self, people):
        by = ["city", "age"]
        got = sort_batch(ColumnBatch.from_relation(people), by)
        assert list(got.rows()) == people.sorted_by(by).rows

    def test_sort_batch_is_stable(self, people):
        batch = ColumnBatch.from_relation(people)
        out = sort_batch(batch, ["age"])
        ages = out.column("age")
        # None sorts first; ties keep original order (bob before eve).
        assert ages == [None, 27, 27, 34, 41]
        assert out.column("name") == ["cec", "bob", "eve", "ann", "dan"]

    def test_sort_empty_keys_returns_input(self, people):
        batch = ColumnBatch.from_relation(people)
        assert sort_batch(batch, []) is batch


class TestWorkMetric:
    def test_total_rows_processed_matches_row_plan(self, people, visits):
        predicate = Comparison("age", ">", 20)
        row_plan = HashJoinOp(SelectOp(ScanOp(people), predicate), ScanOp(visits))
        batch_plan = BatchHashJoinOp(
            BatchSelectOp(BatchScanOp(people), predicate),
            BatchScanOp(visits),
        )
        row_plan.to_relation()
        batch_plan.to_relation()
        assert batch_plan.total_rows_processed() == row_plan.total_rows_processed()
