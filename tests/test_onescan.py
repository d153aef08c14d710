"""Tests for the scan-based confidence operator (Fig. 8), and of the columnar
operator against the row-at-a-time evaluators of ``oracles.rows``."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.columnar import ColumnBatch
from repro.errors import ProbabilityError, QueryError
from repro.prob.formulas import DNF
from repro.query.signature import ConcatSig, StarSig, TableSig, parse_signature
from repro.sprout.onescan import (
    compile_bag_probability,
    one_scan_operator_columns,
    sort_column_order,
)
from repro.sprout.scans import apply_scan_schedule_columns
from repro.storage.relation import Relation
from repro.storage.schema import Attribute, ColumnRole, Schema

from oracles.lineage import dnf_probability
from oracles.rows import (
    ColumnMap,
    OneScanState,
    apply_scan_schedule,
    group_probability,
    one_scan_operator,
    scan_confidences,
    streaming_scan_confidences,
)


def bag_schema(tables, data_columns=("d",)):
    """Schema of an answer relation with one V/P pair per table."""
    attributes = [Attribute(name, "str") for name in data_columns]
    for table in tables:
        attributes.append(Attribute(f"{table}.V", "int", ColumnRole.VAR, source=table))
        attributes.append(Attribute(f"{table}.P", "float", ColumnRole.PROB, source=table))
    return Schema(attributes)


def make_relation(tables, rows, data_columns=("d",)):
    return Relation("answer", bag_schema(tables, data_columns), rows)


def bag_dnf(rows, columns: ColumnMap):
    """DNF and probability map encoded by a bag of answer rows."""
    probabilities = {}
    clauses = []
    for row in rows:
        clause = []
        for table in columns.tables():
            variable = columns.var_of(row, table)
            probabilities[variable] = columns.prob_of(row, table)
            clause.append(variable)
        clauses.append(clause)
    return DNF(clauses), probabilities


class TestGroupProbability:
    def test_paper_bag(self):
        # x1 y1 z1 ∨ x1 y1 z2 factored as x1(y1(z1 ∨ z2)) = 0.0028.
        relation = make_relation(
            ["Cust", "Ord", "Item"],
            [
                ("1995-01-10", 1, 0.1, 5, 0.1, 7, 0.1),
                ("1995-01-10", 1, 0.1, 5, 0.1, 8, 0.2),
            ],
        )
        columns = ColumnMap(relation.schema)
        signature = parse_signature("(Cust (Ord Item*)*)*")
        assert group_probability(signature, relation.rows, columns) == pytest.approx(0.0028)

    def test_product_signature(self):
        # R* S*: the cross-product bag factors into independent OR groups.
        rows = [
            ("d", 1, 0.5, 10, 0.25),
            ("d", 1, 0.5, 11, 0.5),
            ("d", 2, 0.5, 10, 0.25),
            ("d", 2, 0.5, 11, 0.5),
        ]
        relation = make_relation(["R", "S"], rows)
        columns = ColumnMap(relation.schema)
        expected = (1 - 0.5 * 0.5) * (1 - 0.75 * 0.5)
        assert group_probability(parse_signature("R* S*"), rows, columns) == pytest.approx(expected)

    def test_single_table_with_multiple_variables_rejected(self):
        rows = [("d", 1, 0.5), ("d", 2, 0.5)]
        relation = make_relation(["R"], rows)
        columns = ColumnMap(relation.schema)
        with pytest.raises(ProbabilityError):
            group_probability(parse_signature("R"), rows, columns)

    def test_empty_bag_rejected(self):
        relation = make_relation(["R"], [])
        with pytest.raises(ProbabilityError):
            group_probability(parse_signature("R*"), [], ColumnMap(relation.schema))

    def test_non_1scan_group_rejected(self):
        rows = [("d", 1, 0.5, 2, 0.5)]
        relation = make_relation(["R", "S"], rows)
        with pytest.raises(QueryError):
            group_probability(parse_signature("(R* S*)*"), rows, ColumnMap(relation.schema))

    @given(
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=1, max_size=12
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_exact_dnf_probability_on_hierarchical_bags(self, pairs, rng):
        """Bags shaped like (R (S)*)* lineage match the exact DNF probability."""
        probabilities = {}

        def prob_of(variable, offset):
            if variable not in probabilities:
                probabilities[variable] = round(rng.uniform(0.05, 0.95), 3)
            return probabilities[variable]

        rows = []
        for r_value, s_value in sorted(set(pairs)):
            r_var = r_value  # R variable identified by its value
            s_var = 100 * r_value + s_value  # each S row joins exactly one R row
            rows.append(("d", r_var, prob_of(r_var, 0), s_var, prob_of(s_var, 100)))
        relation = make_relation(["R", "S"], rows)
        columns = ColumnMap(relation.schema)
        dnf, variable_probabilities = bag_dnf(rows, columns)
        expected = dnf_probability(dnf, variable_probabilities)
        actual = group_probability(parse_signature("(R S*)*"), rows, columns)
        assert actual == pytest.approx(expected, abs=1e-9)


class TestScanOperator:
    def build_two_bag_relation(self):
        rows = [
            ("a", 1, 0.1, 5, 0.1, 7, 0.1),
            ("a", 1, 0.1, 5, 0.1, 8, 0.2),
            ("b", 2, 0.2, 6, 0.3, 9, 0.4),
        ]
        return make_relation(["Cust", "Ord", "Item"], rows)

    def test_one_scan_operator(self):
        relation = self.build_two_bag_relation()
        signature = parse_signature("(Cust (Ord Item*)*)*")
        result = one_scan_operator(relation, signature)
        confidences = {row[0]: row[1] for row in result}
        assert confidences["a"] == pytest.approx(0.0028)
        assert confidences["b"] == pytest.approx(0.2 * 0.3 * 0.4)
        assert result.schema.names == ("d", "conf")

    def test_scan_confidences_requires_sorted_bags(self):
        relation = self.build_two_bag_relation()
        signature = parse_signature("(Cust (Ord Item*)*)*")
        columns = ColumnMap(relation.schema)
        results = dict(scan_confidences(relation.rows, columns, signature))
        assert set(results) == {("a",), ("b",)}

    def test_sort_column_order(self):
        relation = self.build_two_bag_relation()
        signature = parse_signature("(Cust (Ord Item*)*)*")
        order = sort_column_order(relation.schema, signature)
        assert order == ["d", "Cust.V", "Ord.V", "Item.V"]

    def test_streaming_matches_buffered(self):
        relation = self.build_two_bag_relation()
        signature = parse_signature("(Cust (Ord Item*)*)*")
        columns = ColumnMap(relation.schema)
        order = sort_column_order(relation.schema, signature)
        rows = relation.sorted_by(order).rows
        buffered = dict(scan_confidences(rows, columns, signature))
        streamed = dict(streaming_scan_confidences(rows, columns, signature))
        assert set(buffered) == set(streamed)
        for key in buffered:
            assert streamed[key] == pytest.approx(buffered[key])

    def test_streaming_rejects_many_to_many_products(self):
        relation = make_relation(["R", "S"], [("d", 1, 0.5, 2, 0.5)])
        with pytest.raises(QueryError):
            OneScanState(parse_signature("R* S*"), ColumnMap(relation.schema))

    def test_streaming_rejects_non_1scan(self):
        relation = make_relation(["R", "S"], [("d", 1, 0.5, 2, 0.5)])
        with pytest.raises(QueryError):
            OneScanState(parse_signature("(R* S*)*"), ColumnMap(relation.schema))

    def test_boolean_answer_no_data_columns(self):
        schema = bag_schema(["R"], data_columns=())
        relation = Relation("answer", schema, [(1, 0.3), (2, 0.5)])
        result = one_scan_operator(relation, parse_signature("R*"))
        assert len(result) == 1
        assert result.rows[0][-1] == pytest.approx(1 - 0.7 * 0.5)


# ---------------------------------------------------------------------------
# The compiled columnar evaluator against the row oracle, bit for bit
# ---------------------------------------------------------------------------


@st.composite
def signatures_with_leaders(draw, depth=0, names=None):
    """Nested Table/Concat/Star signatures over fresh table names; every
    starred composite leads with a star-free table (the 1scan shape)."""
    names = names if names is not None else iter(f"T{i}" for i in range(100))
    kinds = ["table", "star", "concat", "group"] if depth < 2 else ["table", "star"]
    kind = draw(st.sampled_from(kinds))
    if kind == "table":
        return TableSig(next(names))
    if kind == "star":
        return StarSig(TableSig(next(names)))
    parts = [
        draw(signatures_with_leaders(depth + 1, names))
        for _ in range(draw(st.integers(1 if kind == "group" else 2, 2)))
    ]
    if kind == "group":
        return StarSig(ConcatSig([TableSig(next(names))] + parts))
    return ConcatSig(parts)


@st.composite
def bags_for(draw, signature):
    """Answer rows of one bag shaped like ``signature``'s lineage: a star
    repeats its inner part over fresh variables, a concatenation is the
    cross product of its parts.  Rows are shuffled (so leader partitions are
    not contiguous) and some are repeated; variable ids are sparse."""
    counter = iter(range(7, 10_000, 13))
    probabilities = {}

    def instances(node):
        if isinstance(node, TableSig):
            variable = next(counter)
            probabilities[variable] = draw(st.floats(0.01, 0.99))
            return [{node.table: variable}]
        if isinstance(node, StarSig):
            return [
                row for _ in range(draw(st.integers(1, 3))) for row in instances(node.inner)
            ]
        rows = [{}]
        for part in node.parts:
            part_rows = instances(part)
            rows = [{**left, **right} for left in rows for right in part_rows]
        return rows

    tables = signature.tables()
    rows = [
        ("d",) + tuple(x for table in tables for x in (row[table], probabilities[row[table]]))
        for row in instances(signature)
    ]
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return make_relation(tables, draw(st.permutations(rows)))


def columns_of(relation):
    batch = ColumnBatch.from_relation(relation)
    columns = ColumnMap(batch.schema)
    return (
        {table: batch.columns[i] for table, i in columns.var_index.items()},
        {table: batch.columns[i] for table, i in columns.prob_index.items()},
    )


def outcome(evaluate):
    """A float's exact bits, or the error a path raised."""
    try:
        return evaluate().hex()
    except (ProbabilityError, QueryError) as error:
        return type(error), str(error)


class TestCompiledEvaluator:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_group_probability_bit_for_bit(self, data):
        signature = data.draw(signatures_with_leaders())
        relation = data.draw(bags_for(signature))
        var_columns, prob_columns = columns_of(relation)
        compiled = compile_bag_probability(signature, var_columns, prob_columns)
        row = outcome(
            lambda: group_probability(signature, relation.rows, ColumnMap(relation.schema))
        )
        assert outcome(lambda: compiled(range(len(relation)))) == row
        assert isinstance(row, str)  # the bag is shaped like the signature

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_pre_aggregation_buckets_equal_the_row_scans(self, data):
        # ((A ...)* (B ...)*)* has no top-level table: the first composite is
        # pre-aggregated per bucket by the compiled evaluator.
        names = iter(f"T{i}" for i in range(100))
        groups = [
            StarSig(
                ConcatSig([TableSig(next(names)), data.draw(signatures_with_leaders(1, names))])
            )
            for _ in range(2)
        ]
        signature = StarSig(ConcatSig(groups))
        relation = data.draw(bags_for(signature))
        assert apply_scan_schedule(relation, signature)[1].pre_aggregations
        row, _ = apply_scan_schedule(relation, signature)
        batch, _ = apply_scan_schedule_columns(ColumnBatch.from_relation(relation), signature)
        assert [r[:-1] + (r[-1].hex(),) for r in batch.rows] == [
            r[:-1] + (r[-1].hex(),) for r in row.rows
        ]

    def test_single_row_partitions_and_repeated_variables(self):
        signature = parse_signature("(Cust (Ord Item*)*)*")
        rows = [
            ("a", 30, 0.5, 5, 0.25, 7, 0.125),
            ("a", 10, 0.3, 6, 0.75, 8, 0.2),
            ("a", 30, 0.5, 5, 0.25, 7, 0.125),  # the same clause again
            ("a", 20, 0.9, 9, 0.6, 11, 0.35),
            ("a", 10, 0.3, 6, 0.75, 12, 0.45),  # leader 10 again, not adjacent
        ]
        relation = make_relation(["Cust", "Ord", "Item"], rows)
        compiled = compile_bag_probability(signature, *columns_of(relation))
        expected = group_probability(signature, rows, ColumnMap(relation.schema))
        assert compiled(range(len(rows))).hex() == expected.hex()
        assert compiled([1]).hex() == group_probability(
            signature, rows[1:2], ColumnMap(relation.schema)
        ).hex()

    def test_a_table_with_several_variables_raises_like_the_row_path(self):
        rows = [("d", 1, 0.5), ("d", 2, 0.5)]
        relation = make_relation(["R"], rows)
        compiled = compile_bag_probability(parse_signature("R"), *columns_of(relation))
        with pytest.raises(ProbabilityError) as batch_error:
            compiled(range(2))
        with pytest.raises(ProbabilityError) as row_error:
            group_probability(parse_signature("R"), rows, ColumnMap(relation.schema))
        assert str(batch_error.value) == str(row_error.value)

    def test_a_signature_without_a_leader_raises_at_compile_time(self):
        rows = [("d", 1, 0.5, 2, 0.5)]
        relation = make_relation(["R", "S"], rows)
        with pytest.raises(QueryError) as batch_error:
            compile_bag_probability(parse_signature("(R* S*)*"), *columns_of(relation))
        with pytest.raises(QueryError) as row_error:
            group_probability(parse_signature("(R* S*)*"), rows, ColumnMap(relation.schema))
        assert str(batch_error.value) == str(row_error.value)

    def test_an_empty_bag_is_rejected(self):
        relation = make_relation(["R"], [("d", 1, 0.5)])
        compiled = compile_bag_probability(parse_signature("R*"), *columns_of(relation))
        with pytest.raises(ProbabilityError):
            compiled([])

    def test_a_missing_variable_column_is_the_row_paths_query_error(self):
        # The batch holds only R's pair; the signature names S.
        relation = make_relation(["R"], [("d", 1, 0.5), ("d", 2, 0.25)])
        signature = StarSig(TableSig("s"))
        with pytest.raises(QueryError) as row_error:
            one_scan_operator(relation, signature)
        with pytest.raises(QueryError) as batch_error:
            one_scan_operator_columns(ColumnBatch.from_relation(relation), signature)
        assert str(batch_error.value) == str(row_error.value)
        assert str(row_error.value) == "no variable column for table 's'"
