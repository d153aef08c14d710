"""Oracle tests of the columnar kernels: scan, select, join, group-by, typed order, eager plans.

Each kernel in :mod:`repro.algebra.columnar` takes shortcuts the row
operators do not — the base-table scan reads only the columns a query
touches, a selection hands surviving row ids from part to part, the join
hashes whichever input is smaller and restores the order afterwards, the
group-by skips bucketing when every row is its own group, folds
``[leader*]`` aggregates in one hash pass, sorting and ``min``/``max`` drop
``sort_key_for`` on homogeneous columns.  The oracle is always the *row*
operator (from ``repro.algebra`` or ``oracles.rows``, or ``sort_key_for``
itself), and equality is on row **lists**: same rows, same order, same bits.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Atom, ConjunctiveQuery, ProbabilisticDatabase
from repro.algebra import (
    AGGREGATE_FUNCTIONS,
    AggregateSpec,
    AttributeComparison,
    BatchHashJoinOp,
    BatchScanOp,
    BatchSelectOp,
    ColumnBatch,
    Comparison,
    Conjunction,
    Disjunction,
    HashJoinOp,
    MaterializedOp,
    Negation,
    Predicate,
    ScanOp,
    SelectOp,
    TruePredicate,
    columnar,
    group_by_columns,
    sort_batch,
)
from repro.algebra.columnar import _naturally_ordered
from repro.errors import NumericalError
from repro.sprout import SproutEngine
from repro.sprout.planner import base_table_plan_batch
from repro.storage import Relation, Schema
from repro.storage.relation import sort_key_for

from oracles.rows import GroupByOp, RowEngine, base_table_plan
from test_differential_matrix import CORPUS

NAN = float("nan")

# Join keys: None is dropped, True/1/1.0 and False/0 collide as dict keys.
KEY_VALUES = st.sampled_from([None, True, 1, 1.0, False, 0, 2, "a", "b", 2.5])


# ---------------------------------------------------------------------------
# pruned base-table plan == ScanOp -> SelectOp -> ProjectOp
# ---------------------------------------------------------------------------

CELLS = st.sampled_from([None, 0, 1, 2, 3])

atomic_predicates = st.one_of(
    st.builds(
        Comparison,
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        st.sampled_from([0, 1, 2, 3]),
    ),
    st.builds(
        AttributeComparison,
        st.sampled_from(["a", "b"]),
        st.sampled_from(["=", "<", ">="]),
        st.sampled_from(["b", "c"]),
    ),
)
predicates = st.recursive(
    atomic_predicates,
    lambda inner: st.one_of(
        st.builds(Conjunction, st.lists(inner, min_size=2, max_size=3)),
        st.builds(Disjunction, st.lists(inner, min_size=2, max_size=3)),
        st.builds(Negation, inner),
    ),
    max_leaves=4,
)


def assert_pruned_plan_matches_row_plan(rows, projection, selection):
    db = ProbabilisticDatabase("scan")
    relation = Relation("T", Schema.of("a", "b", "c"), rows)
    db.add_table(relation, probabilities=[0.5] * len(rows))
    query = ConjunctiveQuery(
        "q", [Atom("T", ["a", "b", "c"])], projection=projection, selections=selection
    )
    row_plan = base_table_plan(db, query, "T")
    batch_plan = base_table_plan_batch(db, query, "T")
    want = row_plan.to_relation("out")
    got = batch_plan.to_relation("out")
    assert got.schema == want.schema
    assert got.rows == want.rows  # list equality: same rows in the same order
    assert batch_plan.total_rows_processed() == row_plan.total_rows_processed()
    assert batch_plan.explain().count("\n") == row_plan.explain().count("\n")  # same operators
    scan = batch_plan
    while scan.children:
        scan = scan.children[0]
    touched = set(projection) | selection.attributes() | {"T.V", "T.P"}
    assert list(scan.schema.names) == [
        n for n in db.relation("T").schema.names if n in touched
    ]


class TestPrunedScanAgainstRowPlan:
    @given(
        rows=st.lists(st.tuples(CELLS, CELLS, CELLS), max_size=8, unique=True),
        projection=st.sampled_from([[], ["a"], ["b"], ["c", "a"], ["a", "b", "c"]]),
        selection=st.one_of(st.just(TruePredicate()), predicates),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_rows_any_predicate_any_projection(self, rows, projection, selection):
        assert_pruned_plan_matches_row_plan(rows, projection, selection)

    ROWS = [(1, 2, 3), (None, 2, 0), (2, None, 3), (1, 0, None), (3, 3, 3)]

    @pytest.mark.parametrize(
        "projection,selection",
        [
            (["a"], Comparison("c", ">", 0)),  # predicate attribute outside the projection
            (["a", "c"], Comparison("c", ">", 0)),  # ... inside it
            (["b"], TruePredicate()),
            (["a", "b", "c"], TruePredicate()),  # nothing to project away
            (["b"], Conjunction([Comparison("a", ">=", 1), Comparison("c", "=", 3)])),
            (["b"], Disjunction([Comparison("a", "=", 3), Comparison("b", "=", 2)])),
            (["c"], Negation(Comparison("a", "=", 1))),  # None rows: NOT(None = 1) holds
            ([], AttributeComparison("a", "<", "b")),  # None on either side
            (["a"], Comparison("b", ">=", 0)),  # None-bearing predicate column
            (["a"], Comparison("c", "<=", 99)),  # every non-None row kept
            (["a"], Negation(Comparison("c", ">", 99))),  # all rows kept: batch passes through
            (["a"], Comparison("c", ">", 99)),  # none kept
        ],
    )
    def test_named_shapes(self, projection, selection):
        assert_pruned_plan_matches_row_plan(self.ROWS, projection, selection)

    @pytest.mark.parametrize(
        "selection", [TruePredicate(), Comparison("c", ">", 0)], ids=["true", "selective"]
    )
    def test_empty_relation(self, selection):
        assert_pruned_plan_matches_row_plan([], ["a"], selection)


# ---------------------------------------------------------------------------
# BatchSelectOp == SelectOp, over None cells and mixed types
# ---------------------------------------------------------------------------

MIXED_CELLS = st.sampled_from([None, 0, 1, 2, 2.5, True, "a", "b"])
MIXED_CONSTANTS = st.sampled_from([None, 0, 1, 2.5, True, "a"])
COMPARISON_OPS = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
COLUMN_NAMES = st.sampled_from(["a", "b", "c"])

mixed_predicates = st.recursive(
    st.one_of(
        st.builds(Comparison, COLUMN_NAMES, COMPARISON_OPS, MIXED_CONSTANTS),
        st.builds(AttributeComparison, COLUMN_NAMES, COMPARISON_OPS, COLUMN_NAMES),
        st.just(TruePredicate()),
    ),
    lambda inner: st.one_of(
        st.builds(Conjunction, st.lists(inner, max_size=3)),
        st.builds(Disjunction, st.lists(inner, max_size=3)),
        st.builds(Negation, inner),
    ),
    max_leaves=6,
)


def _select_both(relation, predicate):
    """``(rows, rows_out, total_rows_processed)`` or the exception type, row then batch."""
    outcomes = []
    for plan in (
        SelectOp(ScanOp(relation), predicate),
        BatchSelectOp(BatchScanOp(relation), predicate),
    ):
        try:
            rows = [tuple(map(_bits, row)) for row in plan.to_relation("s").rows]
            outcomes.append((rows, plan.rows_out, plan.total_rows_processed()))
        except Exception as error:  # the batch must fail exactly as the row select does
            outcomes.append(type(error))
    return outcomes


class TestSelectionAgainstRowSelect:
    @given(
        rows=st.lists(st.tuples(MIXED_CELLS, MIXED_CELLS, MIXED_CELLS), max_size=8),
        predicate=mixed_predicates,
    )
    @settings(max_examples=500, deadline=None)
    def test_any_rows_any_predicate(self, rows, predicate):
        row, batch = _select_both(Relation("t", Schema.of("a", "b", "c"), rows), predicate)
        assert batch == row

    ROWS = [(1, "x"), (2, None), (3, 5)]

    @pytest.mark.parametrize(
        "predicate,kept",
        [
            # `b < 10` on 'x' would raise; `a = 3` already rejected that row.
            (Conjunction([Comparison("a", "=", 3), Comparison("b", "<", 10)]), [(3, 5)]),
            # `b < 10` on 'x' would raise; `a < 3` already accepted that row.
            (Disjunction([Comparison("a", "<", 3), Comparison("b", "<", 10)]), ROWS),
        ],
        ids=["conjunction", "disjunction"],
    )
    def test_a_settled_row_is_never_compared_again(self, predicate, kept):
        relation = Relation("t", Schema.of("a:int", "b:str"), self.ROWS)
        row, batch = _select_both(relation, predicate)
        assert batch == row
        assert BatchSelectOp(BatchScanOp(relation), predicate).to_relation().rows == kept

    def test_both_raise_when_an_unsettled_row_cannot_compare(self):
        relation = Relation("t", Schema.of("a:int", "b:str"), self.ROWS)
        predicate = Conjunction([Comparison("a", "<", 3), Comparison("b", "<", 10)])
        assert _select_both(relation, predicate) == [TypeError, TypeError]

    def test_unknown_predicate_class_sees_only_the_candidates(self):
        seen = []

        class Recorded(Predicate):
            def evaluate(self, row):
                raise NotImplementedError

            def bind(self, schema):
                return lambda row: seen.append(row) or row[0] % 2 == 1

            def attributes(self):
                return frozenset({"a"})

        relation = Relation("t", Schema.of("a:int"), [(i,) for i in range(6)])
        predicate = Conjunction([Comparison("a", ">=", 2), Recorded()])
        got = BatchSelectOp(BatchScanOp(relation), predicate).to_relation().rows
        assert got == [(3,), (5,)]
        assert seen == [(2,), (3,), (4,), (5,)]

    def test_every_row_surviving_passes_the_batch_through(self):
        relation = Relation("t", Schema.of("a:int"), [(1,), (2,)])
        scan = BatchScanOp(relation)
        batch = BatchSelectOp(scan, Negation(Comparison("a", ">", 5))).to_batch()
        assert batch.columns[0] is relation.columns_cached()[0]


# ---------------------------------------------------------------------------
# BatchHashJoinOp == HashJoinOp
# ---------------------------------------------------------------------------


def _join_inputs(arity, left_keys, right_keys):
    key_names = [f"k{i}" for i in range(arity)]
    left = Relation(
        "L",
        Schema.of(*key_names, "a:int"),
        [tuple(keys[:arity]) + (100 + i,) for i, keys in enumerate(left_keys)],
    )
    right = Relation(
        "R",
        Schema.of(*key_names, "b:int"),
        [tuple(keys[:arity]) + (200 + i,) for i, keys in enumerate(right_keys)],
    )
    return left, right


def assert_join_matches_row_join(left, right):
    row_plan = HashJoinOp(ScanOp(left), ScanOp(right))
    batch_plan = BatchHashJoinOp(BatchScanOp(left), BatchScanOp(right))
    want = row_plan.to_relation("out")
    got = batch_plan.to_relation("out")
    assert got.schema == want.schema
    assert got.rows == want.rows  # list equality: same rows in the same order
    assert batch_plan.total_rows_processed() == row_plan.total_rows_processed()


key_rows = st.lists(st.tuples(KEY_VALUES, KEY_VALUES), max_size=7)


class TestJoinAgainstRowJoin:
    @given(
        arity=st.integers(0, 2),
        left_keys=key_rows,
        right_keys=key_rows,
    )
    @settings(max_examples=300, deadline=None)
    def test_any_sizes_any_keys(self, arity, left_keys, right_keys):
        left, right = _join_inputs(arity, left_keys, right_keys)
        assert_join_matches_row_join(left, right)

    @pytest.mark.parametrize(
        "left_size,right_size", [(3, 9), (9, 3), (6, 6), (0, 4), (4, 0), (0, 0), (1, 1)]
    )
    @pytest.mark.parametrize("arity", [0, 1, 2])
    def test_each_build_side_with_duplicates_on_both_sides(self, arity, left_size, right_size):
        # Keys cycle through a short pool, so both inputs repeat keys, hold a
        # None key and hold the True/1/1.0 collision, whichever side is hashed.
        pool = [(1, "x"), (True, "x"), (None, "x"), (2, None), (1.0, "x"), (2, "y")]
        left_keys = [pool[i % len(pool)] for i in range(left_size)]
        right_keys = [pool[(2 * i + 1) % len(pool)] for i in range(right_size)]
        left, right = _join_inputs(arity, left_keys, right_keys)
        assert_join_matches_row_join(left, right)

    @pytest.mark.parametrize("left_size,right_size", [(4, 12), (12, 4), (8, 8)])
    def test_distinct_build_keys_with_unmatched_probe_rows(self, left_size, right_size):
        # All-distinct keys on both sides take the one-map probe; the ranges
        # only partly overlap, and fully overlap when the sizes are equal.
        left, right = _join_inputs(
            1, [(i, None) for i in range(left_size)], [(i, None) for i in range(2, 2 + right_size)]
        )
        assert_join_matches_row_join(left, right)
        ascending = [(i, None) for i in range(left_size)]
        same, other = _join_inputs(1, ascending, ascending[::-1])
        assert_join_matches_row_join(same, other)


# ---------------------------------------------------------------------------
# group_by_columns == GroupByOp
# ---------------------------------------------------------------------------

ANY_VALUES = st.sampled_from([None, True, False, 0, 1, -3, 2.5, -0.0, NAN, "a", "b", 2**70])
NUMBERS = st.sampled_from([0, 1, -3, 7, 2.5, -0.0, 0.125, 1e300, 2**70])
PROBABILITIES = st.sampled_from([0.0, 1.0, 0.1, 0.3, 0.5, 0.7, 0.95, 1e-9, 1])

#: Value strategy per aggregate: the arithmetic folds need numbers, the
#: probability folds need probabilities, min/max/count take anything.
AGGREGATE_INPUTS = {
    "min": ANY_VALUES,
    "max": ANY_VALUES,
    "count": ANY_VALUES,
    "sum": NUMBERS,
    "product": NUMBERS,
    "prob": PROBABILITIES,
    "mystiq_prob": PROBABILITIES,
}


def test_every_aggregate_function_has_an_input_strategy():
    assert set(AGGREGATE_INPUTS) == set(AGGREGATE_FUNCTIONS)


def _run_both(relation, group_by, aggregates):
    """``(rows or exception type)`` from the row operator and from the kernel."""
    outcomes = []
    for run in (
        lambda: GroupByOp(MaterializedOp(relation), group_by, aggregates).to_relation("g"),
        lambda: group_by_columns(
            ColumnBatch.from_relation(relation), group_by, aggregates
        ).to_relation("g"),
    ):
        try:
            result = run()
            outcomes.append((result.schema, [tuple(map(_bits, row)) for row in result.rows]))
        except Exception as error:  # the kernel must fail exactly as the oracle does
            outcomes.append(type(error))
    return outcomes


def _bits(value):
    """Floats by their bits (so ``-0.0 != 0.0`` and ``nan == nan``), rest as is."""
    return ("float", value.hex()) if isinstance(value, float) else (type(value), value)


@st.composite
def grouping_case(draw, function):
    size = draw(st.integers(0, 9))
    shape = draw(st.sampled_from(["all_distinct", "one_group", "mixed"]))
    if shape == "all_distinct":
        groups = [(i, "g") for i in range(size)]
    elif shape == "one_group":
        groups = [(7, None)] * size
    else:
        groups = draw(
            st.lists(
                st.tuples(st.sampled_from([None, True, 1, 2, "x"]), st.sampled_from(["g", None])),
                min_size=size,
                max_size=size,
            )
        )
    values = draw(st.lists(AGGREGATE_INPUTS[function], min_size=size, max_size=size))
    width = draw(st.integers(0, 2))
    relation = Relation(
        "t",
        Schema.of("g0", "g1", "v"),
        [group + (value,) for group, value in zip(groups, values)],
    )
    return relation, ["g0", "g1"][:width]


class TestGroupByAgainstRowGroupBy:
    @pytest.mark.parametrize("function", sorted(AGGREGATE_FUNCTIONS))
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_every_function_every_shape(self, function, data):
        relation, group_by = data.draw(grouping_case(function))
        aggregates = [AggregateSpec(function, "v", "out"), AggregateSpec("count", "v", "n")]
        row, kernel = _run_both(relation, group_by, aggregates)
        assert kernel == row

    def test_single_row_prob_is_the_prob_or_arithmetic(self):
        # 1.0 - (1.0 - 0.1) is 0.09999999999999998, not 0.1: the all-distinct
        # short-cut must reproduce prob_or's rounding, not skip it.
        relation = Relation("t", Schema.of("g:int", "p:float"), [(1, 0.1), (2, 0.7)])
        batch = group_by_columns(
            ColumnBatch.from_relation(relation), ["g"], [AggregateSpec("prob", "p", "p")]
        )
        prob_or = AGGREGATE_FUNCTIONS["prob"]
        assert batch.columns[1] == [prob_or([0.1]), prob_or([0.7])]
        assert batch.columns[1][0] != 0.1

    @pytest.mark.parametrize("groups", [[1, 2, 3], [1, 1, 2]], ids=["all_distinct", "grouped"])
    def test_mystiq_prob_still_raises(self, groups):
        relation = Relation(
            "t", Schema.of("g:int", "p:float"), [(g, 1.5) for g in groups]
        )
        with pytest.raises(NumericalError):
            group_by_columns(
                ColumnBatch.from_relation(relation),
                ["g"],
                [AggregateSpec("mystiq_prob", "p", "p")],
            )

    def test_unhashable_keys_fail_like_the_row_operator(self):
        relation = Relation("t", Schema.of("g", "v"), [([1], 1), ([2], 2)])
        row, kernel = _run_both(relation, ["g"], [AggregateSpec("count", "v", "n")])
        assert row is kernel is TypeError


#: Grouping keys that collide as dict keys across types, plus ``None``.
COLLIDING_KEYS = st.sampled_from([1, 1.0, True, 0, 0.0, False, None, 2, "x"])
#: ``min`` inputs the fold takes (naturally ordered, with cross-type ties) ...
ORDERED_NUMBERS = st.sampled_from([1, 1.0, 0, -0.0, 0.0, 2, 2.0, -3, 2.5, 2**70, NAN])
ORDERED_STRINGS = st.sampled_from(["", "a", "b", "ab", "B"])
#: ... and the ones that must keep the bucket path and ``sort_key_for``.
UNORDERED = st.sampled_from([None, True, False, 1, 1.0, "a", 2.5])

LEADER_AGGREGATES = {
    "min,prob": [AggregateSpec("min", "v", "v"), AggregateSpec("prob", "p", "p")],
    "prob,min": [AggregateSpec("prob", "p", "p"), AggregateSpec("min", "v", "v")],
    "prob": [AggregateSpec("prob", "p", "p")],
    "min,min": [AggregateSpec("min", "v", "lo"), AggregateSpec("min", "v", "v")],
}


@st.composite
def leader_case(draw, min_inputs):
    size = draw(st.integers(0, 9))
    shape = draw(st.sampled_from(["all_distinct", "one_group", "mixed"]))
    if shape == "all_distinct":
        groups = [(i, "g") for i in range(size)]
    elif shape == "one_group":
        groups = [(1.0, None)] * size
    else:
        groups = draw(
            st.lists(st.tuples(COLLIDING_KEYS, COLLIDING_KEYS), min_size=size, max_size=size)
        )
    values = draw(st.lists(min_inputs, min_size=size, max_size=size))
    chances = draw(st.lists(PROBABILITIES, min_size=size, max_size=size))
    relation = Relation(
        "t",
        Schema.of("g0", "g1", "v", "p:float"),
        [group + (value, chance) for group, value, chance in zip(groups, values, chances)],
    )
    return relation, ["g0", "g1"][: draw(st.integers(0, 2))]


class TestOnePassFoldAgainstRowGroupBy:
    """``[leader*]``-shaped aggregation: exact (``_bits``) equality with the row operator."""

    @pytest.mark.parametrize("aggregates", sorted(LEADER_AGGREGATES))
    @pytest.mark.parametrize("kind", ["numbers", "strings"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_fold_equals_the_row_operator(self, aggregates, kind, data):
        inputs = ORDERED_NUMBERS if kind == "numbers" else ORDERED_STRINGS
        relation, group_by = data.draw(leader_case(inputs))
        row, kernel = _run_both(relation, group_by, LEADER_AGGREGATES[aggregates])
        assert kernel == row

    @pytest.mark.parametrize("function", ["sum", "count", "max"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_other_aggregates_beside_the_pair_keep_the_bucket_path(self, function, data):
        relation, group_by = data.draw(leader_case(st.sampled_from([0, 1, -3, 2.5, 7])))
        aggregates = LEADER_AGGREGATES["min,prob"] + [AggregateSpec(function, "v", "out")]
        row, kernel = _run_both(relation, group_by, aggregates)
        assert kernel == row

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_min_over_none_bool_or_mixed_columns_keeps_the_key_function(self, data):
        relation, group_by = data.draw(leader_case(UNORDERED))
        row, kernel = _run_both(relation, group_by, LEADER_AGGREGATES["min,prob"])
        assert kernel == row

    def test_which_path_runs(self, monkeypatch):
        calls = []
        bucket_rows = columnar._bucket_rows
        monkeypatch.setattr(
            columnar, "_bucket_rows", lambda keys: calls.append(1) or bucket_rows(keys)
        )
        pair = LEADER_AGGREGATES["min,prob"]

        def run(values, aggregates):
            rows = [(g, v, 0.5) for g, v in zip([1, 1, 2, 2], values)]
            batch = ColumnBatch.from_rows(Schema.of("g", "v", "p:float"), rows)
            group_by_columns(batch, ["g"], aggregates)
            return len(calls)

        assert run([3, 1, 2, 2], pair) == 0  # the fold
        assert run(["b", "a", "c", "c"], pair) == 0
        assert run([3, None, 2, 2], pair) == 1  # min over a None-bearing column
        assert run([3, True, 2, 2], pair) == 2  # ... over bool
        assert run([3, 1, 2, 2], pair + [AggregateSpec("count", "v", "n")]) == 3

    def test_first_occurrence_represents_a_group_of_hash_equal_keys(self):
        rows = [(1.0, 5, 0.5), (1, 4, 0.5), (True, 6, 0.5), (0, 1, 0.5), (False, 0, 0.5)]
        relation = Relation("t", Schema.of("g", "v", "p:float"), rows)
        row, kernel = _run_both(relation, ["g"], LEADER_AGGREGATES["min,prob"])
        assert kernel == row
        assert [r[0] for r in kernel[1]] == [_bits(1.0), _bits(0)]

    def test_min_ties_keep_the_first_of_equal_values(self):
        rows = [("g", 2, 0.5), ("g", 1.0, 0.5), ("g", 1, 0.5), ("g", True + 0, 0.5)]
        relation = Relation("t", Schema.of("g", "v", "p:float"), rows)
        row, kernel = _run_both(relation, ["g"], LEADER_AGGREGATES["min,prob"])
        assert kernel == row
        assert kernel[1][0][1] == _bits(1.0)

    def test_prob_multiplies_in_row_order(self):
        # Float products are not associative: the two orders below differ in
        # the last bit, and each must equal prob_or over its own row order.
        prob_or = AGGREGATE_FUNCTIONS["prob"]
        chances = [0.3, 0.7, 0.95]
        assert prob_or(chances) != prob_or(chances[::-1])
        for order in (chances, chances[::-1]):
            rows = [("g", 0, p) for p in order] + [("h", 0, 0.3)]
            batch = ColumnBatch.from_rows(Schema.of("g", "v", "p:float"), rows)
            out = group_by_columns(batch, ["g"], LEADER_AGGREGATES["min,prob"])
            assert out.columns[2] == [prob_or(order), prob_or([0.3])]

    @pytest.mark.parametrize("group_by", [[], ["g0"], ["g0", "g1"]])
    def test_empty_input(self, group_by):
        relation = Relation("t", Schema.of("g0", "g1", "v", "p:float"), [])
        row, kernel = _run_both(relation, group_by, LEADER_AGGREGATES["min,prob"])
        assert kernel == row
        assert kernel[1] == []


class TestMinFoldOverOrderedColumns:
    """The one-pass ``min`` fold on sorted, descending and ``NaN`` columns: the row operator's bits."""

    @staticmethod
    def _run(groups, values, group_by=("g",)):
        relation = Relation(
            "t", Schema.of("g", "v", "p:float"), [(g, v, 0.5) for g, v in zip(groups, values)]
        )
        row, kernel = _run_both(relation, list(group_by), LEADER_AGGREGATES["min,prob"])
        assert kernel == row
        return kernel

    @given(
        data=st.data(),
        kind=st.sampled_from(["numbers", "strings"]),
        ordered=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_row_operator(self, data, kind, ordered):
        pool = ORDERED_NUMBERS if kind == "numbers" else ORDERED_STRINGS
        size = data.draw(st.integers(0, 9))
        values = data.draw(st.lists(pool, min_size=size, max_size=size))
        if ordered:
            values = sorted(value for value in values if value == value)  # NaN-free, ascending
        groups = data.draw(st.lists(COLLIDING_KEYS, min_size=len(values), max_size=len(values)))
        self._run(groups, values)

    @pytest.mark.parametrize(
        "values",
        [
            [1, 1.0, 2],  # tied int/float: the first object wins
            [1.0, 1, 2],
            [0.0, -0.0, 1],  # tied zeros: the bits of the first
            [-0.0, 0.0, 1],
            [1, 2, 2.5],
            [3, 2, 1],  # a descent
            [1, NAN, 2],
            [NAN, 1, 2],
            ["a", "ab", "b"],
            ["b", "a", "c"],
        ],
    )
    def test_named_columns(self, values):
        # Groups g={rows 0, 1}, h={row 2}: one two-row group beside a single-row group.
        self._run(["g", "g", "h"], values)

    def test_nan_hides_a_descent_from_neighbour_checks(self):
        # No adjacent pair of [2, NaN, 1] descends under `<`, yet the minimum is 1.
        kernel = self._run(["g"] * 3, [2, NAN, 1])
        assert kernel[1][0][1] == _bits(1)

    def test_single_row_groups_beside_a_long_one(self):
        values = [0, 1, 1, 2, 3, 5, 8]
        kernel = self._run(["a", "b", "c", "c", "c", "d", "c"], values)
        assert [r[1] for r in kernel[1]] == [_bits(v) for v in (0, 1, 1, 5)]

    @pytest.mark.parametrize("group_by", [[], ["g"]])
    def test_empty_input(self, group_by):
        assert self._run([], [], group_by)[1] == []


# ---------------------------------------------------------------------------
# the typed-order predicate
# ---------------------------------------------------------------------------

NUMERIC_POOL = [0, 1, -1, 3, 2**53, 2**53 + 1, 2**64, -(2**64), 0.0, -0.0, 1.0, 2.5,
                float(2**53), 1e308, -1e308, math.inf, -math.inf, NAN, float("nan")]
STRING_POOL = ["", "a", "A", "b", "ab", "10", "9", "é", "z"]
OTHER_POOL = [None, True, False]

columns_by_kind = st.one_of(
    st.lists(st.sampled_from(NUMERIC_POOL), max_size=12),
    st.lists(st.sampled_from(STRING_POOL), max_size=12),
    st.lists(st.sampled_from(NUMERIC_POOL + STRING_POOL + OTHER_POOL), max_size=12),
)


def assert_same_objects(got, want):
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


class TestNaturalOrderPredicate:
    @given(columns_by_kind)
    @settings(max_examples=400, deadline=None)
    def test_whenever_true_builtins_agree_with_sort_key_for(self, column):
        types = {type(value) for value in column}
        assert _naturally_ordered(column) == (types <= {int, float} or types == {str})
        if not _naturally_ordered(column):
            return
        assert_same_objects(sorted(column), sorted(column, key=sort_key_for))
        if column:
            assert min(column) is min(column, key=sort_key_for)
            assert max(column) is max(column, key=sort_key_for)

    @pytest.mark.parametrize(
        "column", [[True, 2], [None], [1, None], ["a", 1], [1.5, "a"], [False], ["a", None]]
    )
    def test_bool_none_and_mixed_columns_keep_the_key_function(self, column):
        assert not _naturally_ordered(column)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(NUMERIC_POOL),
                st.sampled_from(STRING_POOL),
                st.sampled_from(NUMERIC_POOL + STRING_POOL + OTHER_POOL),
            ),
            max_size=10,
        ),
        st.permutations(["n", "s", "m"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_sort_batch_matches_the_row_sort(self, rows, order):
        relation = Relation("t", Schema.of("n", "s", "m"), rows)
        want = relation.sorted_by(order).rows
        got = sort_batch(ColumnBatch.from_relation(relation), order).to_relation("t").rows
        assert len(got) == len(want)
        for got_row, want_row in zip(got, want):
            assert_same_objects(got_row, want_row)


# ---------------------------------------------------------------------------
# eager and hybrid plans: batch == row, as row lists
# ---------------------------------------------------------------------------


def assert_batch_equals_row(engine, query, plan):
    row = RowEngine(engine.database).evaluate(query, plan=plan)
    batch = engine.evaluate(query, plan=plan)
    assert batch.relation.schema == row.relation.schema
    assert batch.relation.rows == row.relation.rows  # list equality, order included
    assert batch.rows_processed == row.rows_processed
    assert batch.answer_rows == row.answer_rows
    assert batch.plan_style == row.plan_style


@pytest.mark.parametrize("plan", ["eager", "hybrid"])
class TestEagerAndHybridBatchEqualsRow:
    @pytest.mark.parametrize("case", sorted(CORPUS))
    def test_differential_corpus(self, case, plan):
        build_db, make_query = CORPUS[case]
        assert_batch_equals_row(SproutEngine(build_db()), make_query(), plan)

    @pytest.mark.parametrize("key", ["3", "10", "18", "21", "C", "D"])
    def test_tpch(self, tpch_engine, key, plan):
        from repro.tpch import query_C, query_D, tpch_query

        special = {"C": query_C, "D": query_D}
        query = special[key]() if key in special else tpch_query(key).query
        assert_batch_equals_row(tpch_engine, query, plan)
