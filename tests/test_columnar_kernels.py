"""Oracle tests of the columnar kernels: join, group-by, typed order, eager plans.

Each kernel in :mod:`repro.algebra.columnar` takes shortcuts the row
operators do not — the join hashes whichever input is smaller and restores
the order afterwards, the group-by skips bucketing when every row is its own
group, sorting and ``min``/``max`` drop ``sort_key_for`` on homogeneous
columns.  The oracle is always the *row* operator (or ``sort_key_for``
itself), and equality is on row **lists**: same rows, same order, same bits.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    AGGREGATE_FUNCTIONS,
    AggregateSpec,
    BatchHashJoinOp,
    BatchScanOp,
    ColumnBatch,
    GroupByOp,
    HashJoinOp,
    MaterializedOp,
    ScanOp,
    group_by_columns,
    sort_batch,
)
from repro.algebra.columnar import _naturally_ordered
from repro.errors import NumericalError
from repro.sprout import SproutEngine
from repro.storage import Relation, Schema
from repro.storage.external_sort import sort_key_for

from test_differential_matrix import CORPUS

NAN = float("nan")

# Join keys: None is dropped, True/1/1.0 and False/0 collide as dict keys.
KEY_VALUES = st.sampled_from([None, True, 1, 1.0, False, 0, 2, "a", "b", 2.5])


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


def assert_join_matches_row_join(left, right, batch_size):
    row_plan = HashJoinOp(ScanOp(left), ScanOp(right))
    batch_plan = BatchHashJoinOp(
        BatchScanOp(left, batch_size=batch_size), BatchScanOp(right, batch_size=batch_size)
    )
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
        batch_size=st.sampled_from([2, 4096]),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_sizes_any_keys(self, arity, left_keys, right_keys, batch_size):
        left, right = _join_inputs(arity, left_keys, right_keys)
        assert_join_matches_row_join(left, right, batch_size)

    @pytest.mark.parametrize("batch_size", [2, 4096])
    @pytest.mark.parametrize(
        "left_size,right_size", [(3, 9), (9, 3), (6, 6), (0, 4), (4, 0), (0, 0), (1, 1)]
    )
    @pytest.mark.parametrize("arity", [0, 1, 2])
    def test_each_build_side_with_duplicates_on_both_sides(
        self, arity, left_size, right_size, batch_size
    ):
        # Keys cycle through a short pool, so both inputs repeat keys, hold a
        # None key and hold the True/1/1.0 collision, whichever side is hashed.
        pool = [(1, "x"), (True, "x"), (None, "x"), (2, None), (1.0, "x"), (2, "y")]
        left_keys = [pool[i % len(pool)] for i in range(left_size)]
        right_keys = [pool[(2 * i + 1) % len(pool)] for i in range(right_size)]
        left, right = _join_inputs(arity, left_keys, right_keys)
        assert_join_matches_row_join(left, right, batch_size)

    @pytest.mark.parametrize("left_size,right_size", [(4, 12), (12, 4), (8, 8)])
    def test_distinct_build_keys_with_unmatched_probe_rows(self, left_size, right_size):
        # All-distinct keys on both sides take the one-map probe; the ranges
        # only partly overlap, and fully overlap when the sizes are equal.
        left, right = _join_inputs(
            1, [(i, None) for i in range(left_size)], [(i, None) for i in range(2, 2 + right_size)]
        )
        assert_join_matches_row_join(left, right, 4096)
        ascending = [(i, None) for i in range(left_size)]
        same, other = _join_inputs(1, ascending, ascending[::-1])
        assert_join_matches_row_join(same, other, 2)


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
    row = engine.evaluate(query, plan=plan, execution="row")
    batch = engine.evaluate(query, plan=plan, execution="batch")
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

    def test_small_batches_do_not_change_the_answer(self, tpch_db, plan):
        from repro.tpch import tpch_query

        query = tpch_query("18").query
        whole = SproutEngine(tpch_db).evaluate(query, plan=plan, execution="batch")
        chunked = SproutEngine(tpch_db, batch_size=7).evaluate(
            query, plan=plan, execution="batch"
        )
        assert chunked.relation.rows == whole.relation.rows
        assert chunked.rows_processed == whole.rows_processed
