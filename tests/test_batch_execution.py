"""Differential tests: the engine's columnar pipeline against the row oracle.

The engine runs one physical backend, columnar from scan to ``conf``; the
row-at-a-time pipeline it replaced is the reference
(``tests/oracles/rows.py``, :class:`RowEngine`).  The two are *bit-identical*:
same answer relations, same confidences, same work metrics.  These tests pin
that down on the paper's Fig. 1 database, on a TPC-H instance, and on
Hypothesis-generated random tuple-independent databases; the scan-based
confidence evaluators (recursive, streaming, columnar) are also checked
against each other.  Batch plans read the stored tables' cached columns by
reference, so a last class guards those columns against in-place edits.
"""

import copy

import pytest
from hypothesis import given, settings

from repro import Atom, ConjunctiveQuery, SproutEngine
from repro.errors import PlanningError, QueryError
from repro.query.signature import has_one_scan_property
from repro.sprout import PLAN_STYLES, columnar_scan_confidences, sort_column_order
from repro.algebra.columnar import ColumnBatch

from helpers import assert_confidences_close, build_paper_database, paper_query
from oracles.rows import (
    ColumnMap,
    RowEngine,
    materialize_answer,
    scan_confidences,
    streaming_scan_confidences,
)
from test_differential_matrix import CORPUS
from test_properties import three_table_database, two_table_database

ALL_PLANS = PLAN_STYLES


def assert_identical_results(row_result, batch_result):
    """The engine must reproduce the row oracle's relation exactly (bit-identical)."""
    assert batch_result.relation.schema == row_result.relation.schema
    assert sorted(batch_result.relation.rows, key=repr) == sorted(
        row_result.relation.rows, key=repr
    )
    assert batch_result.confidences() == row_result.confidences()
    assert batch_result.answer_rows == row_result.answer_rows
    assert batch_result.rows_processed == row_result.rows_processed
    assert batch_result.scans_used == row_result.scans_used


class TestOneBackend:
    def test_the_constructor_accepts_only_batch(self, paper_db, paper_q):
        result = SproutEngine(paper_db, execution="batch").evaluate(paper_q)
        assert_identical_results(SproutEngine(paper_db).evaluate(paper_q), result)
        assert not hasattr(result, "execution")
        for retired in ("row", "gpu", None):
            with pytest.raises(PlanningError, match="execution mode"):
                SproutEngine(paper_db, execution=retired)

    @pytest.mark.parametrize("case", sorted(CORPUS))
    def test_the_row_oracle_agrees_on_every_corpus_query(self, case):
        """The row oracle agrees with the engine on every corpus query,
        operator plan and lineage route alike, and so do their top-k sets."""
        build_db, make_query = CORPUS[case]
        query = make_query()
        engine = SproutEngine(build_db())
        row_engine = RowEngine(build_db())
        for plan in ("lazy", "dtree"):
            assert_identical_results(
                row_engine.evaluate(query, plan=plan), engine.evaluate(query, plan=plan)
            )
        topk = engine.evaluate_topk(query, k=2, plan="dtree")
        topk_row = row_engine.evaluate_topk(query, k=2, plan="dtree")
        assert topk.confidences() == topk_row.confidences()
        assert topk.decided and topk_row.decided

    def test_batch_size_is_not_a_knob(self, paper_db):
        with pytest.raises(TypeError):
            SproutEngine(paper_db, batch_size=4096)


class TestPaperDatabase:
    @pytest.mark.parametrize("plan", ALL_PLANS)
    def test_all_plan_styles_bit_identical(self, paper_db, paper_engine, paper_q, plan):
        row = RowEngine(paper_db).evaluate(paper_q, plan=plan)
        batch = paper_engine.evaluate(paper_q, plan=plan)
        assert_identical_results(row, batch)

    @pytest.mark.parametrize("use_fds", [True, False])
    def test_fd_toggle_bit_identical(self, paper_db, paper_engine, paper_q, use_fds):
        row = RowEngine(paper_db).evaluate(paper_q, use_fds=use_fds)
        batch = paper_engine.evaluate(paper_q, use_fds=use_fds)
        assert_identical_results(row, batch)

    def test_empty_answer(self, paper_engine, paper_db):
        from repro.algebra import Comparison

        query = ConjunctiveQuery(
            "empty",
            [Atom("Cust", ["ckey", "cname"])],
            projection=["cname"],
            selections=Comparison("cname", "=", "nobody"),
        )
        row = RowEngine(paper_db).evaluate(query)
        batch = paper_engine.evaluate(query)
        assert_identical_results(row, batch)
        assert batch.distinct_tuples == 0

    def test_boolean_query(self, paper_db, paper_engine):
        query = ConjunctiveQuery(
            "bool",
            [Atom("Cust", ["ckey", "cname"]), Atom("Ord", ["okey", "ckey", "odate"])],
        )
        row = RowEngine(paper_db).evaluate(query)
        batch = paper_engine.evaluate(query)
        assert_identical_results(row, batch)
        assert batch.boolean_confidence() == row.boolean_confidence()

    def test_disconnected_query_cross_product(self):
        # R and S share no attribute, so the answer plan contains a cross join
        # (empty join key) — a regression case where the batch join once
        # returned an empty result.
        from repro import ProbabilisticDatabase
        from repro.storage import Relation, Schema

        db = ProbabilisticDatabase("cross")
        db.add_table(
            Relation("R", Schema.of("a:int"), [(1,), (2,)]),
            probabilities=[0.5, 0.5],
            primary_key=["a"],
        )
        db.add_table(
            Relation("S", Schema.of("b:int"), [(7,)]),
            probabilities=[0.5],
            primary_key=["b"],
        )
        engine, row_engine = SproutEngine(db), RowEngine(db)
        query = ConjunctiveQuery("cross", [Atom("R", ["a"]), Atom("S", ["b"])], projection=["a"])
        for plan in ALL_PLANS:
            row = row_engine.evaluate(query, plan=plan)
            batch = engine.evaluate(query, plan=plan)
            assert row.distinct_tuples == 2
            assert_identical_results(row, batch)


class TestTpchDatabase:
    """Differential check on the shared tiny TPC-H instance (SF 0.001)."""

    @pytest.fixture(scope="class")
    def tpch_row_engine(self, tpch_db):
        return RowEngine(tpch_db)

    @pytest.mark.parametrize("key", ["1", "3", "10", "15", "16", "B17", "18", "20", "21"])
    def test_lazy_bit_identical(self, tpch_engine, tpch_row_engine, key):
        from repro.tpch import tpch_query

        query = tpch_query(key).query
        row = tpch_row_engine.evaluate(query, plan="lazy")
        batch = tpch_engine.evaluate(query, plan="lazy")
        assert_identical_results(row, batch)
        assert_confidences_close(batch.confidences(), row.confidences(), 1e-9)

    @pytest.mark.parametrize("plan", ["eager", "hybrid"])
    def test_eager_hybrid_bit_identical(self, tpch_engine, tpch_row_engine, plan):
        from repro.tpch import tpch_query

        for key in ("3", "16", "18"):
            query = tpch_query(key).query
            row = tpch_row_engine.evaluate(query, plan=plan)
            batch = tpch_engine.evaluate(query, plan=plan)
            assert_identical_results(row, batch)


@pytest.mark.slow
class TestTpchScaleFactor002:
    """The acceptance-criterion scale: fresh TPC-H at SF 0.002."""

    @pytest.fixture(scope="class")
    def db_002(self):
        from repro.tpch import probabilistic_tpch

        return probabilistic_tpch(scale_factor=0.002, seed=7, probability_seed=11)

    def test_figure9_queries_within_tolerance(self, db_002):
        from repro.tpch import FIGURE9_KEYS, tpch_query

        engine, row_engine = SproutEngine(db_002), RowEngine(db_002)
        for key in FIGURE9_KEYS:
            query = tpch_query(key).query
            row = row_engine.evaluate(query, plan="lazy")
            batch = engine.evaluate(query, plan="lazy")
            assert_confidences_close(batch.confidences(), row.confidences(), 1e-9)
            assert_identical_results(row, batch)


class TestRandomDatabases:
    """Hypothesis: random tuple-independent databases, row oracle vs engine."""

    @given(two_table_database())
    @settings(max_examples=20, deadline=None)
    def test_two_table_row_vs_batch(self, db):
        engine, row_engine = SproutEngine(db), RowEngine(db)
        for projection in (["a"], ["b"], []):
            query = ConjunctiveQuery(
                f"q{'-'.join(projection)}",
                [Atom("R", ["a"]), Atom("S", ["a", "b"])],
                projection=projection,
            )
            for plan in ALL_PLANS:
                row = row_engine.evaluate(query, plan=plan)
                batch = engine.evaluate(query, plan=plan)
                assert_identical_results(row, batch)

    @given(three_table_database())
    @settings(max_examples=15, deadline=None)
    def test_three_table_row_vs_batch(self, db):
        engine, row_engine = SproutEngine(db), RowEngine(db)
        for projection in ([], ["d"], ["c"]):
            query = ConjunctiveQuery(
                f"q{'-'.join(projection)}",
                [Atom("Cust", ["c"]), Atom("Ord", ["o", "c"]), Atom("Item", ["o", "d"])],
                projection=projection,
            )
            for plan in ALL_PLANS:
                row = row_engine.evaluate(query, plan=plan)
                batch = engine.evaluate(query, plan=plan)
                assert_identical_results(row, batch)


class TestScanEvaluatorsAgree:
    """OneScanState (streaming), group_probability (recursive), and the
    columnar evaluator must agree on the same sorted answer."""

    def _sorted_answer(self, engine, query):
        signature = engine.signature_for(query)
        answer, _, _ = materialize_answer(engine.database, engine.planner, query)
        return answer.sorted_by(sort_column_order(answer.schema, signature)), signature

    def _compare_evaluators(self, engine, query):
        answer, signature = self._sorted_answer(engine, query)
        columns = ColumnMap(answer.schema)
        try:
            recursive = list(scan_confidences(answer.rows, columns, signature))
        except QueryError:
            # Signature needs pre-aggregation scans; the columnar evaluator
            # must reject it the same way.
            with pytest.raises(QueryError):
                list(columnar_scan_confidences(ColumnBatch.from_relation(answer), signature))
            return
        columnar = list(
            columnar_scan_confidences(ColumnBatch.from_relation(answer), signature)
        )
        assert columnar == recursive  # identical bags, order, and floats
        if has_one_scan_property(signature):
            try:
                streaming = list(streaming_scan_confidences(answer.rows, columns, signature))
            except QueryError:
                return  # signature shape unsupported by the streaming evaluator
            assert [data for data, _ in streaming] == [data for data, _ in recursive]
            for (_, stream_p), (_, recursive_p) in zip(streaming, recursive):
                assert stream_p == pytest.approx(recursive_p, abs=1e-12)

    def test_paper_query(self):
        engine = SproutEngine(build_paper_database())
        self._compare_evaluators(engine, paper_query())

    @given(three_table_database())
    @settings(max_examples=20, deadline=None)
    def test_random_three_table(self, db):
        engine = SproutEngine(db)
        for projection in ([], ["d"]):
            query = ConjunctiveQuery(
                "scan-cmp",
                [Atom("Cust", ["c"]), Atom("Ord", ["o", "c"]), Atom("Item", ["o", "d"])],
                projection=projection,
            )
            self._compare_evaluators(engine, query)

    @given(two_table_database())
    @settings(max_examples=20, deadline=None)
    def test_random_two_table(self, db):
        engine = SproutEngine(db)
        query = ConjunctiveQuery(
            "scan-cmp2", [Atom("R", ["a"]), Atom("S", ["a", "b"])], projection=["a"]
        )
        self._compare_evaluators(engine, query)


class TestBaseColumnsStayUntouched:
    """A batch scan hands the stored relation's cached column lists to the
    plan as they are; every evaluation route must leave them as it found them."""

    @staticmethod
    def assert_every_route_leaves_the_columns_alone(db, queries):
        cached = {name: db.relation(name).columns_cached() for name in db.table_names()}
        before = copy.deepcopy(cached)
        engine = SproutEngine(db)
        for query in queries:
            for plan in ALL_PLANS:
                engine.evaluate(query, plan=plan)
            engine.evaluate(query, confidence="approx")
            engine.evaluate_topk(query, k=2)
            engine.evaluate_threshold(query, tau=0.5)
        for name, columns in cached.items():
            relation = db.relation(name)
            assert relation.columns_cached() is columns
            assert columns == before[name]
            assert columns == relation.to_columns()

    def test_paper_database(self, paper_db, paper_q):
        self.assert_every_route_leaves_the_columns_alone(paper_db, [paper_q])

    @pytest.mark.parametrize("case", sorted(CORPUS))
    def test_differential_corpus(self, case):
        build_db, make_query = CORPUS[case]
        self.assert_every_route_leaves_the_columns_alone(build_db(), [make_query()])

    def test_tpch_figure_queries(self, tpch_db):
        from repro.tpch import FIGURE9_KEYS, FIGURE10_KEYS, query_C, query_D, tpch_query

        queries = [tpch_query(key).query for key in FIGURE9_KEYS + FIGURE10_KEYS]
        self.assert_every_route_leaves_the_columns_alone(
            tpch_db, queries + [query_C(), query_D()]
        )
