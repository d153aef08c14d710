"""Tests for the safe-plan baseline (Dalvi–Suciu plan shape, MystiQ evaluator)."""

import pytest

from repro.errors import NonHierarchicalQueryError, NumericalError, UnsafePlanError
from repro import Atom, ConjunctiveQuery, MystiqEngine, ProbabilisticDatabase
from repro.query.fd import fd_reduct
from repro.query.hierarchy import build_hierarchy
from repro.query.rewrite import is_tractable
from repro.storage import Relation, Schema
from repro.storage.catalog import FunctionalDependency

from helpers import assert_confidences_close, build_paper_database, paper_query


def hard_query():
    return ConjunctiveQuery(
        "Qprime",
        [
            Atom("Cust", ["ckey", "cname"]),
            Atom("Ord", ["okey", "ckey", "odate"]),
            Atom("Item", ["okey", "discount"]),
        ],
        projection=["odate"],
    )


class TestSafePlanConstruction:
    """A query has a safe plan exactly when it is tractable (Section IV), and
    the plan follows its hierarchy tree (Fig. 2), which the eager planner
    builds on."""

    def test_paper_query_has_safe_plan(self):
        assert is_tractable(paper_query())

    def test_hard_query_has_none_without_fds(self):
        assert not is_tractable(hard_query())
        with pytest.raises(NonHierarchicalQueryError):
            build_hierarchy(hard_query())

    def test_hard_query_safe_with_fd(self):
        fds = [FunctionalDependency("Ord", ["okey"], ["ckey", "odate"])]
        assert is_tractable(hard_query(), fds)
        tree = build_hierarchy(fd_reduct(hard_query(), fds))
        assert set(tree.tables()) == {"Cust", "Ord", "Item"}

    def test_plan_shape_matches_fig2(self, paper_engine):
        # Fig. 2: the root joins Cust with the {Ord, Item} subtree, and the
        # deepest independent project joins Ord and Item on ckey, okey.  The
        # figure uses no FDs; with them the engine's tree also carries cname.
        engine_tree = paper_engine.hierarchy_for(paper_query(), use_fds=False)
        for tree in (build_hierarchy(paper_query()), engine_tree):
            assert not tree.is_leaf
            inner = [child for child in tree.children if not child.is_leaf]
            assert len(inner) == 1
            assert set(inner[0].attributes) == {"ckey", "okey"}
            assert set(inner[0].tables()) == {"Ord", "Item"}
            assert [child.atom.table for child in tree.children if child.is_leaf] == ["Cust"]


class TestMystiqEngine:
    def test_matches_ground_truth_on_paper_example(self, paper_db, paper_q):
        engine = MystiqEngine(paper_db, use_log_aggregation=False)
        result = engine.evaluate(paper_q)
        assert_confidences_close(result.confidences(), {("1995-01-10",): 0.0028}, 1e-9)

    def test_log_aggregation_is_approximate_but_close(self, paper_db, paper_q):
        exact = MystiqEngine(paper_db, use_log_aggregation=False).evaluate(paper_q)
        approximate = MystiqEngine(paper_db, use_log_aggregation=True).evaluate(paper_q)
        exact_value = exact.confidences()[("1995-01-10",)]
        approximate_value = approximate.confidences()[("1995-01-10",)]
        assert approximate_value == pytest.approx(exact_value, abs=5e-3)

    def test_log_aggregation_fails_on_long_disjunctions(self):
        db = ProbabilisticDatabase("wide")
        rows = [(1, i) for i in range(3000)]
        db.add_table(
            Relation("R", Schema.of("g:int", "x:int"), rows), probabilities=0.99
        )
        query = ConjunctiveQuery("wide", [Atom("R", ["g", "x"])], projection=["g"])
        engine = MystiqEngine(db, use_log_aggregation=True, materialize_temporaries=False)
        with pytest.raises(NumericalError):
            engine.evaluate(query)
        # The exact aggregation handles the same query fine.
        exact = MystiqEngine(db, use_log_aggregation=False, materialize_temporaries=False)
        assert exact.evaluate(query).confidences()[(1,)] == pytest.approx(1.0, abs=1e-9)

    def test_unsafe_query_rejected(self, paper_db):
        # Without the Ord key FD the hard query admits no safe plan.
        fresh = ProbabilisticDatabase("no-keys")
        base = build_paper_database()
        for name in ("Cust", "Ord", "Item"):
            table = base.table(name)
            fresh.add_table(
                table.relation.project(list(table.data_schema.names)), probabilities=0.5, name=name
            )
        engine = MystiqEngine(fresh)
        with pytest.raises(UnsafePlanError):
            engine.evaluate(hard_query())

    def test_materialised_temporaries_give_same_result(self, paper_db, paper_q):
        direct = MystiqEngine(paper_db, use_log_aggregation=False, materialize_temporaries=False)
        spooled = MystiqEngine(paper_db, use_log_aggregation=False, materialize_temporaries=True)
        assert_confidences_close(
            spooled.evaluate(paper_q).confidences(), direct.evaluate(paper_q).confidences()
        )

    def test_result_metadata(self, paper_db, paper_q):
        result = MystiqEngine(paper_db, use_log_aggregation=False).evaluate(paper_q)
        assert result.plan_style == "mystiq"
        assert result.rows_processed > 0
        assert set(result.join_order) == {"Cust", "Ord", "Item"}
