"""Tests for variables, probabilistic tables, databases, worlds, and lineage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, ProbabilityError, SchemaError
from repro.prob.pdb import ProbabilisticDatabase
from repro.prob.ptable import make_tuple_independent
from repro.prob.variables import VariableRegistry, validate_probability
from repro.storage.relation import Relation
from repro.storage.schema import ColumnRole, Schema

from oracles.lineage import confidences_from_lineage
from oracles.rows import lineage_by_tuple, probabilities_from_answer
from oracles.worlds import (
    confidences_by_enumeration,
    enumerate_truths,
    evaluate_deterministic,
    world,
    world_probability,
    worlds,
)
from test_differential_matrix import CORPUS


class TestVariableRegistry:
    def test_fresh_allocates_increasing_ids(self):
        registry = VariableRegistry()
        first = registry.fresh("T", 0.5)
        second = registry.fresh("T", 0.25)
        assert second == first + 1
        assert registry.probability(first) == 0.5
        assert registry.table(second) == "T"
        assert len(registry) == 2

    def test_unknown_variable(self):
        with pytest.raises(ProbabilityError):
            VariableRegistry().probability(1)

    def test_probability_validation(self):
        registry = VariableRegistry()
        with pytest.raises(ProbabilityError):
            registry.fresh("T", 0.0)
        with pytest.raises(ProbabilityError):
            registry.fresh("T", 1.5)
        with pytest.raises(ProbabilityError):
            validate_probability("0.5")

    def test_variables_of_and_set_probability(self):
        registry = VariableRegistry()
        a = registry.fresh("A", 0.1)
        registry.fresh("B", 0.2)
        assert registry.variables_of("A") == [a]
        registry.set_probability(a, 0.9)
        assert registry.probability(a) == 0.9


class TestMakeTupleIndependent:
    def test_adds_var_and_prob_columns(self):
        registry = VariableRegistry()
        relation = Relation("T", Schema.of("a:int"), [(1,), (2,)])
        table = make_tuple_independent(relation, registry, probabilities=[0.5, 0.25])
        assert table.schema.names == ("a", "T.V", "T.P")
        assert table.variables() == [1, 2]
        assert table.relation.column("T.P") == [0.5, 0.25]
        assert table.data_rows() == [(1,), (2,)]

    def test_probability_specs(self):
        registry = VariableRegistry()
        relation = Relation("T", Schema.of("a:int"), [(1,), (2,), (3,)])
        constant = make_tuple_independent(relation, registry, probabilities=0.5)
        assert constant.relation.column("T.P") == [0.5, 0.5, 0.5]
        computed = make_tuple_independent(
            relation, registry, probabilities=lambda i, row: 0.1 * (i + 1), source="T2"
        )
        assert computed.relation.column("T2.P") == pytest.approx([0.1, 0.2, 0.3])

    def test_short_probability_list_rejected(self):
        registry = VariableRegistry()
        relation = Relation("T", Schema.of("a:int"), [(1,), (2,)])
        with pytest.raises(ProbabilityError):
            make_tuple_independent(relation, registry, probabilities=[0.5])

    def test_random_probabilities_are_reproducible(self):
        import random

        relation = Relation("T", Schema.of("a:int"), [(i,) for i in range(5)])
        first = make_tuple_independent(relation, VariableRegistry(), rng=random.Random(3))
        second = make_tuple_independent(relation, VariableRegistry(), rng=random.Random(3))
        assert first.relation.column("T.P") == second.relation.column("T.P")

    def test_rejects_existing_annotation(self):
        registry = VariableRegistry()
        relation = Relation("T", Schema.of("a:int"), [(1,)])
        annotated = make_tuple_independent(relation, registry).relation
        with pytest.raises(SchemaError):
            make_tuple_independent(annotated, registry)


class TestProbabilisticDatabase:
    def build(self):
        db = ProbabilisticDatabase("d")
        db.add_table(Relation("R", Schema.of("a:int"), [(1,), (2,)]), probabilities=[0.5, 0.5])
        db.add_table(Relation("S", Schema.of("a:int", "b:int"), [(1, 7)]), probabilities=[0.25])
        return db

    def test_duplicate_table_rejected(self):
        db = self.build()
        with pytest.raises(CatalogError):
            db.add_table(Relation("R", Schema.of("a:int"), [(1,)]))

    def test_world_selection(self):
        db = self.build()
        assignment = {1: True, 2: False, 3: True}
        instance = world(db, assignment)
        assert instance["R"].rows == [(1,)]
        assert instance["S"].rows == [(1, 7)]
        assert world_probability(db, assignment) == pytest.approx(0.5 * 0.5 * 0.25)

    def test_world_probabilities_sum_to_one(self):
        db = self.build()
        total = sum(possible.probability for possible in worlds(db))
        assert total == pytest.approx(1.0)

    def test_world_enumeration_guard(self):
        db = ProbabilisticDatabase("big")
        db.add_table(Relation("R", Schema.of("a:int"), [(i,) for i in range(30)]))
        with pytest.raises(ProbabilityError):
            list(worlds(db, max_variables=10))

    def test_alias_shares_variables(self):
        db = self.build()
        alias = db.add_alias("R", "R2", rename={"a": "a2"})
        assert alias.schema.names == ("a2", "R2.V", "R2.P")
        assert alias.variables() == db.table("R").variables()
        with pytest.raises(CatalogError):
            db.add_alias("R", "R2")

    def test_confidences_by_enumeration_single_table(self):
        db = self.build()

        def query(instance):
            return instance["R"]

        confidences = confidences_by_enumeration(db, query)
        assert confidences[(1,)] == pytest.approx(0.5)
        assert confidences[(2,)] == pytest.approx(0.5)


class TestEnumeratedTruth:
    """The session memo of possible-worlds truths must never serve a stale or
    a shared answer: it is keyed on the database's contents and the query,
    and it sums exactly what a fresh enumeration sums."""

    @pytest.mark.parametrize("case", sorted(CORPUS))
    def test_equals_a_fresh_enumeration_bit_for_bit(self, case):
        build_db, make_query = CORPUS[case]
        query = make_query()
        expected = confidences_by_enumeration(
            build_db(), lambda instance: evaluate_deterministic(query, instance)
        )
        assert enumerate_truths(build_db(), [query]) == [expected]

    def test_a_changed_database_is_a_new_key_and_results_are_copies(self):
        build_db, make_query = CORPUS["single"]
        query, db = make_query(), build_db()
        before = enumerate_truths(db, [query, query])
        assert before[0] == before[1] and before[0] is not before[1]
        before[0][("s9",)] = 1.0  # a caller's edit stays the caller's
        assert ("s9",) not in enumerate_truths(build_db(), [query])[0]
        variable = db.registry.fresh("Obs", 0.5)
        db.relation("Obs").append(("s9", 4, variable, 0.5))
        after = enumerate_truths(db, [query])[0]
        assert after[("s9",)] == 0.5
        assert after == confidences_by_enumeration(
            db, lambda instance: evaluate_deterministic(query, instance)
        )


class TestLineage:
    def build_answer(self):
        from repro.storage.schema import Attribute

        schema = Schema(
            [
                Attribute("odate", "str"),
                Attribute("Cust.V", "int", ColumnRole.VAR, source="Cust"),
                Attribute("Cust.P", "float", ColumnRole.PROB, source="Cust"),
                Attribute("Item.V", "int", ColumnRole.VAR, source="Item"),
                Attribute("Item.P", "float", ColumnRole.PROB, source="Item"),
            ]
        )
        return Relation(
            "answer",
            schema,
            [
                ("1995-01-10", 1, 0.1, 7, 0.1),
                ("1995-01-10", 1, 0.1, 8, 0.2),
                ("1996-01-09", 2, 0.2, 9, 0.3),
            ],
        )

    def test_lineage_by_tuple(self):
        lineage = lineage_by_tuple(self.build_answer())
        assert lineage[("1995-01-10",)].clauses == frozenset({frozenset({1, 7}), frozenset({1, 8})})
        assert len(lineage[("1996-01-09",)]) == 1

    def test_probabilities_from_answer(self):
        probabilities = probabilities_from_answer(self.build_answer())
        assert probabilities == {1: 0.1, 2: 0.2, 7: 0.1, 8: 0.2, 9: 0.3}

    def test_inconsistent_probability_detected(self):
        answer = self.build_answer()
        answer.append(("1996-01-09", 2, 0.9, 9, 0.3))
        with pytest.raises(ProbabilityError):
            probabilities_from_answer(answer)

    def test_confidences_from_lineage(self):
        confidences = confidences_from_lineage(self.build_answer())
        assert confidences[("1995-01-10",)] == pytest.approx(0.1 * (1 - 0.9 * 0.8))
        assert confidences[("1996-01-09",)] == pytest.approx(0.2 * 0.3)

    @given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_single_table_confidence_equals_marginal(self, probabilities):
        db = ProbabilisticDatabase("p")
        rows = [(i,) for i in range(len(probabilities))]
        db.add_table(Relation("R", Schema.of("a:int"), rows), probabilities=probabilities)
        confidences = confidences_from_lineage(db.relation("R"))
        for i, probability in enumerate(probabilities):
            assert confidences[(i,)] == pytest.approx(probability)
