"""Tests for the conjunctive query model."""

import pytest

from repro.errors import QueryError, UnsupportedQueryError
from repro.algebra.expressions import Comparison, Conjunction, TruePredicate, conjunction_of
from repro.query.conjunctive import Atom, ConjunctiveQuery


def make_query(projection=("odate",)):
    return ConjunctiveQuery(
        "Q",
        [
            Atom("Cust", ["ckey", "cname"]),
            Atom("Ord", ["okey", "ckey", "odate"]),
            Atom("Item", ["okey", "discount", "ckey"]),
        ],
        projection=projection,
        selections=conjunction_of(
            [Comparison("cname", "=", "Joe"), Comparison("discount", ">", 0)]
        ),
    )


class TestAtom:
    def test_str(self):
        assert str(Atom("Cust", ["ckey", "cname"])) == "Cust(ckey, cname)"

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(QueryError):
            Atom("T", ["a", "a"])

    def test_with_attributes(self):
        assert Atom("T", ["a"]).with_attributes(["a", "b"]).attributes == ("a", "b")


class TestConstruction:
    def test_requires_atoms(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery("Q", [])

    def test_rejects_self_joins(self):
        with pytest.raises(UnsupportedQueryError):
            ConjunctiveQuery("Q", [Atom("R", ["a"]), Atom("R", ["b"])])

    def test_projection_must_exist(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery("Q", [Atom("R", ["a"])], projection=["missing"])

    def test_selection_attributes_must_exist(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(
                "Q", [Atom("R", ["a"])], selections=Comparison("missing", "=", 1)
            )

    def test_str_rendering(self):
        query = make_query()
        text = str(query)
        assert "Cust(" in text and "odate" in text and "Joe" in text


class TestAccessors:
    def test_join_attributes(self):
        assert make_query().join_attributes() == {"ckey", "okey"}

    def test_atoms_with(self):
        assert {a.table for a in make_query().atoms_with("okey")} == {"Ord", "Item"}

    def test_attributes_of_unknown_table(self):
        with pytest.raises(QueryError):
            make_query().atom_of("Missing")

    def test_is_boolean(self):
        assert not make_query().is_boolean()
        assert make_query(projection=()).is_boolean()

    def test_selections_on(self):
        query = make_query()
        assert isinstance(query.selections_on("Ord"), TruePredicate)
        assert query.selections_on("Cust") == Comparison("cname", "=", "Joe")

    def test_selection_predicates_single(self):
        query = ConjunctiveQuery(
            "Q", [Atom("R", ["a"])], selections=Comparison("a", "=", 1)
        )
        assert query.selection_predicates() == [Comparison("a", "=", 1)]

    def test_uncovered_selections(self):
        query = ConjunctiveQuery(
            "Q",
            [Atom("R", ["a"]), Atom("S", ["a", "b"])],
            selections=Conjunction([Comparison("a", "=", 1), Comparison("b", "=", 2)]),
        )
        assert query.uncovered_selections() == []
        spanning = ConjunctiveQuery(
            "Q2",
            [Atom("R", ["a", "x"]), Atom("S", ["a", "b"])],
            selections=Conjunction([Comparison("x", "=", 1) | Comparison("b", "=", 2)]),
        )
        assert len(spanning.uncovered_selections()) == 1


class TestDerivedQueries:
    def test_boolean_version(self):
        boolean = make_query().boolean_version()
        assert boolean.is_boolean()
        assert boolean.name == "B(Q)"
        assert boolean.selections == make_query().selections

    def test_with_projection(self):
        query = make_query().with_projection(["odate", "ckey"])
        assert query.projection == ("odate", "ckey")

    def test_with_atoms(self):
        base = ConjunctiveQuery(
            "base",
            [Atom("Cust", ["ckey", "cname"]), Atom("Ord", ["okey", "ckey", "odate"])],
            projection=["odate"],
        )
        query = base.with_atoms(
            [Atom("Cust", ["ckey", "cname"]), Atom("Ord", ["okey", "ckey", "odate", "ostatus"])]
        )
        assert "ostatus" in query.attributes_of("Ord")
