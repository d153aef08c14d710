"""Tests for FD closure, FD-reducts, chased queries, and rewritings."""

import pytest

from repro.errors import NonHierarchicalQueryError
from repro.algebra.expressions import Comparison
from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.query.fd import chased_query, closure, fd_reduct
from repro.query.hierarchy import is_hierarchical
from repro.query.rewrite import effective_boolean_query, effective_signature, is_tractable
from repro.storage.catalog import FunctionalDependency


ORD_FD = FunctionalDependency("Ord", ["okey"], ["ckey", "odate"])
CUST_FD = FunctionalDependency("Cust", ["ckey"], ["cname"])


class TestClosure:
    def test_definition_example(self):
        # CLOSURE_{A->D; BD->E}(ABC) = ABCDE (Section IV).
        fds = [
            FunctionalDependency("T", ["A"], ["D"]),
            FunctionalDependency("T", ["B", "D"], ["E"]),
        ]
        assert closure({"A", "B", "C"}, fds) == frozenset("ABCDE")

    def test_no_fds(self):
        assert closure({"a"}, []) == frozenset({"a"})

    def test_transitive(self):
        fds = [
            FunctionalDependency("T", ["a"], ["b"]),
            FunctionalDependency("T", ["b"], ["c"]),
        ]
        assert closure({"a"}, fds) == frozenset({"a", "b", "c"})


def example_iv3_query():
    """Example IV.3: π_cname(Item(okey,discount) ⋈ Ord(okey,ckey,odate) ⋈ Cust(ckey,cname))."""
    return ConjunctiveQuery(
        "IV.3",
        [
            Atom("Item", ["okey", "discount"]),
            Atom("Ord", ["okey", "ckey", "odate"]),
            Atom("Cust", ["ckey", "cname"]),
        ],
        projection=["cname"],
    )


def example_iv4_query():
    """Example IV.4: π_okey(Item(ckey,okey,discount) ⋈ Ord ⋈ Cust)."""
    return ConjunctiveQuery(
        "IV.4",
        [
            Atom("Item", ["ckey", "okey", "discount"]),
            Atom("Ord", ["okey", "ckey", "odate"]),
            Atom("Cust", ["ckey", "cname"]),
        ],
        projection=["okey"],
    )


class TestFdReduct:
    def test_example_iv3(self):
        query = example_iv3_query()
        assert not is_hierarchical(query)
        reduct = fd_reduct(query, [ORD_FD])
        assert reduct.is_boolean()
        assert set(reduct.atom_of("Item").attributes) == {"okey", "discount", "ckey", "odate"}
        assert set(reduct.atom_of("Cust").attributes) == {"ckey"}
        assert is_hierarchical(reduct)

    def test_example_iv4(self):
        reduct = fd_reduct(example_iv4_query(), [ORD_FD, CUST_FD])
        # The head closure {okey, ckey, odate, cname} is discarded.
        assert set(reduct.atom_of("Item").attributes) == {"discount"}
        assert set(reduct.atom_of("Ord").attributes) == set()
        assert set(reduct.atom_of("Cust").attributes) == set()
        assert is_hierarchical(reduct)

    def test_selection_on_discarded_attribute_is_dropped(self):
        query = ConjunctiveQuery(
            "sel",
            example_iv3_query().atoms,
            projection=["cname"],
            selections=Comparison("cname", "=", "Joe"),
        )
        reduct = fd_reduct(query, [ORD_FD, CUST_FD])
        assert "cname" not in {a for atom in reduct.atoms for a in atom.attributes}
        assert reduct.selection_predicates() == []

    def test_tractable_through_the_fd_reduct(self):
        # Proposition IV.5: the chase can make the query hierarchical exactly
        # when the FD-reduct is hierarchical.
        assert not is_hierarchical(example_iv3_query())
        assert is_hierarchical(fd_reduct(example_iv3_query(), [ORD_FD]))
        assert is_tractable(example_iv3_query(), [ORD_FD])
        assert not is_tractable(example_iv3_query(), [])


class TestChasedQuery:
    def test_keeps_projection_and_join_attributes(self):
        chased = chased_query(example_iv3_query(), [ORD_FD])
        assert chased.projection == ("cname",)
        assert "ckey" in chased.atom_of("Item").attributes
        assert "okey" in chased.atom_of("Item").attributes
        assert is_hierarchical(chased)

    def test_no_fds_is_identity_on_attributes(self):
        chased = chased_query(example_iv3_query(), [])
        for atom, original in zip(chased.atoms, example_iv3_query().atoms):
            assert set(atom.attributes) == set(original.attributes)


class TestEffectiveSignature:
    def test_example_iv3_signature(self):
        # The FD-reduct's signature (modulo the sound outermost star, see DESIGN.md).
        signature = effective_signature(example_iv3_query(), [ORD_FD, CUST_FD])
        assert set(signature.tables()) == {"Cust", "Ord", "Item"}
        text = str(signature)
        assert "Item*" in text and "Cust" in text

    def test_example_iv4_signature(self):
        # Example IV.4: Cust Ord Item* (no stars on Cust/Ord).
        signature = effective_signature(example_iv4_query(), [ORD_FD, CUST_FD])
        assert "Cust*" not in str(signature) and "Ord*" not in str(signature)
        assert "Item*" in str(signature)

    def test_intractable_query_raises(self):
        query = ConjunctiveQuery(
            "hard", [Atom("R", ["x"]), Atom("S", ["x", "y"]), Atom("T", ["y"])]
        )
        with pytest.raises(NonHierarchicalQueryError):
            effective_signature(query, [])

    def test_is_tractable(self):
        hard = ConjunctiveQuery(
            "hard", [Atom("R", ["x"]), Atom("S", ["x", "y"]), Atom("T", ["y"])]
        )
        assert not is_tractable(hard)
        fixed = [FunctionalDependency("S", ["x"], ["y"])]
        assert is_tractable(hard, fixed)

    def test_effective_boolean_query_without_fds(self):
        boolean = effective_boolean_query(example_iv3_query(), [])
        assert boolean.is_boolean()
        assert [a.table for a in boolean.atoms] == ["Item", "Ord", "Cust"]
