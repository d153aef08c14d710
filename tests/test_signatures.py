"""Tests for query signatures: derivation, 1scan property, scans, 1scanTree."""

import pytest

from repro.errors import QueryError
from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.query.signature import (
    ConcatSig,
    StarSig,
    TableSig,
    has_one_scan_property,
    num_scans,
    one_scan_tree,
    parse_signature,
    restrict_signature,
    signature_of_query,
    sort_table_order,
)
from repro.storage.catalog import FunctionalDependency


INTRO_FDS = [
    FunctionalDependency("Ord", ["okey"], ["ckey", "odate"]),
    FunctionalDependency("Cust", ["ckey"], ["cname"]),
]


def intro_query():
    return ConjunctiveQuery(
        "Q",
        [
            Atom("Cust", ["ckey", "cname"]),
            Atom("Ord", ["okey", "ckey", "odate"]),
            Atom("Item", ["okey", "discount", "ckey"]),
        ],
        projection=["odate"],
    )


class TestParsing:
    @pytest.mark.parametrize(
        "text",
        [
            "R",
            "R*",
            "R* S*",
            "(Cust (Ord Item*)*)*",
            "(Cust* (Ord* Item*)*)*",
            "(R1 (R2 R3*)* (R4 R5*)*)*",
            "Nation1 Supp (Nation2 (Cust (Ord Item*)*)*)*",
        ],
    )
    def test_roundtrip(self, text):
        signature = parse_signature(text)
        assert parse_signature(str(signature)) == signature

    def test_nested_star_collapses(self):
        assert parse_signature("(R*)*") == parse_signature("R*")

    def test_unbalanced_rejected(self):
        with pytest.raises(QueryError):
            parse_signature("(R S*")
        with pytest.raises(QueryError):
            parse_signature("R)")
        with pytest.raises(QueryError):
            parse_signature("*R")

    def test_tables_in_order(self):
        assert parse_signature("(Cust (Ord Item*)*)*").tables() == ["Cust", "Ord", "Item"]


class TestDerivation:
    def test_intro_query_without_fds(self):
        # Example III.2: (Cust*(Ord*Item*)*)* without key constraints, when the
        # base tables carry more attributes than the query mentions (the
        # paper's atoms are written Cust(ckey, ..) etc.).
        full_schemas = {
            "Cust": ["ckey", "cname", "caddress"],
            "Ord": ["okey", "ckey", "odate", "opriority"],
            "Item": ["okey", "discount", "ckey", "lcomment"],
        }
        signature = signature_of_query(intro_query(), table_attributes=full_schemas)
        assert str(signature) == "(Cust* (Ord* Item*)*)*"
        # With only the query's own attributes, the visible attributes of Ord
        # are covered by the group (the A -> V P dependency of the data model
        # makes them a key), so its star can soundly be dropped.
        assert str(signature_of_query(intro_query())) == "(Cust* (Ord Item*)*)*"

    def test_intro_query_with_keys(self):
        # Example III.2 refined by the keys: (Cust(Ord Item*)*)*.
        signature = signature_of_query(intro_query(), fds=INTRO_FDS)
        assert str(signature) == "(Cust (Ord Item*)*)*"

    def test_boolean_product_query(self):
        query = ConjunctiveQuery("prod", [Atom("R", ["a"]), Atom("S", ["b"])])
        assert str(signature_of_query(query)) == "R* S*"

    def test_single_table(self):
        query = ConjunctiveQuery("one", [Atom("R", ["a", "b"])], projection=["a"])
        assert str(signature_of_query(query)) == "R*"

    def test_full_table_attributes_prevent_star_drop(self):
        # With the full base-table schema known, a table whose extra columns
        # are not determined keeps its star.
        query = intro_query()
        signature = signature_of_query(
            query,
            fds=INTRO_FDS,
            table_attributes={"Item": ["okey", "discount", "ckey", "comment"]},
        )
        assert str(signature) == "(Cust (Ord Item*)*)*"


class TestOneScanProperty:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("(Cust (Ord Item*)*)*", True),
            ("(Cust* (Ord* Item*)*)*", False),
            ("R* S*", True),
            ("Nation1 Supp (Nation2 (Cust (Ord Item*)*)*)*", True),
            ("R", True),
            ("R*", True),
            ("((R S*)* (U W*)*)*", False),
        ],
    )
    def test_examples(self, text, expected):
        # Example V.9 and Definition V.8.
        assert has_one_scan_property(parse_signature(text)) is expected

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("(Cust (Ord Item*)*)*", 1),
            ("(Cust* (Ord* Item*)*)*", 3),
            ("R* S*", 1),
            ("((R S*)* (U W*)*)*", 2),
        ],
    )
    def test_num_scans(self, text, expected):
        # Example V.11: the unrefined intro signature needs three scans.
        assert num_scans(parse_signature(text)) == expected


class TestTransformations:
    def test_restrict_signature(self):
        signature = parse_signature("(Cust* (Ord* Item*)*)*")
        assert str(restrict_signature(signature, ["Ord", "Item"])) == "(Ord* Item*)*"
        assert str(restrict_signature(signature, ["Cust"])) == "Cust*"
        assert restrict_signature(signature, ["Nope"]) is None


class TestOneScanTree:
    def test_intro_signature_is_a_path(self):
        # Example V.12: 1scanTree (Cust, Ord, Item); sort order follows it.
        signature = parse_signature("(Cust (Ord Item*)*)*")
        forest = one_scan_tree(signature)
        assert len(forest) == 1
        assert str(forest[0]) == "Cust(Ord(Item))"
        assert sort_table_order(signature) == ["Cust", "Ord", "Item"]

    def test_branching_signature(self):
        # Example V.12: (R1(R2R3*)*(R4R5*)*)* serialises as R1(R2(R3), R4(R5)).
        signature = parse_signature("(R1 (R2 R3*)* (R4 R5*)*)*")
        forest = one_scan_tree(signature)
        assert str(forest[0]) == "R1(R2(R3), R4(R5))"
        assert sort_table_order(signature) == ["R1", "R2", "R3", "R4", "R5"]

    def test_product_signature_gives_forest(self):
        forest = one_scan_tree(parse_signature("R* S*"))
        assert [node.table for node in forest] == ["R", "S"]

    def test_non_1scan_rejected(self):
        with pytest.raises(QueryError):
            one_scan_tree(parse_signature("(Cust* (Ord* Item*)*)*"))

    def test_sort_order_for_non_1scan_signature(self):
        order = sort_table_order(parse_signature("(Cust* (Ord* Item*)*)*"))
        assert order == ["Cust", "Ord", "Item"]


class TestEqualityAndStructure:
    def test_equality_by_structure(self):
        assert parse_signature("(R S*)*") == StarSig(
            ConcatSig([TableSig("R"), StarSig(TableSig("S"))])
        )

    def test_concat_flattening(self):
        nested = ConcatSig([TableSig("A"), ConcatSig([TableSig("B"), TableSig("C")])])
        assert str(nested) == "A B C"

    def test_single_part_concat_collapses(self):
        assert ConcatSig([TableSig("A")]) == TableSig("A")

    def test_table_set(self):
        assert parse_signature("(R S*)*").table_set() == frozenset({"R", "S"})
