"""Tests for the SQL-ish parser with conf()."""

import pytest

from repro.errors import QueryError
from repro.algebra.expressions import Comparison
from repro.query.parser import parse_query
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.schema import Schema


def _register(catalog, name, specs, rows, **keys):
    schema = Schema.of(*specs)
    catalog.register_table(name, schema, relation=Relation(name, schema, rows), **keys)


@pytest.fixture
def catalog():
    catalog = Catalog()
    _register(catalog, "cust", ["ckey:int", "cname:str"], [(1, "Joe")], primary_key=["ckey"])
    _register(
        catalog, "ord", ["okey:int", "ckey:int", "odate:date"], [(1, 1, "1995-01-10")],
        primary_key=["okey"],
    )
    _register(catalog, "item", ["okey:int", "discount:float"], [(1, 0.05)])
    return catalog


class TestParse:
    def test_basic_query(self, catalog):
        parsed = parse_query(
            "SELECT odate, conf() FROM cust, ord, item WHERE cname = 'Joe' AND discount > 0",
            catalog,
            name="Q",
        )
        assert parsed.wants_confidence
        assert parsed.query.projection == ("odate",)
        assert {a.table for a in parsed.query.atoms} == {"cust", "ord", "item"}
        assert Comparison("cname", "=", "Joe") in parsed.query.selection_predicates()
        assert Comparison("discount", ">", 0) in parsed.query.selection_predicates()

    def test_boolean_query(self, catalog):
        parsed = parse_query("SELECT conf() FROM cust WHERE cname = 'Joe'", catalog)
        assert parsed.query.is_boolean() and parsed.wants_confidence

    def test_distinct_flag(self, catalog):
        parsed = parse_query("SELECT DISTINCT cname FROM cust", catalog)
        assert parsed.distinct and not parsed.wants_confidence

    def test_qualified_attributes(self, catalog):
        parsed = parse_query("SELECT ord.odate FROM ord WHERE ord.okey = 5", catalog)
        assert parsed.query.projection == ("odate",)
        assert parsed.query.selection_predicates() == [Comparison("okey", "=", 5)]

    def test_join_condition_on_same_name_is_implicit(self, catalog):
        parsed = parse_query("SELECT odate FROM cust, ord WHERE cust.ckey = ord.ckey", catalog)
        assert parsed.query.selection_predicates() == []
        assert "ckey" in parsed.query.join_attributes()

    def test_numeric_and_boolean_literals(self, catalog):
        parsed = parse_query(
            "SELECT odate FROM ord WHERE okey >= 3 AND odate < '1995-01-01'", catalog
        )
        predicates = parsed.query.selection_predicates()
        assert Comparison("okey", ">=", 3) in predicates
        assert Comparison("odate", "<", "1995-01-01") in predicates

    def test_case_insensitive_table_lookup(self, catalog):
        parsed = parse_query("SELECT cname FROM CUST", catalog)
        assert parsed.query.table_names() == ["cust"]


class TestParseErrors:
    def test_not_a_select(self, catalog):
        with pytest.raises(QueryError):
            parse_query("DELETE FROM cust", catalog)

    def test_unknown_table(self, catalog):
        with pytest.raises(QueryError):
            parse_query("SELECT x FROM nowhere", catalog)

    def test_unknown_attribute(self, catalog):
        with pytest.raises(QueryError):
            parse_query("SELECT shoe_size FROM cust", catalog)

    def test_star_rejected(self, catalog):
        with pytest.raises(QueryError):
            parse_query("SELECT * FROM cust", catalog)

    def test_inequality_join_rejected(self, catalog):
        with pytest.raises(QueryError):
            parse_query("SELECT odate FROM ord, item WHERE okey < discount", catalog)

    def test_unquoted_string_rejected(self, catalog):
        with pytest.raises(QueryError):
            parse_query("SELECT cname FROM cust WHERE cname = Joe", catalog)

    def test_join_on_different_names_rejected(self, catalog):
        with pytest.raises(QueryError):
            parse_query("SELECT cname FROM cust, ord WHERE ckey = okey", catalog)

    def test_malformed_condition(self, catalog):
        with pytest.raises(QueryError):
            parse_query("SELECT cname FROM cust WHERE cname LIKE 'J%'", catalog)

    @pytest.mark.parametrize(
        "condition",
        [
            "cname < 5",  # number against str
            "odate >= 19950101",  # ... against date
            "cname > true",  # bool is a number
            "ckey < 'x'",  # string against int
            "discount <= '0.05'",  # ... against float
        ],
    )
    def test_unorderable_literal_rejected(self, catalog, condition):
        with pytest.raises(QueryError, match="cannot order"):
            parse_query(f"SELECT cname FROM cust, ord, item WHERE {condition}", catalog)

    @pytest.mark.parametrize(
        "condition",
        [
            "cname = 5",  # = and != with a mismatched literal are false or true
            "cname != 5",
            "ckey = 'x'",
            "ckey <> 'x'",
            "ckey < 5.5",  # int and float order against each other
            "discount > 0",
            "odate < '1995-01-01'",
        ],
    )
    def test_orderable_or_equality_literal_accepted(self, catalog, condition):
        parsed = parse_query(f"SELECT cname FROM cust, ord, item WHERE {condition}", catalog)
        assert len(parsed.query.selection_predicates()) == 1

    def test_stored_values_decide_not_the_declared_dtype(self):
        # `Schema.of` declares `str` by default and rows are not validated
        # against it: an undeclared column of ints orders against numbers, and
        # an `int` column holding strings does not.
        catalog = Catalog()
        _register(catalog, "people", ["name", "age"], [("ann", 30), ("bob", None)])
        _register(catalog, "codes", ["code:int"], [(None,), ("a",)])
        parse_query("SELECT name FROM people WHERE age > 25", catalog)
        with pytest.raises(QueryError, match="cannot order"):
            parse_query("SELECT name FROM people WHERE age < 'x'", catalog)
        with pytest.raises(QueryError, match="cannot order"):
            parse_query("SELECT code FROM codes WHERE code < 5", catalog)

    def test_nothing_stored_nothing_to_refuse(self):
        # No value could raise when the query runs: no stored relation, no
        # rows, or only None cells.
        catalog = Catalog()
        catalog.register_table("bare", Schema.of("a:int"))
        _register(catalog, "empty", ["b:int"], [])
        _register(catalog, "nulls", ["c:int"], [(None,)])
        for table, attribute in (("bare", "a"), ("empty", "b"), ("nulls", "c")):
            parse_query(f"SELECT {attribute} FROM {table} WHERE {attribute} < 'x'", catalog)
