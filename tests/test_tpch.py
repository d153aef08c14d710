"""Tests for the TPC-H substrate: generator, schema, queries, case study."""

import pytest

from repro import Atom
from repro.errors import UnsupportedQueryError
from repro.tpch.casestudy import case_study_table, classify_all, classify_query
from repro.tpch.datagen import MKT_SEGMENTS, NATIONS, REGIONS, generate_tpch
from repro.tpch.probabilistic import make_probabilistic_tpch
from repro.tpch.queries import (
    FIGURE10_KEYS,
    FIGURE13_KEYS,
    FIGURE9_KEYS,
    all_query_keys,
    excluded_query_keys,
    query_A,
    query_B,
    query_C,
    query_D,
    tpch_query,
)
from repro.tpch.schema import TPCH_TABLES, tpch_functional_dependencies, tpch_keys, tpch_schema


class TestDataGenerator:
    def test_cardinality_ratios(self):
        data = generate_tpch(scale_factor=0.001, seed=1)
        counts = data.row_counts()
        assert counts["region"] == 5 and counts["nation"] == 25
        assert counts["supplier"] == 10
        assert counts["customer"] == 150
        assert counts["part"] == 200
        assert counts["partsupp"] == 800
        assert counts["orders"] == 1500
        # one to seven lineitems per order
        assert counts["orders"] <= counts["lineitem"] <= 7 * counts["orders"]

    def test_determinism(self):
        first = generate_tpch(scale_factor=0.0005, seed=42)
        second = generate_tpch(scale_factor=0.0005, seed=42)
        for name in TPCH_TABLES:
            assert first[name].rows == second[name].rows
        different = generate_tpch(scale_factor=0.0005, seed=43)
        assert different["orders"].rows != first["orders"].rows

    def test_primary_keys_are_unique(self):
        data = generate_tpch(scale_factor=0.0005, seed=3)
        for name, key in tpch_keys().items():
            relation = data[name]
            indices = relation.schema.indices_of(key)
            values = [tuple(row[i] for i in indices) for row in relation]
            assert len(values) == len(set(values)), f"duplicate key in {name}"

    def test_foreign_key_integrity(self):
        data = generate_tpch(scale_factor=0.0005, seed=3)
        order_keys = set(data["orders"].column("orderkey"))
        customer_keys = set(data["customer"].column("custkey"))
        supplier_keys = set(data["supplier"].column("suppkey"))
        part_keys = set(data["part"].column("partkey"))
        assert set(data["orders"].column("custkey")) <= customer_keys
        assert set(data["lineitem"].column("orderkey")) <= order_keys
        assert set(data["lineitem"].column("suppkey")) <= supplier_keys
        assert set(data["lineitem"].column("partkey")) <= part_keys
        assert set(data["partsupp"].column("suppkey")) <= supplier_keys

    def test_value_domains(self):
        data = generate_tpch(scale_factor=0.0005, seed=3)
        assert set(data["customer"].column("c_mktsegment")) <= set(MKT_SEGMENTS)
        assert set(data["nation"].column("n_name")) == {name for name, _ in NATIONS}
        assert set(data["region"].column("r_name")) == set(REGIONS)
        for date in data["orders"].column("o_orderdate"):
            assert "1992-01-01" <= date <= "1998-12-28"

    def test_every_nation_has_customers_at_small_scale(self):
        data = generate_tpch(scale_factor=0.001, seed=3)
        assert set(data["customer"].column("c_nationkey")) == set(range(25))


class TestProbabilisticTpch:
    def test_tables_and_aliases_registered(self, tpch_db):
        names = set(tpch_db.table_names())
        assert set(TPCH_TABLES) <= names
        assert {"nation_s", "nation_c"} <= names

    def test_aliases_share_variables(self, tpch_db):
        assert tpch_db.table("nation_s").variables() == tpch_db.table("nation").variables()
        assert "s_nationkey" in tpch_db.table("nation_s").schema.names

    def test_probabilities_in_range(self, tpch_db):
        for probability in tpch_db.probabilities().values():
            assert 0 < probability <= 1

    def test_uniform_probability_option(self):
        data = generate_tpch(scale_factor=0.0002, seed=5)
        db = make_probabilistic_tpch(data, uniform_probability=0.5)
        assert set(db.probabilities().values()) == {0.5}

    def test_keys_registered_as_fds(self, tpch_db):
        fds = tpch_db.catalog.functional_dependencies(["orders"])
        assert any(fd.determinant == frozenset({"orderkey"}) for fd in fds)


class TestSelfJoinsThroughAliases:
    def test_query_7_joins_two_alias_copies_of_nation(self, tpch_db, tpch_engine):
        """Section IV's mutually exclusive self-join: naming ``nation`` twice
        is refused with a message that points at ``add_alias``, and query 7
        over the two registered copies evaluates."""
        from oracles.rows import RowEngine

        query = tpch_query("7").query
        self_joined = [
            Atom("nation", atom.attributes) if atom.table.startswith("nation_") else atom
            for atom in query.atoms
        ]
        with pytest.raises(UnsupportedQueryError, match="ProbabilisticDatabase.add_alias"):
            query.with_atoms(self_joined)
        confidences = tpch_engine.evaluate(query).confidences()
        assert confidences and {row[1:] for row in confidences} == {("FRANCE", "GERMANY")}
        assert confidences == RowEngine(tpch_db).evaluate(query).confidences()


class TestQueryRegistry:
    def test_all_22_queries_registered(self):
        keys = all_query_keys()
        for number in range(1, 23):
            assert str(number) in keys

    def test_figure_lists_are_registered(self):
        for key in FIGURE9_KEYS + FIGURE10_KEYS + FIGURE13_KEYS:
            assert tpch_query(key) is not None

    def test_excluded_queries(self):
        excluded = set(excluded_query_keys())
        assert {"5", "8", "9", "13", "22"} <= excluded
        assert not (excluded & set(FIGURE9_KEYS))
        assert not (excluded & set(FIGURE10_KEYS))

    def test_boolean_variants_are_boolean(self):
        for key in all_query_keys():
            if key.startswith("B"):
                assert tpch_query(key).query.is_boolean()

    def test_unknown_key_raises(self):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            tpch_query("99")

    def test_parameterised_queries(self):
        assert query_A(1000.0).selections.value == 1000.0
        assert "o_totalprice" in str(query_B(5000.0))
        assert query_C().table_names() == ["customer", "orders", "lineitem"]
        assert query_D().projection == ("s_nationkey",)


class TestCaseStudy:
    def test_selected_classifications(self):
        fds = tpch_functional_dependencies()
        # Query 3 (okey in the projection) is hierarchical outright.
        assert classify_query(tpch_query("3"), fds).hierarchical_without_fds
        # Its Boolean variant needs the orderkey -> custkey FD.
        b3 = classify_query(tpch_query("B3"), fds)
        assert not b3.hierarchical_without_fds and b3.hierarchical_with_fds
        # Query 18 needs FDs as well (Section VI).
        q18 = classify_query(tpch_query("18"), fds)
        assert not q18.hierarchical_without_fds and q18.hierarchical_with_fds
        # Queries 5/8/9 stay intractable.
        for key in ("5", "8", "9"):
            classification = classify_query(tpch_query(key), fds)
            assert not classification.hierarchical_with_fds

    def test_every_figure_query_is_tractable(self):
        classifications = classify_all()
        for key in FIGURE9_KEYS + FIGURE10_KEYS + FIGURE13_KEYS:
            assert classifications[key].tractable, key

    def test_case_study_table_renders(self):
        text = case_study_table()
        assert "query" in text and "signature" in text and "paper (Section VI)" in text

    def test_signature_examples(self):
        classifications = classify_all()
        assert "lineitem*" in classifications["B17"].signature
        assert classifications["18"].scans == 1


class TestSchemaHelpers:
    def test_schema_lookup(self):
        assert "orderkey" in tpch_schema("orders").names
        assert tpch_keys()["lineitem"] == ("orderkey", "l_linenumber")

    def test_functional_dependencies_cover_candidate_keys(self):
        fds = tpch_functional_dependencies()
        assert any(fd.determinant == frozenset({"s_name"}) for fd in fds)
        assert any(fd.table == "nation_c" for fd in fds)
