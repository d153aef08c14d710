"""Integration tests: TPC-H queries end-to-end, all evaluation paths agree.

The exact lineage oracle (weighted model counting over the answer DNF,
``oracles.lineage``) is the ground truth here; it is itself validated against
possible-worlds enumeration on the small databases of ``test_engine.py`` and
the differential matrix.  The scan-based operator is also checked against the
literal Fig. 5 semantics (``oracles.semantics``).
"""

import pytest

from repro.errors import UnsafePlanError
from repro.safeplans import MystiqEngine

from repro.tpch.queries import FIGURE9_KEYS, query_A, query_B, query_C, query_D, tpch_query

from helpers import assert_confidences_close
from oracles.lineage import lineage_evaluate
from oracles.semantics import semantics_evaluate

# Building the TPC-H instance and enumerating lineage ground truth dominates
# the default suite's runtime; deselect with `-m "not slow"` for quick loops.
pytestmark = pytest.mark.slow


#: Queries covering every structural case: single table, key joins, FD-reducts,
#: Boolean variants, the nation aliases, and the hand-written A-D queries.
INTEGRATION_KEYS = [
    "1", "3", "B3", "4", "10", "11", "12", "15", "16", "B17", "18", "B18", "20", "7",
]


@pytest.fixture(scope="module")
def lineage_truth(tpch_db):
    return {key: lineage_evaluate(tpch_db, tpch_query(key).query) for key in INTEGRATION_KEYS}


class TestPlanStylesAgree:
    @pytest.mark.parametrize("key", INTEGRATION_KEYS)
    @pytest.mark.parametrize("plan", ["lazy", "eager", "hybrid"])
    def test_sprout_plans(self, tpch_engine, lineage_truth, key, plan):
        query = tpch_query(key).query
        result = tpch_engine.evaluate(query, plan=plan)
        assert_confidences_close(result.confidences(), lineage_truth[key], 1e-7)

    @pytest.mark.parametrize("key", ["3", "10", "15", "16", "B17", "18"])
    def test_mystiq_agrees_where_safe(self, tpch_db, lineage_truth, key):
        engine = MystiqEngine(tpch_db, use_log_aggregation=False, materialize_temporaries=False)
        result = engine.evaluate(tpch_query(key).query)
        assert_confidences_close(result.confidences(), lineage_truth[key], 1e-7)

    @pytest.mark.parametrize("key", ["1", "3", "18"])
    def test_scan_operator_matches_semantics(self, tpch_engine, key):
        query = tpch_query(key).query
        by_scans = tpch_engine.evaluate(query).confidences()
        by_semantics = semantics_evaluate(tpch_engine, query).confidences()
        assert_confidences_close(by_scans, by_semantics, 1e-9)

    def test_fds_do_not_change_results(self, tpch_engine):
        for key in ("3", "15", "16"):
            query = tpch_query(key).query
            with_fds = tpch_engine.evaluate(query, use_fds=True).confidences()
            without_fds = tpch_engine.evaluate(query, use_fds=False).confidences()
            assert_confidences_close(with_fds, without_fds, 1e-9)


class TestFigureQueries:
    def test_figure9_queries_run_with_all_engines(self, tpch_db, tpch_engine):
        mystiq = MystiqEngine(tpch_db, use_log_aggregation=False, materialize_temporaries=False)
        for key in FIGURE9_KEYS:
            query = tpch_query(key).query
            lazy = tpch_engine.evaluate(query, plan="lazy")
            eager = tpch_engine.evaluate(query, plan="eager")
            assert_confidences_close(eager.confidences(), lazy.confidences(), 1e-7)
            try:
                safe = mystiq.evaluate(query)
                assert_confidences_close(safe.confidences(), lazy.confidences(), 1e-7)
            except UnsafePlanError:
                pytest.fail(f"Fig. 9 query {key} should admit a MystiQ safe plan")

    def test_hand_written_queries(self, tpch_engine):
        for query in (query_A(2000.0), query_B(100_000.0), query_C(), query_D()):
            lazy = tpch_engine.evaluate(query, plan="lazy")
            eager = tpch_engine.evaluate(query, plan="eager")
            hybrid = tpch_engine.evaluate(query, plan="hybrid")
            assert_confidences_close(eager.confidences(), lazy.confidences(), 1e-7)
            assert_confidences_close(hybrid.confidences(), lazy.confidences(), 1e-7)

    def test_selectivity_sweep_is_monotone(self, tpch_engine):
        # Fig. 11: raising the selection threshold can only add answer tuples.
        sizes = []
        for threshold in (0.0, 2000.0, 6000.0, 10_000.0):
            result = tpch_engine.evaluate(query_A(threshold), plan="lazy")
            sizes.append(result.distinct_tuples)
        assert sizes == sorted(sizes)

    def test_single_scan_for_fd_refined_signatures(self, tpch_engine):
        # Fig. 13: with the TPC-H FDs the operator needs a single scan.
        for key in ("2", "7", "11", "B3"):
            query = tpch_query(key).query
            result = tpch_engine.evaluate(query, plan="lazy", use_fds=True)
            assert result.scans_used == 1

    def test_confidences_are_probabilities(self, tpch_engine):
        for key in INTEGRATION_KEYS:
            query = tpch_query(key).query
            for confidence in tpch_engine.evaluate(query).confidences().values():
                assert 0.0 <= confidence <= 1.0 + 1e-12
