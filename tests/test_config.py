"""The shared environment-knob parser and the engines' use of it.

Every ``REPRO_*`` knob goes through :mod:`repro.config`, so a malformed
value raises the same documented :class:`repro.errors.ConfigurationError`
everywhere — which is both a :class:`ValueError` (the documented contract)
and a :class:`repro.errors.PlanningError` (what engine callers catch).
"""

import pytest

from repro import Atom, ConjunctiveQuery, ProbabilisticDatabase, SproutEngine
from repro.config import env_int
from repro.errors import ConfigurationError, PlanningError
from repro.prob.formulas import DNF
from repro.prob.sharedag import SharedDTreeCache, SharedLineageStore
from repro.service import QueryService, ServiceConfig
from repro.sprout.streaming import StandingQuery
from repro.storage import Relation, Schema


@pytest.fixture
def tiny_db():
    db = ProbabilisticDatabase("tiny")
    db.add_table(Relation("R", Schema.of("a:int"), [(1,)]), probabilities=[0.5])
    return db


class TestEnvInt:
    def test_unset_uses_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_INT", raising=False)
        assert env_int("REPRO_TEST_INT") is None
        assert env_int("REPRO_TEST_INT", default=7) == 7

    def test_parses_and_checks_the_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "12")
        assert env_int("REPRO_TEST_INT", minimum=0) == 12
        monkeypatch.setenv("REPRO_TEST_INT", "-3")
        with pytest.raises(ConfigurationError):
            env_int("REPRO_TEST_INT", minimum=0)

    @pytest.mark.parametrize("value", ("many", "3.5", "0x10"))
    def test_malformed_raises(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TEST_INT", value)
        with pytest.raises(ConfigurationError) as excinfo:
            env_int("REPRO_TEST_INT", minimum=0)
        assert "REPRO_TEST_INT" in str(excinfo.value)
        assert repr(value) in str(excinfo.value)
        # The dual contract: a ValueError for library users, a PlanningError
        # for everything that already catches engine configuration failures.
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, PlanningError)


class TestEngineKnobsThroughTheSharedParser:
    def test_retired_pool_knobs_are_not_read(self, tiny_db, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "a few")
        monkeypatch.setenv("REPRO_LANES", "many")
        SproutEngine(tiny_db).close()

    @pytest.mark.parametrize("knob", ("workers", "refine_lanes"))
    def test_retired_pool_arguments_are_rejected(self, tiny_db, knob):
        """No compatibility shim swallows the old pool sizes silently."""
        with pytest.raises(TypeError):
            SproutEngine(tiny_db, **{knob: 2})

    def test_service_config_has_no_lane_count(self, tiny_db):
        with pytest.raises(TypeError):
            ServiceConfig(refine_lanes=2)
        with QueryService(tiny_db) as service:
            assert "refine_lanes" not in service.stats()

    def test_malformed_dtree_cache_rejected(self, tiny_db, monkeypatch):
        monkeypatch.setenv("REPRO_DTREE_CACHE", "0")
        with pytest.raises(ConfigurationError):
            SproutEngine(tiny_db)

    @pytest.mark.parametrize("value", ("0", "false", "off", "1", "", "sometimes"))
    def test_retired_shared_lineage_knob_is_not_read(self, tiny_db, monkeypatch, value):
        # Lineage has one compiler, the shared store: no spelling that once
        # selected either compiler, and no malformed one, is parsed.
        monkeypatch.setenv("REPRO_SHARED_LINEAGE", value)
        with SproutEngine(tiny_db) as engine:
            query = ConjunctiveQuery("q", [Atom("R", ["a"])], [])
            engine.evaluate_topk(query, k=1, plan="dtree")
            assert engine.cache_stats()["misses"] == 1
            assert len(engine.dtree_cache.store.table) > 0

    @pytest.mark.parametrize("value", (False, True))
    @pytest.mark.parametrize("target", ("engine", "standing_query"))
    def test_retired_shared_lineage_argument_is_rejected(self, tiny_db, target, value):
        """No compatibility shim swallows the old compiler switch silently,
        not even the value that named the one compiler left."""
        with pytest.raises(TypeError):
            if target == "engine":
                SproutEngine(tiny_db, shared_lineage=value)
            else:
                StandingQuery(
                    {(1,): DNF([frozenset({0})])}, {0: 0.5}, k=1, shared_lineage=value
                )

    def test_retired_vectorize_knob_is_not_read(self, tiny_db, monkeypatch):
        # Bound propagation has one scalar path, so nothing parses the
        # variable: a value the shared parser would reject is ignored.
        monkeypatch.setenv("REPRO_VECTORIZE", "fast")
        SproutEngine(tiny_db).close()

    def test_retired_vectorize_argument_is_rejected(self, tiny_db):
        """No compatibility shim swallows the old backend switch silently."""
        with pytest.raises(TypeError):
            SproutEngine(tiny_db, vectorize=False)
        with pytest.raises(TypeError):
            StandingQuery({(1,): DNF([frozenset({0})])}, {0: 0.5}, k=1, vectorize=False)
        with pytest.raises(TypeError):
            SharedLineageStore(vectorize=False)
        with pytest.raises(TypeError):
            SharedDTreeCache(vectorize=False)

    def test_well_formed_knobs_still_apply(self, tiny_db, monkeypatch):
        monkeypatch.setenv("REPRO_DTREE_CACHE", "123")
        engine = SproutEngine(tiny_db)
        assert engine.dtree_cache_size == 123
        assert not hasattr(engine, "shared_lineage")
