"""The shared environment-knob parser and the engines' use of it.

Every ``REPRO_*`` knob goes through :mod:`repro.config`, so a malformed
value raises the same documented :class:`repro.errors.ConfigurationError`
everywhere — which is both a :class:`ValueError` (the documented contract)
and a :class:`repro.errors.PlanningError` (what engine callers catch).
"""

import pytest

from repro import ProbabilisticDatabase, SproutEngine
from repro.config import env_flag, env_int
from repro.errors import ConfigurationError, PlanningError
from repro.prob.backend import default_vectorize
from repro.service import QueryService, ServiceConfig
from repro.storage import Relation, Schema


@pytest.fixture
def tiny_db():
    db = ProbabilisticDatabase("tiny")
    db.add_table(Relation("R", Schema.of("a:int"), [(1,)]), probabilities=[0.5])
    return db


class TestEnvFlag:
    def test_unset_and_empty_use_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert env_flag("REPRO_TEST_FLAG") is None
        assert env_flag("REPRO_TEST_FLAG", default=True) is True
        monkeypatch.setenv("REPRO_TEST_FLAG", "")
        assert env_flag("REPRO_TEST_FLAG", default=False) is False

    @pytest.mark.parametrize("value", ("1", "true", "YES", "On"))
    def test_truthy_spellings(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TEST_FLAG", value)
        assert env_flag("REPRO_TEST_FLAG") is True

    @pytest.mark.parametrize("value", ("0", "false", "NO", "Off"))
    def test_falsy_spellings(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TEST_FLAG", value)
        assert env_flag("REPRO_TEST_FLAG", default=True) is False

    def test_malformed_raises_the_documented_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG", "maybe")
        with pytest.raises(ConfigurationError) as excinfo:
            env_flag("REPRO_TEST_FLAG")
        assert "REPRO_TEST_FLAG" in str(excinfo.value)
        assert "'maybe'" in str(excinfo.value)
        # The dual contract: a ValueError for library users, a PlanningError
        # for everything that already catches engine configuration failures.
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, PlanningError)


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

    def test_malformed_shared_lineage_rejected(self, tiny_db, monkeypatch):
        monkeypatch.setenv("REPRO_SHARED_LINEAGE", "sometimes")
        with pytest.raises(ConfigurationError):
            SproutEngine(tiny_db)

    def test_malformed_vectorize_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTORIZE", "fast")
        with pytest.raises(ConfigurationError):
            default_vectorize()

    def test_well_formed_knobs_still_apply(self, tiny_db, monkeypatch):
        monkeypatch.setenv("REPRO_DTREE_CACHE", "123")
        monkeypatch.setenv("REPRO_SHARED_LINEAGE", "1")
        engine = SproutEngine(tiny_db)
        assert engine.dtree_cache_size == 123
        assert engine.shared_lineage is True
