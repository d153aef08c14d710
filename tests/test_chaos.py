"""Deterministic fault injection: every scripted failure is survivable.

The battery walks the named seams (``repro.faults.SEAMS``) and proves the
PR 10 robustness contract for each: an injected failure yields either a
clean structured error or a correctly *degraded* answer with sound bounds —
never a hang, never a silently wrong bound — and wherever the answer is not
degraded it is **bit-identical** to the no-fault run (the store seam fires
before a round plans or commits anything, so a retried request cannot
change a single bit).
"""

import pytest

from repro.errors import ConfigurationError, InjectedFault
from repro.faults import SEAMS, FaultPlan, fault_point, injected
from repro.query.parser import parse_query
from repro.service import QueryService, ServiceConfig, result_payload
from repro.service.__main__ import demo_database
from repro.sprout.engine import SproutEngine

SQL = "SELECT room, conf() FROM alarm, uplink, zone_ok"


def unsafe_query():
    db = demo_database()
    return db, parse_query(SQL, db.catalog).query


def topk_payload(db, query):
    with SproutEngine(db) as engine:
        result = engine.evaluate_topk(query, k=2)
        return result_payload(result), engine.cache_stats()


class TestFaultPlan:
    def test_parse_grammar(self):
        plan = FaultPlan.parse("store.propagate:1,3;http.read:2")
        with injected(plan):
            with pytest.raises(InjectedFault):
                fault_point("store.propagate")  # call 1 is scripted
            fault_point("store.propagate")  # call 2 is not
            fault_point("http.read")  # call 1 is not
            with pytest.raises(InjectedFault):
                fault_point("http.read")  # call 2 is scripted

    def test_scripted_calls_fire_exactly(self):
        plan = FaultPlan.parse("store.propagate:2")
        with injected(plan):
            fault_point("store.propagate")  # call 1: clean
            with pytest.raises(InjectedFault) as caught:
                fault_point("store.propagate")  # call 2: scripted
            assert caught.value.seam == "store.propagate"
            assert caught.value.call == 2
            fault_point("store.propagate")  # call 3: clean again
        assert plan.fired("store.propagate") == 1
        assert plan.fired() == 1

    def test_seeded_plans_are_reproducible(self):
        assert FaultPlan.seeded(7).schedule == FaultPlan.seeded(7).schedule
        assert FaultPlan.seeded(7).schedule != FaultPlan.seeded(8).schedule
        assert set(FaultPlan.seeded(7).schedule) == set(SEAMS)

    def test_malformed_specs_rejected(self):
        for spec in ("nope:1", "store.propagate", "store.propagate:x", "seed:x"):
            with pytest.raises(ConfigurationError):
                FaultPlan.parse(spec)

    def test_unknown_seam_is_a_typo_even_without_a_plan(self):
        with pytest.raises(ConfigurationError):
            fault_point("no.such.seam")

    def test_no_plan_is_free(self):
        for seam in SEAMS:
            fault_point(seam)  # no plan installed: a no-op

    def test_env_var_activates_a_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "store.propagate:1")
        db, query = unsafe_query()
        with SproutEngine(db) as engine:
            with pytest.raises(InjectedFault):
                engine.evaluate_topk(query, k=2)

    def test_env_var_malformed_is_a_configuration_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "garbage")
        with pytest.raises(ConfigurationError):
            fault_point("store.propagate")


class TestStorePropagateSeam:
    """store.propagate: fires at round entry, so the store is never torn."""

    def test_fault_is_structured_and_store_stays_sound(self):
        db, query = unsafe_query()
        clean, _ = topk_payload(db, query)
        engine = SproutEngine(demo_database())
        with injected(FaultPlan.parse("store.propagate:1")):
            with pytest.raises(InjectedFault):
                engine.evaluate_topk(query, k=2)
        # The seam fires before the round plans or commits anything: the
        # retried request computes the exact no-fault answer.
        retried = result_payload(engine.evaluate_topk(query, k=2))
        engine.close()
        assert retried == clean

    def test_mid_run_fault_leaves_sound_monotone_bounds(self):
        db, query = unsafe_query()
        clean, _ = topk_payload(db, query)
        engine = SproutEngine(demo_database())
        with injected(FaultPlan.parse("store.propagate:3")):
            with pytest.raises(InjectedFault):
                engine.evaluate_topk(query, k=2)
        # Two committed rounds survive; re-running refines onward from them
        # to the same fixpoint (monotone shrinkage, deterministic schedule).
        retried = result_payload(engine.evaluate_topk(query, k=2))
        engine.close()
        assert retried["rows"] == clean["rows"]
        assert retried["decided"] == clean["decided"]

    def test_service_keeps_serving_after_a_store_fault(self):
        db = demo_database()
        engine = SproutEngine(db)
        with QueryService(db, engine=engine) as service:
            with injected(FaultPlan.parse("store.propagate:1")):
                with pytest.raises(InjectedFault):
                    service.execute("topk", {"sql": SQL, "k": 2})
            assert service.failed == 1
            ok = service.execute("topk", {"sql": SQL, "k": 2})
            assert ok["decided"] is True
            assert service.stats()["completed"] == 1


class TestHttpReadSeam:
    """http.read: a dropped socket is the client's problem, not the server's."""

    def test_server_survives_and_client_retries_through(self):
        from repro.service import RetryPolicy, ServiceClient, ServiceServer

        plan = FaultPlan.parse("http.read:1")
        with ServiceServer(QueryService(demo_database())) as server:
            client = ServiceClient(
                server.host,
                server.port,
                retry=RetryPolicy(retries=3, backoff=0.001, seed=0),
            )
            with injected(plan):
                payload = client.topk(SQL, k=2)
            assert payload["decided"] is True
            assert plan.fired("http.read") == 1
            # The server shrugged the drop off and keeps serving.
            assert client.healthz() == {"ok": True}

    def test_without_retries_the_drop_is_a_structured_error(self):
        from repro.errors import ServiceConnectionError
        from repro.service import RetryPolicy, ServiceClient, ServiceServer

        with ServiceServer(QueryService(demo_database())) as server:
            client = ServiceClient(
                server.host, server.port, retry=RetryPolicy(retries=0)
            )
            with injected(FaultPlan.parse("http.read:1")):
                with pytest.raises(ServiceConnectionError):
                    client.topk(SQL, k=2)
            assert client.healthz() == {"ok": True}


class TestSnapshotWriteSeam:
    """snapshot.write: a failed checkpoint never takes down the lane."""

    def test_failed_periodic_snapshot_counts_and_serving_continues(self, tmp_path):
        config = ServiceConfig(
            snapshot_path=str(tmp_path / "state.snap"), snapshot_every=1
        )
        with QueryService(demo_database(), config=config) as service:
            with injected(FaultPlan.parse("snapshot.write:1")):
                first = service.execute("topk", {"sql": SQL, "k": 2})
                # Request 2 executes strictly after request 1's (faulted)
                # checkpoint attempt — the lane is serial.
                second = service.execute("topk", {"sql": SQL, "k": 2})
            third = service.execute("topk", {"sql": SQL, "k": 2})
            assert first["decided"] is True
            assert second["rows"] == first["rows"] == third["rows"]
            stats = service.stats()["snapshot"]
            assert stats["errors"] == 1
            assert stats["written"] >= 1  # request 2's checkpoint landed

    def test_failed_write_preserves_the_previous_snapshot(self, tmp_path):
        from repro.errors import SnapshotError
        from repro.service import read_snapshot, write_snapshot

        path = str(tmp_path / "state.snap")
        write_snapshot(path, {"generation": 1})
        with injected(FaultPlan.parse("snapshot.write:1")):
            with pytest.raises(SnapshotError):
                write_snapshot(path, {"generation": 2})
        assert read_snapshot(path) == {"generation": 1}
