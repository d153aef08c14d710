"""Crash-recoverable snapshots: atomic format, warm restore, corrupt fallback.

The acceptance bar from PR 10: a killed-and-restarted server re-decides a
warm query in ≤1 logical step (the snapshot carries the shared store's
refined bounds), restored subscriptions keep their ids and decided sets,
and a truncated or corrupt snapshot boots the service **cold with a
structured warning** — never a crash, never a wrong answer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import SnapshotError
from repro.prob.nodetable import NodeTable
from repro.service import (
    QueryService,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    read_snapshot,
    write_snapshot,
)
from repro.service.__main__ import demo_database
from repro.service.snapshot import MAGIC
from repro.sprout.engine import SproutEngine

SQL = "SELECT room, conf() FROM alarm, uplink, zone_ok"


def shared_service(config):
    """A service over the demo database; its snapshots carry the engine's
    shared d-tree cache, which the warm-restart contract is about."""
    db = demo_database()
    return QueryService(db, config=config, engine=SproutEngine(db))


class TestSnapshotFormat:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "s.snap")
        payload = {"answer": [1, 2, 3], "nested": {"pi": 3.14159}}
        size = write_snapshot(path, payload)
        assert size > 0
        assert read_snapshot(path) == payload

    def test_overwrite_is_atomic_at_the_api_level(self, tmp_path):
        path = str(tmp_path / "s.snap")
        write_snapshot(path, {"generation": 1})
        write_snapshot(path, {"generation": 2})
        assert read_snapshot(path) == {"generation": 2}
        assert list(tmp_path.iterdir()) == [tmp_path / "s.snap"]  # no temp litter

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            read_snapshot(str(tmp_path / "absent.snap"))

    def test_garbled_magic(self, tmp_path):
        path = tmp_path / "s.snap"
        write_snapshot(str(path), {"x": 1})
        blob = path.read_bytes()
        path.write_bytes(b"NOTASNAP" + blob[8:])
        with pytest.raises(SnapshotError, match="header"):
            read_snapshot(str(path))

    def test_truncation_at_every_boundary_class(self, tmp_path):
        path = tmp_path / "s.snap"
        write_snapshot(str(path), {"x": list(range(50))})
        blob = path.read_bytes()
        header = len(MAGIC) + 8 + 32
        # Inside the magic, inside the length, inside the digest, inside the
        # payload, and one byte short of complete — all must fail loudly.
        for cut in (0, len(MAGIC) - 1, len(MAGIC) + 4, header - 1, header + 3, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(SnapshotError):
                read_snapshot(str(path))

    def test_bit_flip_fails_the_checksum(self, tmp_path):
        path = tmp_path / "s.snap"
        write_snapshot(str(path), {"x": 1})
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(str(path))

    def test_unpicklable_payload(self, tmp_path):
        with pytest.raises(SnapshotError, match="picklable"):
            write_snapshot(str(tmp_path / "s.snap"), {"f": lambda: None})


class TestServiceRecovery:
    def _config(self, tmp_path):
        return ServiceConfig(snapshot_path=str(tmp_path / "service.snap"))

    def test_warm_restart_re_decides_in_at_most_one_step(self, tmp_path):
        config = self._config(tmp_path)
        with shared_service(config) as service:
            cold = service.execute("topk", {"sql": SQL, "k": 2})
            assert cold["refine_steps"] > 0
        # A brand-new service over a brand-new database copy: all warmth
        # must come from the snapshot written at close().
        with shared_service(config) as reborn:
            assert reborn.snapshot_restored is True
            # The snapshot carries the view cache, never the answer memo: the
            # reborn engine runs the query once and finds its views warm.
            assert reborn.stats()["cache"]["answer_entries"] == 0
            warm = reborn.execute("topk", {"sql": SQL, "k": 2})
            assert reborn.stats()["cache"]["answer_misses"] == 1
        assert warm["refine_steps"] <= 1
        assert warm["rows"] == cold["rows"]
        assert warm["decided"] is True

    def test_subscriptions_survive_with_ids_and_decided_sets(self, tmp_path):
        config = self._config(tmp_path)
        with QueryService(demo_database(), config=config) as service:
            created = service.execute("subscribe", {"sql": SQL, "k": 2})
            assert created["subscription"] == "sub-0"
            before = service.execute(
                "subscription_get", {"subscription": "sub-0"}
            )
        with QueryService(demo_database(), config=config) as reborn:
            assert reborn.subscriptions() == ["sub-0"]
            after = reborn.execute("subscription_get", {"subscription": "sub-0"})
            assert after["selected"] == before["selected"]
            assert after["decided"] == before["decided"]
            # The id sequence continues; restored ids are never reissued.
            fresh = reborn.execute("subscribe", {"sql": SQL, "tau": 0.5})
            assert fresh["subscription"] == "sub-1"

    def test_restored_subscription_still_processes_deltas(self, tmp_path):
        config = self._config(tmp_path)
        with QueryService(demo_database(), config=config) as service:
            service.execute("subscribe", {"sql": SQL, "k": 2})
            variables = service.execute(
                "subscription_get", {"subscription": "sub-0"}
            )["variables"]
        with QueryService(demo_database(), config=config) as reborn:
            updated = reborn.execute(
                "subscription_update",
                {"subscription": "sub-0", "variable": variables[0], "probability": 0.01},
            )
            assert updated["kind"] == "update"
            assert updated["decided"] in (True, False)

    def test_corrupt_snapshot_boots_cold_with_a_warning(self, tmp_path):
        config = self._config(tmp_path)
        with QueryService(demo_database(), config=config) as service:
            service.execute("topk", {"sql": SQL, "k": 2})
        # Stomp the snapshot: truncate it mid-payload.
        path = tmp_path / "service.snap"
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.warns(RuntimeWarning, match="booting cold"):
            reborn = QueryService(demo_database(), config=config)
        try:
            assert reborn.snapshot_restored is False
            assert reborn.snapshot_failed == 1
            reborn.start()
            cold = reborn.execute("topk", {"sql": SQL, "k": 2})
            assert cold["decided"] is True
            assert cold["refine_steps"] > 0  # genuinely cold, and serving
        finally:
            reborn.close()

    def test_foreign_bytes_boot_cold_too(self, tmp_path):
        config = self._config(tmp_path)
        (tmp_path / "service.snap").write_bytes(b"not a snapshot at all")
        with pytest.warns(RuntimeWarning, match="booting cold"):
            reborn = QueryService(demo_database(), config=config)
        try:
            reborn.start()
            assert reborn.execute("topk", {"sql": SQL, "k": 2})["decided"] is True
        finally:
            reborn.close()

    def test_periodic_snapshots_by_request_count(self, tmp_path):
        config = ServiceConfig(
            snapshot_path=str(tmp_path / "service.snap"), snapshot_every=2
        )
        with shared_service(config) as service:
            for _ in range(4):
                service.execute("topk", {"sql": SQL, "k": 2})
            # Requests 2 and 4 each wrote one before they returned.
            assert service.stats()["snapshot"]["written"] == 2
        # close() writes the final snapshot on top.
        state = read_snapshot(str(tmp_path / "service.snap"))
        assert state["version"] == 1
        assert state["engine_cache"] is not None

    def test_every_response_follows_its_snapshot(self, tmp_path):
        """With ``snapshot_every=1`` the checkpoint is written before the
        response: whatever a client has been answered is already on disk."""
        path = str(tmp_path / "service.snap")
        config = ServiceConfig(snapshot_path=path, snapshot_every=1)
        with ServiceServer(shared_service(config)) as server:
            client = ServiceClient(server.host, server.port)
            created = client.subscribe(SQL, k=2)
            on_disk = read_snapshot(path)
            assert [sid for sid, _ in on_disk["subscriptions"]] == ["sub-0"]
            assert on_disk["subscription_seq"] == 1
            for variable, probability in zip(created["variables"], (0.01, 0.9, 0.3)):
                answer = client.update("sub-0", variable, probability)
                (_, watch), = read_snapshot(path)["subscriptions"]
                assert watch["probabilities"][variable] == probability
                assert [list(data) for data in watch["selected"]] == answer["selected"]
                assert watch["total_steps"] == answer["total_steps"]
            assert client.topk(SQL, k=2)["refine_steps"] > 0
            hits, misses, _ = read_snapshot(path)["engine_cache"]["counters"]
            stats = client.stats()
            assert misses > 0
            assert (hits, misses) == (stats["cache"]["hits"], stats["cache"]["misses"])
            assert stats["snapshot"]["written"] == 5

    def test_snapshot_config_validation(self, tmp_path):
        from repro.errors import PlanningError

        with pytest.raises(PlanningError):
            ServiceConfig(snapshot_every=0, snapshot_path="x")
        with pytest.raises(PlanningError):
            ServiceConfig(snapshot_every=3)  # no path to write to
        with pytest.raises(PlanningError):
            ServiceConfig(default_timeout_ms=-1)


class TestKillNineAroundTheFirstDelta:
    """A subscription's store is snapshotted without its variable→rows index
    (every store replays its own, and none is ever shipped): a server killed
    with SIGKILL before, and again after, the store's first delta must come
    back processing deltas exactly as an uninterrupted service does."""

    SRC = str(Path(__file__).resolve().parents[1] / "src")

    def launch(self, snapshot):
        command = [sys.executable, "-m", "repro.service", "--snapshot", snapshot]
        process = subprocess.Popen(
            command + ["--snapshot-every", "1"],
            env={"PYTHONPATH": self.SRC, "PATH": os.environ.get("PATH", "/usr/bin:/bin")},
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        ready = process.stdout.readline().split()
        if ready[:2] != ["SERVICE", "READY"]:
            process.kill()
            process.wait(timeout=30)
            process.stdout.close()
            pytest.fail(f"server did not come up; first line: {ready}")
        return process, ServiceClient(ready[2], int(ready[3]))

    @staticmethod
    def kill(process):
        process.kill()  # SIGKILL: no close(), no final snapshot
        process.wait(timeout=30)
        process.stdout.close()

    @staticmethod
    def delta(payload):
        """What a delta did, as it reads after the JSON round trip."""
        payload = json.loads(json.dumps(payload))
        return [
            payload["report"],
            payload["selected"],
            payload["decided"],
            payload["result"]["rows"],
            payload["result"]["bounds"],
        ]

    def test_deltas_survive_two_kills(self, tmp_path):
        snapshot = str(tmp_path / "service.snap")
        with shared_service(ServiceConfig()) as control:
            created = control.execute("subscribe", {"sql": SQL, "k": 2})
            first, second = created["variables"][0], created["variables"][-1]
            expected = [
                self.delta(
                    control.execute(
                        "subscription_update",
                        {"subscription": "sub-0", "variable": variable, "probability": p},
                    )
                )
                for variable, p in ((first, 0.03), (second, 0.97))
            ]

        process, client = self.launch(snapshot)
        try:
            assert client.subscribe(SQL, k=2)["subscription"] == "sub-0"
            # The lane is serial: once this returns, the subscribe's
            # checkpoint — a store that never saw a delta — is on disk.
            client.subscription("sub-0")
        finally:
            self.kill(process)
        state = read_snapshot(snapshot)
        ((_, watch_state),) = state["subscriptions"]
        assert "var_index" not in watch_state["cache"]["segment"]

        process, client = self.launch(snapshot)
        try:
            assert client.stats()["snapshot"]["restored"]
            updated = client.update("sub-0", variable=first, probability=0.03)
            client.subscription("sub-0")  # the update's checkpoint is durable
        finally:
            self.kill(process)
        assert self.delta(updated) == expected[0]

        process, client = self.launch(snapshot)
        try:
            assert client.stats()["snapshot"]["restored"]
            updated = client.update("sub-0", variable=second, probability=0.97)
        finally:
            self.kill(process)
        assert self.delta(updated) == expected[1]

    def test_a_snapshot_that_carries_an_index_still_restores(self, tmp_path):
        """Snapshots written before the index became lazy hold one; it is
        accepted and ignored."""
        config = ServiceConfig(snapshot_path=str(tmp_path / "service.snap"))
        with shared_service(config) as service:
            created = service.execute("subscribe", {"sql": SQL, "k": 2})
            service.execute("topk", {"sql": SQL, "k": 2})
        state = read_snapshot(config.snapshot_path)
        segments = [state["engine_cache"]["segment"]]
        segments += [watch["cache"]["segment"] for _, watch in state["subscriptions"]]
        for segment in segments:
            segment["var_index"] = [(0, [0])]  # not even a plausible one
        write_snapshot(config.snapshot_path, state)
        variable = created["variables"][0]
        params = {"subscription": "sub-0", "variable": variable, "probability": 0.03}
        with shared_service(ServiceConfig()) as control:
            control.execute("subscribe", {"sql": SQL, "k": 2})
            expected = control.execute("subscription_update", params)
        with shared_service(config) as reborn:
            assert reborn.snapshot_restored is True
            assert reborn.execute("topk", {"sql": SQL, "k": 2})["refine_steps"] <= 1
            found = reborn.execute("subscription_update", params)
        assert found["report"] == expected["report"]
        assert found["selected"] == expected["selected"]
        assert found["result"]["rows"] == expected["result"]["rows"]



class _TableWithBackendFlag:
    """Pickles as the node table did while it carried a numeric-backend slot."""

    def __init__(self, table):
        self.state = dict(table.__getstate__(), vectorize=True)

    def __reduce__(self):
        return (object.__new__, (NodeTable,), self.state)


def test_a_snapshot_that_carries_the_backend_flag_still_restores(tmp_path):
    """Snapshots written while propagation had a second (vectorized) path
    carry a ``vectorize`` key in every cache state and a ``vectorize`` slot
    in every node table; both are ignored and the restore stays warm."""
    config = ServiceConfig(snapshot_path=str(tmp_path / "service.snap"))
    with shared_service(config) as service:
        created = service.execute("subscribe", {"sql": SQL, "k": 2})
        cold = service.execute("topk", {"sql": SQL, "k": 2})
    state = read_snapshot(config.snapshot_path)
    caches = [state["engine_cache"]] + [watch["cache"] for _, watch in state["subscriptions"]]
    for cache in caches:
        cache["vectorize"] = True
        cache["segment"]["table"] = _TableWithBackendFlag(cache["segment"]["table"])
    write_snapshot(config.snapshot_path, state)
    variable = created["variables"][0]
    params = {"subscription": "sub-0", "variable": variable, "probability": 0.03}
    with shared_service(ServiceConfig()) as control:
        control.execute("subscribe", {"sql": SQL, "k": 2})
        expected = control.execute("subscription_update", params)
    with shared_service(config) as reborn:
        assert reborn.snapshot_restored is True
        warm = reborn.execute("topk", {"sql": SQL, "k": 2})
        found = reborn.execute("subscription_update", params)
    assert warm["refine_steps"] <= 1
    assert warm["rows"] == cold["rows"]
    assert found["report"] == expected["report"]
    assert found["selected"] == expected["selected"]
    assert found["result"]["rows"] == expected["result"]["rows"]


@pytest.mark.parametrize(
    "kind, goal", (("topk", {"k": 2}), ("threshold", {"tau": 0.3})), ids=("topk", "threshold")
)
def test_a_snapshot_without_an_engine_cache_restores_its_subscriptions(tmp_path, kind, goal):
    """Builds that could compile lineage per tuple wrote ``engine_cache:
    None`` and standing-query states without a store.  Such a snapshot
    restores: each subscription is compiled cold from its lineage and
    marginals, the engine cache boots cold, and both answer exactly as a
    service that never restarted."""
    config = ServiceConfig(snapshot_path=str(tmp_path / "service.snap"))
    with shared_service(config) as service:
        created = service.execute("subscribe", {"sql": SQL, **goal})
        service.execute(kind, {"sql": SQL, **goal})
    state = read_snapshot(config.snapshot_path)
    state["engine_cache"] = None
    for _, watch in state["subscriptions"]:
        del watch["cache"]
        watch["shared_lineage"] = False
    write_snapshot(config.snapshot_path, state)
    variable = created["variables"][0]
    params = {"subscription": "sub-0", "variable": variable, "probability": 0.03}
    with shared_service(ServiceConfig()) as control:
        live = control.execute("subscribe", {"sql": SQL, **goal})
        cold = control.execute(kind, {"sql": SQL, **goal})
        expected = control.execute("subscription_update", params)
    with shared_service(config) as reborn:
        assert reborn.snapshot_restored is True
        assert reborn.subscriptions() == ["sub-0"]
        assert reborn.engine.dtree_cache.store.steps == 0
        restored = reborn.execute("subscription_get", {"subscription": "sub-0"})
        answer = reborn.execute(kind, {"sql": SQL, **goal})
        found = reborn.execute("subscription_update", params)
    assert live["selected"], "the check needs a non-empty decided set"
    assert restored["selected"] == live["selected"]
    assert restored["result"]["rows"] == live["result"]["rows"]
    assert (answer["rows"], answer["refine_steps"]) == (cold["rows"], cold["refine_steps"])
    assert found["report"] == expected["report"]
    assert found["selected"] == expected["selected"]
    assert found["result"]["rows"] == expected["result"]["rows"]
