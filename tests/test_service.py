"""The concurrent query service: unit, HTTP transport, and determinism tests.

The load-bearing test is the concurrency stress
(:class:`TestDeterminismStress`): N asyncio clients fire interleaved
top-k/threshold/evaluate/subscribe/update requests at one live server, then
the *same* requests are replayed one at a time, in admission order, against
a fresh server over the same database — and every response payload must be
bit-identical (decided sets, confidences, bounds, step counts, sequence
numbers, subscription ids).  That is the service's determinism contract:
concurrency changes when a request runs, never what it computes.
"""

import asyncio
import threading

import pytest

from repro.errors import PlanningError, ServiceError
from repro.service import (
    QueryService,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    arequest,
)
from repro.service.__main__ import demo_database
from repro.sprout import SproutEngine

from test_differential_matrix import BACKENDS

SQL = "SELECT room, conf() FROM alarm, uplink, zone_ok"


def shared_store_service(make_engine=SproutEngine):
    """The default service over the demo database (or the service over the
    row oracle's engine, ``make_engine=RowEngine``)."""
    database = demo_database()
    return QueryService(database, engine=make_engine(database))


@pytest.fixture
def service():
    with shared_store_service() as svc:
        yield svc


@pytest.fixture
def server():
    with ServiceServer(shared_store_service()) as srv:
        yield srv


class TestServiceCore:
    def test_topk_round_trip_and_warm_reuse(self, service):
        cold = service.execute("topk", {"sql": SQL, "k": 2})
        assert cold["kind"] == "topk"
        assert cold["decided"] is True
        assert cold["seq"] == 0
        assert len(cold["rows"]) == 2
        assert cold["refine_steps"] > 0
        warm = service.execute("topk", {"sql": SQL, "k": 2})
        # The shared store is warm: the repeat costs zero logical steps.
        assert warm["refine_steps"] == 0
        assert warm["seq"] == 1
        assert warm["rows"] == cold["rows"]

    def test_matches_the_engine_directly(self, service):
        from repro.query.parser import parse_query
        from repro.sprout.engine import SproutEngine

        served = service.execute("evaluate", {"sql": SQL})
        db = demo_database()
        direct = SproutEngine(db).evaluate(parse_query(SQL, db.catalog).query)
        assert {
            tuple(row[:-1]): row[-1] for row in served["rows"]
        } == direct.confidences()

    def test_no_wall_clock_fields_in_payloads(self, service):
        payload = service.execute("threshold", {"sql": SQL, "tau": 0.5})
        assert not any("seconds" in key for key in payload)

    def test_unknown_kind_rejected(self, service):
        with pytest.raises(ServiceError):
            service.execute("explode", {})

    def test_request_validation(self, service):
        for kind, params in [
            ("evaluate", {}),  # no sql
            ("evaluate", {"sql": SQL, "epsilon": -0.5}),
            ("topk", {"sql": SQL}),  # no k
            ("topk", {"sql": SQL, "k": 0}),
            ("topk", {"sql": SQL, "k": True}),
            ("topk", {"sql": SQL, "k": 2, "max_steps": -1}),
            ("threshold", {"sql": SQL, "tau": 1.5}),
            ("subscribe", {"sql": SQL}),  # neither k nor tau
            ("subscribe", {"sql": SQL, "k": 1, "tau": 0.5}),  # both
            ("subscription_get", {"subscription": "sub-999"}),
        ]:
            with pytest.raises(ServiceError):
                service.execute(kind, params)

    @pytest.mark.parametrize("epsilon", ("NaN", "Infinity", "-Infinity"))
    def test_non_finite_epsilon_is_rejected(self, service, epsilon):
        params = {"sql": SQL, "confidence": "approx", "epsilon": float(epsilon)}
        with pytest.raises(ServiceError, match="finite"):
            service.execute("evaluate", params)
        assert service.stats()["store"]["steps"] == 0  # nothing was refined

    def test_bad_sql_raises_a_query_error(self, service):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            service.execute("evaluate", {"sql": "DROP TABLE alarm"})

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize(
        "condition", ["room < 5", "room >= 2.5", "sensor < 'x'", "sensor > '3'"]
    )
    def test_unorderable_literal_is_a_query_error(self, backend, condition):
        # Without the check the comparison raised a bare TypeError (HTTP 500).
        from repro.errors import QueryError

        sql = f"SELECT room, conf() FROM alarm WHERE {condition}"
        with shared_store_service(BACKENDS[backend]) as service:
            with pytest.raises(QueryError, match="cannot order"):
                service.execute("evaluate", {"sql": sql})

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_mismatched_equality_and_mixed_numbers_stay_legal(self, backend):
        def rooms(service, condition):
            sql = f"SELECT room, conf() FROM alarm WHERE {condition}"
            payload = service.execute("evaluate", {"sql": sql})
            return sorted(row[0] for row in payload["rows"])

        with shared_store_service(BACKENDS[backend]) as service:
            assert rooms(service, "room = 5") == []
            assert rooms(service, "sensor = 'x'") == []
            assert len(rooms(service, "room != 5")) == 5
            assert rooms(service, "sensor < 1.5") == ["kitchen", "lobby"]

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_undeclared_numbers_still_order(self, backend):
        # `Schema.of("name", "age")` declares both columns `str`; the stored
        # ints decide, so `age > 25` answers and `age < 'x'` is refused.
        from repro import ProbabilisticDatabase
        from repro.errors import QueryError
        from repro.storage.relation import Relation
        from repro.storage.schema import Schema

        database = ProbabilisticDatabase("people")
        people = Relation("people", Schema.of("name", "age"), [("ann", 30), ("bob", 20)])
        database.add_table(people, probabilities=[0.5, 0.5])
        with QueryService(database, engine=BACKENDS[backend](database)) as svc:
            payload = svc.execute(
                "evaluate", {"sql": "SELECT name, conf() FROM people WHERE age > 25"}
            )
            assert [row[0] for row in payload["rows"]] == ["ann"]
            with pytest.raises(QueryError, match="cannot order"):
                svc.execute(
                    "evaluate", {"sql": "SELECT name, conf() FROM people WHERE age < 'x'"}
                )

    def test_max_steps_ceiling(self):
        config = ServiceConfig(max_steps_ceiling=10)
        with QueryService(demo_database(), config=config) as svc:
            ok = svc.execute("topk", {"sql": SQL, "k": 1, "max_steps": 10})
            assert ok["kind"] == "topk"
            with pytest.raises(ServiceError):
                svc.execute("topk", {"sql": SQL, "k": 1, "max_steps": 11})

    def test_concurrent_callers_get_consecutive_seqs_and_serial_payloads(self):
        """Two threads call ``execute`` at once: each request runs whole, the
        ``seq``s are consecutive, and a serial replay in ``seq`` order on a
        fresh service reproduces every payload."""
        requests = [
            [("topk", {"sql": SQL, "k": 2}), ("threshold", {"sql": SQL, "tau": 0.4}),
             ("subscribe", {"sql": SQL, "k": 1}), ("topk", {"sql": SQL, "k": 3})],
            [("evaluate", {"sql": SQL, "confidence": "approx", "epsilon": 0.05}),
             ("subscribe", {"sql": SQL, "tau": 0.5}), ("threshold", {"sql": SQL, "tau": 0.6}),
             ("topk", {"sql": SQL, "k": 1})],
        ]
        records = []
        barrier = threading.Barrier(len(requests))

        def caller(mine):
            barrier.wait()
            for kind, params in mine:
                records.append((kind, params, svc.execute(kind, params)))

        with shared_store_service() as svc:
            threads = [threading.Thread(target=caller, args=(mine,)) for mine in requests]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stats = svc.stats()
        assert sorted(payload["seq"] for _, _, payload in records) == list(range(8))
        assert (stats["admitted"], stats["completed"], stats["rejected"]) == (8, 8, 0)
        with shared_store_service() as replay:
            for kind, params, payload in sorted(records, key=lambda r: r[2]["seq"]):
                assert replay.execute(kind, params) == payload

    def test_closed_service_rejects_submissions(self):
        svc = QueryService(demo_database())
        svc.start()
        svc.close()
        with pytest.raises(ServiceError, match="closed"):
            svc.execute("evaluate", {"sql": SQL})
        assert svc.rejected == 1
        svc.close()  # idempotent

    def test_subscription_lifecycle(self, service):
        sub = service.execute("subscribe", {"sql": SQL, "tau": 0.5})
        assert sub["subscription"] == "sub-0"
        assert sub["decided"] is True
        assert sub["variables"]
        selected = sub["selected"]

        got = service.execute("subscription_get", {"subscription": "sub-0"})
        assert got["selected"] == selected

        # Kill the most confident room's first alarm event: the decided set
        # shrinks, and the delta is reported along with the new answer.
        variable = sub["variables"][0]
        moved = service.execute(
            "subscription_update",
            {"subscription": "sub-0", "variable": variable, "probability": 0.01},
        )
        assert moved["report"]["noop"] is False
        assert moved["selected"] != selected or moved["left"] == []

        gone = service.execute("subscription_delete", {"subscription": "sub-0"})
        assert gone["kind"] == "unsubscribe"
        with pytest.raises(ServiceError):
            service.execute("subscription_get", {"subscription": "sub-0"})

    def test_an_update_of_an_unknown_variable_changes_nothing(self, service):
        sub = service.execute("subscribe", {"sql": SQL, "tau": 0.5})
        before = service.execute("subscription_get", {"subscription": "sub-0"})
        store = service._subscriptions["sub-0"]._store
        recorded, version = dict(store.probabilities), store.space_version
        unknown = max(sub["variables"]) + 1
        for offset in range(50):
            update = service.execute(
                "subscription_update",
                {"subscription": "sub-0", "variable": unknown + offset, "probability": 0.5},
            )
            assert update["report"] == {"reseeded": 0, "touched": 0, "noop": True}
            assert update["selected"] == sub["selected"]
        after = service.execute("subscription_get", {"subscription": "sub-0"})
        assert after["variables"] == before["variables"] == sub["variables"]
        assert store.probabilities == recorded
        assert store.space_version == version

    def test_stats_surface(self, service):
        service.execute("topk", {"sql": SQL, "k": 1})
        stats = service.stats()
        assert stats["admitted"] == 1
        assert stats["completed"] == 1
        assert stats["failed"] == 0
        assert stats["cache"]["closed"] is False
        assert stats["store"]["steps"] > 0
        assert stats["store"]["mutations"] > 0
        assert stats["store"]["reset_epoch"] == 0

    def test_stats_report_what_the_answer_memo_served(self):
        """N repeats of one SQL text answer it once; the view cache's own
        counters advance exactly as they do with the memo emptied each time."""
        repeats = 5
        with shared_store_service() as memo, shared_store_service() as control:
            for _ in range(repeats):
                control.engine._answer_memo.clear()
                served = memo.execute("topk", {"sql": SQL, "k": 2})
                expected = control.execute("topk", {"sql": SQL, "k": 2})
                assert served == expected  # nothing about the memo is in a payload
                cache, plain = memo.stats()["cache"], control.stats()["cache"]
                for key in ("hits", "misses", "evictions", "entries"):
                    assert cache[key] == plain[key]
            assert cache["answer_misses"] == 1
            assert cache["answer_hits"] == repeats - 1
            assert cache["answer_entries"] == 1
            assert plain["answer_misses"] == repeats
        # The closed-engine snapshot keeps the counters.
        assert memo.stats()["cache"]["answer_misses"] == 1
        assert memo.stats()["cache"]["closed"] is True

    def test_config_validation(self):
        with pytest.raises(PlanningError):
            ServiceConfig(max_steps_ceiling=-1)


class TestServiceHTTP:
    def test_healthz_and_stats(self, server):
        client = ServiceClient(server.host, server.port)
        assert client.healthz() == {"ok": True}
        stats = client.stats()
        # Neither route is a service request: nothing was executed.
        assert (stats["admitted"], stats["completed"], stats["rejected"]) == (0, 0, 0)
        assert "max_pending" not in stats and "in_flight" not in stats

    def test_query_routes(self, server):
        client = ServiceClient(server.host, server.port)
        topk = client.topk(SQL, k=2)
        assert len(topk["rows"]) == 2 and topk["decided"]
        threshold = client.threshold(SQL, tau=0.5)
        assert all(row[-1] >= 0.5 for row in threshold["rows"])
        evaluated = client.evaluate(SQL)
        assert len(evaluated["rows"]) == 5  # every room, with its confidence

    def test_subscription_routes(self, server):
        client = ServiceClient(server.host, server.port)
        sub = client.subscribe(SQL, tau=0.5)
        sid = sub["subscription"]
        assert client.subscription(sid)["selected"] == sub["selected"]
        assert sid in client.must("GET", "/subscriptions")["subscriptions"]
        update = client.update(sid, variable=sub["variables"][0], probability=0.02)
        assert update["report"]["noop"] is False
        client.unsubscribe(sid)
        status, _ = client.request("GET", f"/subscriptions/{sid}")
        assert status == 400

    def test_warm_approximate_evaluate_costs_no_steps(self, server):
        """N approximate repeats: answered once, refined once, looked up N times."""
        client = ServiceClient(server.host, server.port)
        repeats = 4
        first = client.evaluate(SQL, confidence="approx", epsilon=0.01)
        assert first["refine_steps"] > 0
        hits = client.stats()["cache"]["hits"]
        for _ in range(repeats - 1):
            repeat = client.evaluate(SQL, confidence="approx", epsilon=0.01)
            assert repeat["refine_steps"] == repeat["delta_steps"] == 0
            assert (repeat["rows"], repeat["bounds"]) == (first["rows"], first["bounds"])
            cache = client.stats()["cache"]
            assert cache["hits"] == hits + len(first["rows"])  # one per tuple view
            hits = cache["hits"]
        assert (cache["answer_misses"], cache["answer_hits"]) == (1, repeats - 1)
        assert cache["misses"] == len(first["rows"])
        # The decision that follows starts from what the evaluates refined.
        assert client.stats()["store"]["steps"] == first["refine_steps"]

    @pytest.mark.parametrize("epsilon", ("NaN", "Infinity", "-Infinity"))
    def test_non_finite_epsilon_is_a_400(self, server, epsilon):
        client = ServiceClient(server.host, server.port)
        body = {"sql": SQL, "confidence": "approx", "epsilon": float(epsilon)}
        status, payload = client.request("POST", "/evaluate", body)
        assert status == 400 and "finite" in payload["error"]

    def test_stats_count_the_analysis_memo(self, server):
        client = ServiceClient(server.host, server.port)
        for _ in range(3):
            client.topk(SQL, k=2)  # exact mode asks is_tractable every time
        cache = client.stats()["cache"]
        assert (cache["analysis_misses"], cache["analysis_hits"]) == (1, 2)

    def test_a_lineage_plan_is_a_400_that_touches_no_state(self, server):
        """Exact lineage counting is a test oracle, not a plan: it had no step
        cap and no deadline, so a ``"plan": "lineage"`` body held the one
        serving thread for minutes at SF 0.01.  It is refused up front, with
        the engine's cache, answer memo and store as they were."""
        client = ServiceClient(server.host, server.port)
        client.topk(SQL, k=2)  # a warm store, so "untouched" means something
        before = client.stats()
        status, payload = client.request("POST", "/evaluate", {"sql": SQL, "plan": "lineage"})
        assert status == 400
        assert payload["type"] == "PlanningError" and "lineage" in payload["error"]
        assert "rows" not in payload
        after = client.stats()
        assert (after["cache"], after["store"]) == (before["cache"], before["store"])
        assert (after["completed"], after["failed"]) == (before["completed"], before["failed"] + 1)

    @pytest.mark.parametrize("kind", ["evaluate", "topk", "threshold", "subscribe"])
    def test_a_row_execution_is_a_400_that_touches_no_state(self, server, kind):
        """The engine runs one backend: a body naming ``"execution": "row"``
        is refused up front with the cache, store and subscriptions as they
        were; ``"batch"``, ``null`` or no field at all keep working."""
        client = ServiceClient(server.host, server.port)
        client.topk(SQL, k=2)  # a warm store, so "untouched" means something
        goal = {"evaluate": {}, "topk": {"k": 1}, "threshold": {"tau": 0.4}, "subscribe": {"k": 1}}
        body = dict(goal[kind], sql=SQL)
        before = client.stats()
        status, payload = client.request("POST", f"/{kind}", dict(body, execution="row"))
        assert status == 400
        assert payload["type"] == "PlanningError" and "'row'" in payload["error"]
        assert "rows" not in payload and "subscription" not in payload
        after = client.stats()
        assert (after["cache"], after["store"]) == (before["cache"], before["store"])
        assert after["subscriptions"] == before["subscriptions"]
        assert (after["completed"], after["failed"]) == (before["completed"], before["failed"] + 1)
        answers = [
            client.request("POST", f"/{kind}", dict(body, **extra))
            for extra in ({"execution": "batch"}, {"execution": None}, {})
        ]
        assert [status for status, _ in answers] == [200, 200, 200]
        if kind != "subscribe":
            assert len({repr(answer["rows"]) for _, answer in answers}) == 1
            assert all("execution" not in answer for _, answer in answers)

    def test_http_error_mapping(self, server):
        client = ServiceClient(server.host, server.port)
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("GET", "/evaluate")[0] == 405
        status, payload = client.request("POST", "/evaluate", {"sql": "not sql"})
        assert status == 400 and "error" in payload
        status, payload = client.request("POST", "/topk", {"sql": SQL})
        assert status == 400  # missing k

    def test_a_storm_gets_only_200s(self, server):
        """Nothing queues inside the server, so however many requests arrive
        at once, every one is answered with a 200."""
        storm = 48

        async def fire():
            return await asyncio.gather(
                *(
                    arequest(
                        server.host, server.port, "POST", "/topk", {"sql": SQL, "k": i % 3 + 1}
                    )
                    for i in range(storm)
                )
            )

        answers = asyncio.run(fire())
        assert [status for status, _ in answers] == [200] * storm
        assert sorted(payload["seq"] for _, payload in answers) == list(range(storm))
        stats = ServiceClient(server.host, server.port).stats()
        assert (stats["admitted"], stats["completed"]) == (storm, storm)
        assert (stats["rejected"], stats["failed"]) == (0, 0)

    def test_malformed_http_gets_400(self, server):
        import socket

        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(b"BOGUS\r\n\r\n")
            response = sock.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]

    @pytest.mark.parametrize("declared", [b"abc", b"-5", b"+5", b"1e3", b"\xb2", b"9" * 5000])
    def test_bad_content_length_gets_400(self, server, declared):
        """A Content-Length that is not a plain byte count is the
        client's error: a structured 400 and a closed connection, never an
        unhandled exception in the connection callback."""
        import json
        import socket

        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /topk HTTP/1.1\r\nContent-Length: " + declared + b"\r\n\r\n{}"
            )
            response = b""
            while chunk := sock.recv(4096):  # the server closes after a 400
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]
        # The server is still serving.
        assert ServiceClient(server.host, server.port).healthz() == {"ok": True}


class TestDeterminismStress:
    """Interleaved execution must be bit-identical to serial replay."""

    CLIENTS = 5

    async def _client_script(self, host, port, index, records):
        """One client's conversation; every response is recorded verbatim."""

        async def call(method, path, body=None):
            status, payload = await arequest(host, port, method, path, body)
            assert status == 200, payload
            records.append((payload["seq"], method, path, body, payload))
            return payload

        sub = await call(
            "POST", "/subscribe", {"sql": SQL, "tau": 0.35 + 0.05 * index}
        )
        sid = sub["subscription"]
        await call("POST", "/topk", {"sql": SQL, "k": index % 4 + 1})
        variable = sub["variables"][index % len(sub["variables"])]
        await call(
            "POST",
            f"/subscriptions/{sid}/update",
            {"variable": variable, "probability": round(0.1 + 0.15 * index, 3)},
        )
        await call("POST", "/threshold", {"sql": SQL, "tau": 0.45})
        await call("GET", f"/subscriptions/{sid}")
        await call("POST", "/topk", {"sql": SQL, "k": 2})
        if index % 2:
            await call("DELETE", f"/subscriptions/{sid}")

    def test_interleaved_matches_serial_replay(self):
        records = []
        with ServiceServer(QueryService(demo_database())) as live:

            async def storm():
                await asyncio.gather(
                    *(
                        self._client_script(live.host, live.port, i, records)
                        for i in range(self.CLIENTS)
                    )
                )

            asyncio.run(storm())

        # Admission sequence numbers are dense and unique: the interleaved
        # run admitted every request exactly once, in one global order.
        sequences = sorted(record[0] for record in records)
        assert sequences == list(range(len(records)))

        # Serial replay: the same requests, one at a time, in admission
        # order, against a fresh service over the same database.
        replayed = {}
        with ServiceServer(QueryService(demo_database())) as replay:
            client = ServiceClient(replay.host, replay.port)
            for seq, method, path, body, _payload in sorted(records):
                replayed[seq] = client.must(method, path, body)

        # Bit-identical: confidences, bounds, decided sets, step counts,
        # subscription ids, and sequence numbers all round-trip exactly.
        concurrent = {seq: payload for seq, _m, _p, _b, payload in records}
        assert replayed == concurrent
