"""Deadlines (anytime degradation), client retries, and shutdown ordering.

Deadline semantics under test: the wall-clock budget is checked only
*between* refinement rounds, so an expired request returns ``decided:
false`` with the current — sound, monotonically shrunk — bounds and
``degraded: "deadline"``; it never aborts mid-round, never returns a wrong
bound, and a request that never hits its deadline is bit-identical to one
that had none.  The client side proves the retry satellite: transport
failures surface as structured :class:`ServiceConnectionError` and retry
under jittered exponential backoff, honouring ``Retry-After``.
"""

import socket
import threading
import time

import pytest

from repro.deadline import Deadline
from repro.errors import ServiceConnectionError, ServiceError
from repro.query.parser import parse_query
from repro.service import (
    QueryService,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    result_payload,
)
from repro.service.__main__ import demo_database
from repro.sprout.engine import SproutEngine

SQL = "SELECT room, conf() FROM alarm, uplink, zone_ok"


def unsafe_query():
    db = demo_database()
    return db, parse_query(SQL, db.catalog).query


class TestDeadline:
    def test_clock_basics(self):
        assert Deadline.after_ms(0).expired() is True
        generous = Deadline.after_ms(60_000)
        assert generous.expired() is False
        assert 0 < generous.remaining() <= 60.0

    def test_expired_deadline_degrades_with_sound_bounds(self):
        db, query = unsafe_query()
        # The oracle is a second engine: an exact evaluate on the same one
        # would leave the store closed, and the top-k nothing to degrade.
        with SproutEngine(demo_database()) as oracle:
            exact = oracle.evaluate(query).confidences()
        with SproutEngine(db) as engine:
            degraded = engine.evaluate_topk(
                query, k=2, deadline=Deadline.after_ms(0)
            )
        assert degraded.decided is False
        assert degraded.degraded == "deadline"
        assert degraded.refine_steps == 0  # expired before the first round
        # Anytime soundness: every reported bracket contains the true
        # marginal the refinement would have converged to.
        assert degraded.bounds
        for data, (lower, upper) in degraded.bounds.items():
            assert lower <= exact[data] <= upper

    def test_generous_deadline_is_bit_identical_to_none(self):
        db, query = unsafe_query()
        with SproutEngine(db) as engine:
            without = result_payload(engine.evaluate_topk(query, k=2))
        with SproutEngine(demo_database()) as engine:
            with_deadline = result_payload(
                engine.evaluate_topk(query, k=2, deadline=Deadline.after_ms(60_000))
            )
        assert with_deadline == without
        assert with_deadline["degraded"] is None

    def test_threshold_and_exact_mode_degrade_too(self):
        db, query = unsafe_query()
        with SproutEngine(db) as engine:
            # tau=0.5 partitions this workload from the *initial* bounds, so
            # the decision itself lands in 0 steps — but exact-mode finishing
            # is deadline-cut, and the payload says so.
            threshold = engine.evaluate_threshold(
                query, tau=0.5, deadline=Deadline.after_ms(0)
            )
            assert threshold.degraded == "deadline"
            assert threshold.refine_steps == 0
            exact = engine.evaluate_topk(
                query, k=2, confidence="exact", deadline=Deadline.after_ms(0)
            )
            assert exact.degraded == "deadline"
            assert exact.decided is False

    def test_degraded_bounds_are_within_the_monotone_envelope(self):
        # A later deadline can only shrink brackets: width(t=0) >= width(t=inf),
        # bracket(t=0) contains bracket(t=inf) per tuple.
        db, query = unsafe_query()
        with SproutEngine(db) as engine:
            wide = engine.evaluate_topk(query, k=2, deadline=Deadline.after_ms(0))
        with SproutEngine(demo_database()) as engine:
            done = engine.evaluate_topk(query, k=2)
        for data, (lower, upper) in done.bounds.items():
            wide_lower, wide_upper = wide.bounds[data]
            assert wide_lower <= lower + 1e-12
            assert upper <= wide_upper + 1e-12


class TestServiceDeadlines:
    def test_timeout_returns_degraded_200_payload(self):
        with QueryService(demo_database()) as service:
            degraded = service.execute("topk", {"sql": SQL, "k": 2, "timeout_ms": 0})
            assert degraded["decided"] is False
            assert degraded["degraded"] == "deadline"
            assert degraded["bounds"]
            finished = service.execute("topk", {"sql": SQL, "k": 2})
            assert finished["decided"] is True
            assert finished["degraded"] is None
            # Envelope: the degraded brackets contain the finished ones.
            wide = {tuple(d): (lo, hi) for d, lo, hi in degraded["bounds"]}
            for data, lower, upper in finished.get("bounds", []):
                assert wide[tuple(data)][0] <= lower + 1e-12
                assert upper <= wide[tuple(data)][1] + 1e-12

    def test_default_timeout_from_config(self):
        config = ServiceConfig(default_timeout_ms=0)
        with QueryService(demo_database(), config=config) as service:
            degraded = service.execute("topk", {"sql": SQL, "k": 2})
            assert degraded["degraded"] == "deadline"
            # A per-request budget overrides the default.
            finished = service.execute(
                "topk", {"sql": SQL, "k": 2, "timeout_ms": 60_000}
            )
            assert finished["decided"] is True

    def test_timeout_rejected_on_evaluate(self):
        with QueryService(demo_database()) as service:
            with pytest.raises(ServiceError, match="timeout_ms"):
                service.execute("evaluate", {"sql": SQL, "timeout_ms": 5})

    def test_timeout_validation(self):
        with QueryService(demo_database()) as service:
            for bad in (-1, "fast", True):
                with pytest.raises(ServiceError):
                    service.execute("topk", {"sql": SQL, "k": 2, "timeout_ms": bad})

    def test_degraded_subscription_finishes_on_a_later_refresh(self):
        with QueryService(demo_database()) as service:
            created = service.execute(
                "subscribe", {"sql": SQL, "k": 2, "timeout_ms": 0}
            )
            assert created["decided"] is False
            variables = created["variables"]
            updated = service.execute(
                "subscription_update",
                {
                    "subscription": created["subscription"],
                    "variable": variables[0],
                    "probability": 0.5,
                },
            )
            assert updated["decided"] is True  # un-budgeted refresh finishes


class _ScriptedServer:
    """A raw TCP server that plays one scripted handler per connection."""

    def __init__(self, script):
        self.script = list(script)
        self.connections = 0
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.host, self.port = self._sock.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        for handler in self.script:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            with conn:
                try:
                    handler(conn)
                except OSError:  # pragma: no cover - client already gone
                    pass

    def close(self):
        self._sock.close()
        self._thread.join(timeout=10)


def _drop_mid_response(conn):
    conn.recv(65536)
    # Half a status line, then a hard close: the classic mid-response reset.
    conn.sendall(b"HTTP/1.1 200 O")


def _truncated_body(conn):
    conn.recv(65536)
    body = b'{"ok": tru'  # shorter than Content-Length promises
    conn.sendall(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: 12\r\nConnection: close\r\n\r\n" + body
    )


def _ok(conn):
    conn.recv(65536)
    body = b'{"ok": true}'
    conn.sendall(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n".encode()
        + b"Connection: close\r\n\r\n"
        + body
    )


def _overloaded(conn):
    conn.recv(65536)
    body = b'{"error": "busy"}'
    conn.sendall(
        b"HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n".encode()
        + b"Retry-After: 2\r\nConnection: close\r\n\r\n"
        + body
    )


class TestClientRetries:
    """The retry satellite, proven against a scripted flaky server."""

    def test_mid_response_drop_is_retried_through(self):
        server = _ScriptedServer([_drop_mid_response, _ok])
        try:
            client = ServiceClient(
                server.host,
                server.port,
                retry=RetryPolicy(retries=2, backoff=0.001, seed=0),
            )
            assert client.must("GET", "/healthz") == {"ok": True}
            assert server.connections == 2
        finally:
            server.close()

    def test_truncated_body_is_a_structured_error_and_retried(self):
        server = _ScriptedServer([_truncated_body, _ok])
        try:
            client = ServiceClient(
                server.host,
                server.port,
                retry=RetryPolicy(retries=2, backoff=0.001, seed=0),
            )
            assert client.must("GET", "/healthz") == {"ok": True}
        finally:
            server.close()

    def test_exhausted_budget_surfaces_the_structured_error(self):
        server = _ScriptedServer([_drop_mid_response] * 3)
        try:
            client = ServiceClient(
                server.host,
                server.port,
                retry=RetryPolicy(retries=2, backoff=0.001, seed=0),
            )
            with pytest.raises(ServiceConnectionError):
                client.must("GET", "/healthz")
            assert server.connections == 3  # 1 try + 2 retries, then give up
        finally:
            server.close()

    def test_connection_refused_is_structured_not_raw(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        client = ServiceClient("127.0.0.1", free_port, retry=RetryPolicy(retries=0))
        with pytest.raises(ServiceConnectionError) as caught:
            client.healthz()
        assert isinstance(caught.value.cause, OSError)

    def test_retry_after_raises_the_backoff_floor(self):
        sleeps = []
        server = _ScriptedServer([_overloaded, _ok])
        try:
            client = ServiceClient(
                server.host,
                server.port,
                retry=RetryPolicy(retries=1, backoff=0.001, seed=0),
                sleep=sleeps.append,
            )
            assert client.must("GET", "/healthz") == {"ok": True}
            assert len(sleeps) == 1
            assert sleeps[0] >= 2.0  # the server's Retry-After: 2 is honoured
        finally:
            server.close()

    def test_retry_budget_zero_fails_fast_on_429(self):
        from repro.errors import ServiceOverloadedError

        sleeps = []
        server = _ScriptedServer([_overloaded])
        try:
            client = ServiceClient(
                server.host,
                server.port,
                retry=RetryPolicy(retries=0),
                sleep=sleeps.append,
            )
            with pytest.raises(ServiceOverloadedError):
                client.must("GET", "/healthz")
            assert sleeps == []
        finally:
            server.close()

    def test_backoff_grows_exponentially_with_bounded_jitter(self):
        policy = RetryPolicy(retries=5, backoff=0.1, max_backoff=1.0, jitter=0.25, seed=7)
        delays = [policy.delay(attempt) for attempt in range(5)]
        for attempt, delay in enumerate(delays):
            base = min(0.1 * (2 ** attempt), 1.0)
            assert base <= delay <= base * 1.25


class TestShutdownOrdering:
    """Shutdown: no hangs, and the executing request is never cut off."""

    def test_close_waits_for_the_executing_request(self):
        service = QueryService(demo_database())
        entered, release = threading.Event(), threading.Event()
        run_topk = service._do_topk

        def held_topk(params):
            entered.set()
            release.wait(timeout=30)
            return run_topk(params)

        service._do_topk = held_topk
        answers = []
        caller = threading.Thread(
            target=lambda: answers.append(service.execute("topk", {"sql": SQL, "k": 2}))
        )
        caller.start()
        assert entered.wait(timeout=30)
        closer = threading.Thread(target=service.close)
        closer.start()
        closer.join(timeout=0.2)
        assert closer.is_alive()  # close() waits for the executing request
        release.set()
        began = time.monotonic()
        closer.join(timeout=30)
        caller.join(timeout=30)
        assert not closer.is_alive() and time.monotonic() - began < 30
        assert answers[0]["decided"] is True and answers[0]["seq"] == 0
        assert service.completed == 1
        with pytest.raises(ServiceError, match="closed"):
            service.execute("topk", {"sql": SQL, "k": 2})
        assert service.rejected == 1
