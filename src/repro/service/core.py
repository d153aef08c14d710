"""The query service core: one engine, one shared store, one refinement lane.

:class:`QueryService` multiplexes concurrent ``evaluate`` / ``topk`` /
``threshold`` requests and standing-query subscriptions over **one** shared
:class:`repro.sprout.engine.SproutEngine` — and therefore one
:class:`repro.prob.sharedag.ClauseInterner` and one
:class:`repro.prob.sharedag.SharedLineageStore`.  That sharing is the whole
point: PR 5/7 showed warm-store repeats deciding in 0–1 logical steps, and
the service is what makes the warm state reachable from many clients at once
instead of being locked inside a single-threaded library.

Concurrency model — **admission is concurrent, refinement is serial**:

* any number of transport threads/coroutines call :meth:`submit`
  concurrently; each successful submit assigns the request the next
  *admission sequence number* (``seq``) and enqueues it on a **bounded**
  FIFO queue (admission control: a full queue rejects the request with
  :class:`repro.errors.ServiceOverloadedError`, HTTP 429, instead of
  letting refinement work pile up without bound);
* one dedicated refinement lane (a worker thread) drains the queue in
  admission order and runs each request to completion against the shared
  engine.  The store's lock/epoch discipline
  (:meth:`repro.prob.sharedag.SharedLineageStore.pinned`) additionally
  keeps every mutation serialised and defers node-budget epoch resets to
  request boundaries.

This is what makes the **determinism contract** hold: the decided sets,
confidences, bounds, and step counts of an interleaved request sequence are
bit-identical to executing the same requests serially in admission order —
concurrency changes *when* a request runs, never what it computes.  (A
response's ``seq`` field is the replay order; ``tests/test_service.py``
proves the contract with N interleaved asyncio clients.)

Per-request budgets ride each request: ``epsilon`` for approximate
evaluation, ``max_steps`` for top-k/threshold/subscription refinement,
optionally clamped by the server-wide
:attr:`ServiceConfig.max_steps_ceiling`.  Requests are plain dicts (the
HTTP layer in :mod:`repro.service.http` decodes JSON bodies into them) and
queries arrive as SQL text parsed by :func:`repro.query.parser.parse_query`.
"""

from __future__ import annotations

import math
import os
import queue
import threading
import warnings
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.deadline import Deadline
from repro.errors import (
    PlanningError,
    ServiceError,
    ServiceOverloadedError,
    SnapshotError,
)
from repro.prob.pdb import ProbabilisticDatabase
from repro.prob.sharedag import SharedDTreeCache
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.parser import parse_query
from repro.service.snapshot import read_snapshot, write_snapshot
from repro.sprout.engine import EvaluationResult, SproutEngine
from repro.sprout.streaming import StandingQuery

__all__ = ["QueryService", "ServiceConfig", "result_payload"]


@dataclass
class ServiceConfig:
    """Server-wide knobs of one :class:`QueryService`.

    ``max_pending`` bounds the admission queue — the refinement work a
    client can park on the server — and is the admission-control knob: a
    submit against a full queue raises
    :class:`repro.errors.ServiceOverloadedError` (HTTP 429) immediately.
    ``max_steps_ceiling`` clamps the per-request ``max_steps`` budget (a
    request asking for more is rejected with a 400); ``default_max_steps``
    applies when a request names no budget at all (``None`` keeps the
    engine's own budget arithmetic: per-tuple default cap, exhaustion
    raised).

    ``default_timeout_ms`` is the wall-clock deadline applied to every
    decision request (top-k, threshold, subscribe, subscription update)
    that names no ``timeout_ms`` of its own: an expired request stops
    refining at the next round boundary and returns HTTP 200 with
    ``decided: false``, ``degraded: "deadline"``, and the current sound
    bounds — anytime degradation instead of hogging the lane (``None``
    disables the default; a request-level ``timeout_ms`` always wins).

    ``snapshot_path``/``snapshot_every`` enable crash recovery: the warm
    engine cache and every standing subscription are written atomically to
    ``snapshot_path`` every ``snapshot_every`` completed requests (counted,
    not timed — deterministic) and once more at :meth:`QueryService.close`;
    a snapshot found at boot is restored, so a killed-and-restarted server
    re-decides warm queries in ≤1 step.  A truncated or corrupt snapshot
    logs a structured warning and boots cold — never crashes.
    """

    max_pending: int = 32
    max_steps_ceiling: Optional[int] = None
    default_max_steps: Optional[int] = None
    default_timeout_ms: Optional[float] = None
    snapshot_path: Optional[str] = None
    snapshot_every: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise PlanningError(
                f"max_pending must be positive, got {self.max_pending}"
            )
        if self.max_steps_ceiling is not None and self.max_steps_ceiling < 0:
            raise PlanningError(
                f"max_steps_ceiling must be non-negative, got {self.max_steps_ceiling}"
            )
        if self.default_timeout_ms is not None and self.default_timeout_ms < 0:
            raise PlanningError(
                f"default_timeout_ms must be non-negative, got {self.default_timeout_ms}"
            )
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise PlanningError(
                f"snapshot_every must be positive, got {self.snapshot_every}"
            )
        if self.snapshot_every is not None and self.snapshot_path is None:
            raise PlanningError("snapshot_every needs a snapshot_path")


def result_payload(result: EvaluationResult) -> Dict[str, Any]:
    """An :class:`~repro.sprout.engine.EvaluationResult` as a JSON-safe dict.

    Deliberately excludes wall-clock timings: every field is a
    deterministic function of the request sequence, so two payloads from
    the same logical state compare bit-identical (floats survive the JSON
    round trip exactly — ``json`` serialises with ``repr`` precision).
    ``bounds`` are sorted by the data tuple's ``repr``, the same value-based
    order the schedulers use for ties.
    """
    payload: Dict[str, Any] = {
        "query": result.query_name,
        "plan": result.plan_style,
        "execution": result.execution,
        "confidence": result.confidence,
        "rows": [list(row) for row in result.relation],
        "decided": result.decided,
        "refine_steps": result.refine_steps,
        "delta_steps": result.delta_steps,
        "k": result.k,
        "tau": result.tau,
        "backend": result.backend,
        "answer_rows": result.answer_rows,
        # None for full-fidelity answers; "deadline" when a wall-clock budget
        # stopped refinement early (bounds stay sound — anytime degradation).
        "degraded": result.degraded,
    }
    if result.bounds:
        payload["bounds"] = sorted(
            ([list(data), lower, upper] for data, (lower, upper) in result.bounds.items()),
            key=lambda item: repr(item[0]),
        )
    return payload


class _Job:
    """One admitted request: kind, params, and the future its client awaits."""

    __slots__ = ("seq", "kind", "params", "future")

    def __init__(self, seq: int, kind: str, params: Dict[str, Any]):
        self.seq = seq
        self.kind = kind
        self.params = params
        self.future: "Future[Dict[str, Any]]" = Future()


class QueryService:
    """Multiplex evaluate/topk/threshold/subscription requests over one engine.

    Parameters
    ----------
    database
        The tuple-independent probabilistic database the service answers
        queries against.
    config
        The :class:`ServiceConfig` (admission depth, budget ceiling).
    engine
        Optionally a pre-built :class:`~repro.sprout.engine.SproutEngine`.
        By default the service builds one with the engine's default
        ``execution="batch"`` (a request may still name ``"row"``) and the
        engine's own ``shared_lineage``/``vectorize`` env-knob defaults; its
        shared store is what every request reuses.

    Lifecycle: :meth:`start` spawns the refinement lane, :meth:`close`
    drains it and closes the engine (both idempotent; the class is a
    context manager).  Transport layers call :meth:`submit` and await the
    returned future; :meth:`execute` is the synchronous path tests and the
    serial-replay oracle use.
    """

    #: Request kinds the refinement lane executes, in one dispatch table.
    KINDS = ("evaluate", "topk", "threshold", "subscribe",
             "subscription_get", "subscription_update", "subscription_delete")

    def __init__(
        self,
        database: ProbabilisticDatabase,
        config: Optional[ServiceConfig] = None,
        engine: Optional[SproutEngine] = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.engine = engine if engine is not None else SproutEngine(database)
        self.database = self.engine.database
        self._queue: "queue.Queue[Optional[_Job]]" = queue.Queue(
            maxsize=self.config.max_pending
        )
        self._admission_lock = threading.Lock()
        self._seq = 0
        self._lane: Optional[threading.Thread] = None
        self._closed = False
        self._executing = False
        self._subscriptions: Dict[str, StandingQuery] = {}
        self._subscription_seq = 0
        # Monotonic counters, surfaced by stats(); admitted/rejected move
        # under the admission lock, completed/failed only on the lane.
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        # Crash-recovery bookkeeping: restored flips once at boot; writes and
        # write failures count every periodic/shutdown snapshot attempt.
        self.snapshot_restored = False
        self.snapshot_failed = 0
        self.snapshots_written = 0
        self.snapshot_errors = 0
        self._restore_snapshot()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "QueryService":
        """Spawn the refinement lane (idempotent)."""
        if self._lane is None or not self._lane.is_alive():
            self._closed = False
            self._lane = threading.Thread(
                target=self._drain, name="repro-service-lane", daemon=True
            )
            self._lane.start()
        return self

    def close(self) -> None:
        """Stop the lane (after the queued work drains) and close the engine.

        Idempotent.  The closed flag flips under the admission lock, so every
        job admitted before close precedes the shutdown sentinel in the FIFO
        queue — in-flight futures all resolve before the lane exits.
        """
        with self._admission_lock:
            was_closed = self._closed
            self._closed = True
        lane = self._lane
        if lane is not None and lane.is_alive():
            if not was_closed:
                self._queue.put(None)  # FIFO: lands behind all admitted jobs
            lane.join(timeout=60)
        self._lane = None
        if not was_closed:
            # The lane has drained, so the warm state is quiescent — the
            # shutdown snapshot captures every completed request's refinement.
            self._write_snapshot()
        self._subscriptions = {}
        self.engine.close()

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- admission ----------------------------------------------------------

    def submit(
        self, kind: str, params: Optional[Dict[str, Any]] = None
    ) -> "Future[Dict[str, Any]]":
        """Admit one request; returns the future the refinement lane resolves.

        Assigns the admission sequence number under the admission lock and
        enqueues without blocking: a full queue raises
        :class:`repro.errors.ServiceOverloadedError` *immediately* — the
        caller gets back-pressure, not an unbounded backlog.
        """
        if kind not in self.KINDS:
            raise ServiceError(f"unknown request kind {kind!r}; choose from {self.KINDS}")
        with self._admission_lock:
            if self._closed:
                raise ServiceError("the service is closed")
            job = _Job(self._seq, kind, dict(params or {}))
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                self.rejected += 1
                raise ServiceOverloadedError(
                    f"admission queue full ({self.config.max_pending} pending "
                    f"request(s)); retry after in-flight refinement drains"
                ) from None
            self._seq += 1
            self.admitted += 1
        return job.future

    def execute(self, kind: str, params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Submit and wait — the synchronous client path, and the serial-replay
        oracle the stress test compares interleaved runs against."""
        return self.submit(kind, params).result()

    def in_flight(self) -> int:
        """Queued plus currently-executing requests (approximate by nature)."""
        return self._queue.qsize() + (1 if self._executing else 0)

    # -- the refinement lane ------------------------------------------------

    def _drain(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                # The shutdown sentinel is enqueued after the closed flag
                # flips, so FIFO order guarantees every admitted job has
                # already been executed by the time it surfaces here.
                return
            self._executing = True
            try:
                job.future.set_result(self._execute(job))
                self.completed += 1
            except BaseException as error:  # noqa: BLE001 - forwarded to the client
                self.failed += 1
                job.future.set_exception(error)
            finally:
                self._executing = False
            every = self.config.snapshot_every
            if every is not None and self.completed and self.completed % every == 0:
                # Periodic checkpoint, counted in completed requests (never
                # wall time) so when snapshots happen is deterministic too.
                self._write_snapshot()

    def _execute(self, job: _Job) -> Dict[str, Any]:
        handler = getattr(self, "_do_" + job.kind)
        payload = handler(job.params)
        payload["seq"] = job.seq
        return payload

    # -- crash recovery -----------------------------------------------------

    def _snapshot_state(self) -> Dict[str, Any]:
        """The warm state worth surviving a restart, as one picklable dict."""
        state: Dict[str, Any] = {
            "version": 1,
            "engine_cache": (
                self.engine.dtree_cache.export_state()
                if self.engine.shared_lineage
                else None
            ),
            "subscriptions": [
                (subscription, self._subscriptions[subscription].export_state())
                for subscription in sorted(self._subscriptions)
            ],
            # Preserved so restored ids never collide with post-restart ones.
            "subscription_seq": self._subscription_seq,
        }
        return state

    def _write_snapshot(self) -> None:
        """Write a snapshot if configured; failures count, never propagate.

        Runs on the refinement lane (periodic) or after the lane has joined
        (shutdown), so the engine cache and subscriptions are quiescent.
        """
        path = self.config.snapshot_path
        if path is None:
            return
        try:
            write_snapshot(path, self._snapshot_state())
            self.snapshots_written += 1
        except SnapshotError as error:
            # Snapshotting is best-effort durability: a failed write must
            # never take down a serving lane.  The previous snapshot (if
            # any) is still intact on disk.
            self.snapshot_errors += 1
            warnings.warn(f"service snapshot failed: {error}", RuntimeWarning)

    def _restore_snapshot(self) -> None:
        """Restore warm state from ``snapshot_path`` at boot, or boot cold.

        Any defect — unreadable file, truncation, checksum mismatch, or a
        payload this build cannot rehydrate — warns and leaves the service
        in its cold-boot state; it never crashes the boot.
        """
        path = self.config.snapshot_path
        if path is None or not os.path.exists(path):
            return
        try:
            state = read_snapshot(path)
        except SnapshotError as error:
            self.snapshot_failed += 1
            warnings.warn(
                f"snapshot ignored, booting cold: {error}", RuntimeWarning
            )
            return
        restored: Dict[str, StandingQuery] = {}
        try:
            # Rehydrate everything before committing anything, so a failure
            # part-way leaves the service exactly in its cold-boot state.
            cache_state = state.get("engine_cache")
            new_cache = (
                SharedDTreeCache.from_state(cache_state)
                if cache_state is not None and self.engine.shared_lineage
                else None
            )
            for subscription, watch_state in state.get("subscriptions", ()):
                restored[subscription] = StandingQuery.from_state(watch_state)
            if new_cache is not None:
                self.engine.dtree_cache = new_cache
            self._subscriptions.update(restored)
            self._subscription_seq = int(state.get("subscription_seq", 0))
            self.snapshot_restored = True
        except Exception as error:  # noqa: BLE001 - any defect means boot cold
            self._subscriptions.clear()
            self._subscription_seq = 0
            self.snapshot_failed += 1
            warnings.warn(
                f"snapshot {path!r} verified but could not be rehydrated, "
                f"booting cold: {error!r}",
                RuntimeWarning,
            )

    # -- request plumbing ---------------------------------------------------

    def _parse_sql(self, params: Dict[str, Any]) -> ConjunctiveQuery:
        sql = params.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ServiceError("request needs a non-empty 'sql' string")
        name = params.get("name", "query")
        if not isinstance(name, str):
            raise ServiceError(f"'name' must be a string, got {name!r}")
        return parse_query(sql, self.database.catalog, name=name).query

    def _checked_max_steps(self, params: Dict[str, Any]) -> Optional[int]:
        """The request's step budget, clamped by the server-wide ceiling."""
        max_steps = params.get("max_steps", self.config.default_max_steps)
        if max_steps is None:
            return None
        if not isinstance(max_steps, int) or isinstance(max_steps, bool) or max_steps < 0:
            raise ServiceError(
                f"'max_steps' must be a non-negative integer, got {max_steps!r}"
            )
        ceiling = self.config.max_steps_ceiling
        if ceiling is not None and max_steps > ceiling:
            raise ServiceError(
                f"'max_steps' {max_steps} exceeds this server's ceiling {ceiling}"
            )
        return max_steps

    def _checked_deadline(self, params: Dict[str, Any]) -> Optional[Deadline]:
        """The request's wall-clock deadline, started *now* — on the lane.

        The clock starts when execution starts, not at admission: queueing
        time is the server's problem, the budget covers refinement.  A
        request-level ``timeout_ms`` overrides the config default;
        ``timeout_ms: null``/absent falls back to the default (or none).
        """
        timeout_ms = params.get("timeout_ms", self.config.default_timeout_ms)
        if timeout_ms is None:
            return None
        if (
            not isinstance(timeout_ms, (int, float))
            or isinstance(timeout_ms, bool)
            or timeout_ms < 0
        ):
            raise ServiceError(
                f"'timeout_ms' must be a non-negative number, got {timeout_ms!r}"
            )
        return Deadline.after_ms(float(timeout_ms))

    def _checked_confidence(self, params: Dict[str, Any]) -> Optional[str]:
        confidence = params.get("confidence")
        if confidence is not None and confidence not in ("exact", "approx"):
            raise ServiceError(
                f"'confidence' must be 'exact' or 'approx', got {confidence!r}"
            )
        return confidence

    def _checked_epsilon(self, params: Dict[str, Any]) -> Optional[float]:
        epsilon = params.get("epsilon")
        if epsilon is None:
            return None
        if (
            not isinstance(epsilon, (int, float))
            or isinstance(epsilon, bool)
            or not 0 <= epsilon < math.inf  # NaN fails both comparisons
        ):
            raise ServiceError(
                f"'epsilon' must be a finite non-negative number, got {epsilon!r}"
            )
        return float(epsilon)

    # -- request handlers (refinement-lane only) ----------------------------

    def _do_evaluate(self, params: Dict[str, Any]) -> Dict[str, Any]:
        query = self._parse_sql(params)
        if params.get("timeout_ms") is not None:
            # evaluate is epsilon-budgeted, not decision-scheduled: it has no
            # round boundaries to stop at, so a deadline cannot apply cleanly.
            raise ServiceError(
                "'timeout_ms' applies to decision requests "
                "(topk/threshold/subscribe), not 'evaluate'"
            )
        result = self.engine.evaluate(
            query,
            plan=params.get("plan", "lazy"),
            execution=params.get("execution"),
            confidence=self._checked_confidence(params),
            epsilon=self._checked_epsilon(params),
        )
        payload = result_payload(result)
        payload["kind"] = "evaluate"
        return payload

    def _do_topk(self, params: Dict[str, Any]) -> Dict[str, Any]:
        query = self._parse_sql(params)
        k = params.get("k")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ServiceError(f"'k' must be a positive integer, got {k!r}")
        result = self.engine.evaluate_topk(
            query,
            k=k,
            execution=params.get("execution"),
            confidence=self._checked_confidence(params),
            max_steps=self._checked_max_steps(params),
            deadline=self._checked_deadline(params),
        )
        payload = result_payload(result)
        payload["kind"] = "topk"
        return payload

    def _do_threshold(self, params: Dict[str, Any]) -> Dict[str, Any]:
        query = self._parse_sql(params)
        tau = params.get("tau")
        if not isinstance(tau, (int, float)) or isinstance(tau, bool) or not 0.0 <= tau <= 1.0:
            raise ServiceError(f"'tau' must be a number within [0, 1], got {tau!r}")
        result = self.engine.evaluate_threshold(
            query,
            tau=float(tau),
            execution=params.get("execution"),
            confidence=self._checked_confidence(params),
            max_steps=self._checked_max_steps(params),
            deadline=self._checked_deadline(params),
        )
        payload = result_payload(result)
        payload["kind"] = "threshold"
        return payload

    def _do_subscribe(self, params: Dict[str, Any]) -> Dict[str, Any]:
        query = self._parse_sql(params)
        k = params.get("k")
        tau = params.get("tau")
        if (k is None) == (tau is None):
            raise ServiceError("a subscription needs exactly one of 'k' or 'tau'")
        kwargs: Dict[str, Any] = {
            "confidence": self._checked_confidence(params),
            "max_steps": self._checked_max_steps(params),
            # Bounds only the subscription's *initial* decision; later
            # refreshes budget per-request (subscription_update).
            "deadline": self._checked_deadline(params),
        }
        if k is not None:
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise ServiceError(f"'k' must be a positive integer, got {k!r}")
            watch = self.engine.watch_topk(query, k=k, **kwargs)
        else:
            if not isinstance(tau, (int, float)) or isinstance(tau, bool) or not 0.0 <= tau <= 1.0:
                raise ServiceError(f"'tau' must be a number within [0, 1], got {tau!r}")
            watch = self.engine.watch_threshold(query, tau=float(tau), **kwargs)
        # Ids are assigned on the lane, in admission order, so a serial
        # replay of the same request sequence reproduces them exactly.
        subscription = f"sub-{self._subscription_seq}"
        self._subscription_seq += 1
        self._subscriptions[subscription] = watch
        return self._subscription_payload(subscription, watch, kind="subscribe")

    def _subscription_for(self, params: Dict[str, Any]) -> "tuple[str, StandingQuery]":
        subscription = params.get("subscription")
        watch = self._subscriptions.get(subscription)
        if watch is None:
            raise ServiceError(f"unknown subscription {subscription!r}")
        return subscription, watch

    def _subscription_payload(
        self, subscription: str, watch: StandingQuery, kind: str
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "kind": kind,
            "subscription": subscription,
            "k": watch.k,
            "tau": watch.tau,
            "decided": watch.decided,
            "candidates": len(watch),
            "selected": [list(data) for data in watch.selected],
            "entered": [list(data) for data in watch.last_entered],
            "left": [list(data) for data in watch.last_left],
            "total_steps": watch.total_steps,
            "delta_steps": watch.delta_steps,
        }
        if kind in ("subscribe", "subscription"):
            # The ids a client may pass to /update — omitted from update
            # responses, which would otherwise repeat the whole space.
            payload["variables"] = sorted(watch.probabilities)
        if watch.result is not None:
            payload["result"] = result_payload(watch.result)
        return payload

    def _do_subscription_get(self, params: Dict[str, Any]) -> Dict[str, Any]:
        subscription, watch = self._subscription_for(params)
        return self._subscription_payload(subscription, watch, kind="subscription")

    def _do_subscription_update(self, params: Dict[str, Any]) -> Dict[str, Any]:
        subscription, watch = self._subscription_for(params)
        variable = params.get("variable")
        probability = params.get("probability")
        if not isinstance(variable, int) or isinstance(variable, bool):
            raise ServiceError(f"'variable' must be an integer, got {variable!r}")
        if not isinstance(probability, (int, float)) or isinstance(probability, bool):
            raise ServiceError(f"'probability' must be a number, got {probability!r}")
        report = watch.update_probability(variable, float(probability))
        if params.get("refresh", True):
            watch.refresh(self._checked_deadline(params))
        payload = self._subscription_payload(subscription, watch, kind="update")
        payload["report"] = (
            None
            if report is None
            else {
                "reseeded": report.reseeded,
                "touched": len(report.touched),
                "noop": report.is_noop,
            }
        )
        return payload

    def _do_subscription_delete(self, params: Dict[str, Any]) -> Dict[str, Any]:
        subscription, watch = self._subscription_for(params)
        del self._subscriptions[subscription]
        return {"kind": "unsubscribe", "subscription": subscription}

    # -- observability (any thread) -----------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Service counters plus the shared store's state, lock-consistently.

        Safe to call from any thread while the lane refines: the store
        counters are read under the store lock, and the node table's
        ``mutations`` counter lets callers detect that refinement moved
        between two reads.
        """
        payload: Dict[str, Any] = {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "in_flight": self.in_flight(),
            "max_pending": self.config.max_pending,
            "subscriptions": len(self._subscriptions),
            "cache": self.engine.cache_stats(),
            "snapshot": {
                "path": self.config.snapshot_path,
                "restored": self.snapshot_restored,
                "failed": self.snapshot_failed,
                "written": self.snapshots_written,
                "errors": self.snapshot_errors,
            },
        }
        if self.engine.shared_lineage and not getattr(self.engine, "_closed", False):
            store = self.engine.dtree_cache.store
            with store.lock:
                payload["store"] = {
                    "steps": store.steps,
                    "node_count": store.node_count,
                    "table_nodes": len(store.table),
                    "mutations": store.table.mutations,
                    "reset_epoch": store.reset_epoch,
                    "retired_nodes": store.retired_nodes,
                }
        return payload

    def subscriptions(self) -> List[str]:
        return sorted(self._subscriptions)
