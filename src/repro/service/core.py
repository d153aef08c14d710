"""The query service core: one engine, one shared store, one thread.

:class:`QueryService` serves ``evaluate`` / ``topk`` / ``threshold``
requests and standing-query subscriptions over **one** shared
:class:`repro.sprout.engine.SproutEngine` — and therefore one
:class:`repro.prob.sharedag.ClauseInterner` and one
:class:`repro.prob.sharedag.SharedLineageStore`.  That sharing is the whole
point: warm-store repeats decide in 0–1 logical steps, and the service is
what makes the warm state reachable from many clients at once instead of
being locked inside a single-threaded library.

Concurrency model — **one request at a time, on the caller's thread**:
:meth:`QueryService.execute` is the only execution path.  Under one lock it
checks the request kind, assigns the next *sequence number* (``seq``) and
runs the request to completion against the shared engine.  The HTTP layer
(:mod:`repro.service.http`) calls it on its event-loop thread right after
reading a request, so a server is one thread and nothing queues inside it:
under the GIL a hand-off to a worker thread would buy no parallelism, only
a second thread switch per request.  The store's lock/epoch discipline
(:meth:`repro.prob.sharedag.SharedLineageStore.pinned`) additionally keeps
every mutation serialised and defers node-budget epoch resets to request
boundaries.

This is what makes the **determinism contract** hold: ``seq`` order is
execution order, so the decided sets, confidences, bounds, and step counts
of an interleaved request sequence are bit-identical to executing the same
requests serially in ``seq`` order — concurrency changes *when* a request
runs, never what it computes.  (``tests/test_service.py`` proves the
contract with N interleaved asyncio clients.)

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
import threading
import warnings
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.deadline import Deadline
from repro.errors import PlanningError, ServiceError, SnapshotError
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

    ``max_steps_ceiling`` clamps the per-request ``max_steps`` budget (a
    request asking for more is rejected with a 400); a request that names
    no budget keeps the engine's own budget arithmetic (per-tuple default
    cap, exhaustion raised).

    ``default_timeout_ms`` is the wall-clock deadline applied to every
    decision request (top-k, threshold, subscribe, subscription update)
    that names no ``timeout_ms`` of its own: an expired request stops
    refining at the next round boundary and returns HTTP 200 with
    ``decided: false``, ``degraded: "deadline"``, and the current sound
    bounds — anytime degradation instead of hogging the server (``None``
    disables the default; a request-level ``timeout_ms`` always wins).

    ``snapshot_path``/``snapshot_every`` enable crash recovery: the warm
    engine cache and every standing subscription are written atomically to
    ``snapshot_path`` every ``snapshot_every`` completed requests (counted,
    not timed — deterministic; written before :meth:`QueryService.execute`
    returns, so a client holding its answer holds that checkpoint too) and
    once more at :meth:`QueryService.close`;
    a snapshot found at boot is restored, so a killed-and-restarted server
    re-decides warm queries in ≤1 step.  A truncated or corrupt snapshot
    logs a structured warning and boots cold — never crashes.
    """

    max_steps_ceiling: Optional[int] = None
    default_timeout_ms: Optional[float] = None
    snapshot_path: Optional[str] = None
    snapshot_every: Optional[int] = None

    def __post_init__(self) -> None:
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
        "confidence": result.confidence,
        "rows": [list(row) for row in result.relation],
        "decided": result.decided,
        "refine_steps": result.refine_steps,
        "delta_steps": result.delta_steps,
        "k": result.k,
        "tau": result.tau,
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


class QueryService:
    """Multiplex evaluate/topk/threshold/subscription requests over one engine.

    Parameters
    ----------
    database
        The tuple-independent probabilistic database the service answers
        queries against.
    config
        The :class:`ServiceConfig` (budgets, deadlines, snapshots).
    engine
        Optionally a pre-built :class:`~repro.sprout.engine.SproutEngine`.
        By default the service builds one; its shared store is what every
        request reuses.

    Lifecycle: :meth:`start` returns the service (it starts nothing — the
    caller's thread does the work), :meth:`close` waits for the request
    that is executing, writes the shutdown snapshot and closes the engine
    (idempotent; the class is a context manager).  Transports and tests
    alike call :meth:`execute`.
    """

    #: Request kinds :meth:`execute` accepts, in one dispatch table.
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
        # Held for the whole of one request: seq assignment, execution, the
        # periodic snapshot.  close() takes it too, so it waits for the
        # request that is executing.
        self._lock = threading.Lock()
        self._seq = 0
        self._closed = False
        self._subscriptions: Dict[str, StandingQuery] = {}
        self._subscription_seq = 0
        # Monotonic counters, surfaced by stats(); all move under the lock.
        # rejected counts requests refused by a closed service.
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
        """Return the service; requests run on their caller's thread."""
        return self

    def close(self) -> None:
        """Wait for the executing request, snapshot, and close the engine.

        Idempotent.  The closed flag flips under the request lock, so the
        shutdown snapshot captures every completed request's refinement and
        every later :meth:`execute` raises :class:`repro.errors.ServiceError`.
        """
        with self._lock:
            if not self._closed:
                self._closed = True
                self._write_snapshot()
            self._subscriptions = {}
            self.engine.close()

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ----------------------------------------------------------

    def execute(self, kind: str, params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Run one request to completion and return its payload.

        Requests from any number of threads run one at a time, each tagged
        with the next ``seq`` — so ``seq`` order is execution order, and a
        serial replay in ``seq`` order reproduces every payload.  With
        ``snapshot_every`` set, the periodic snapshot is on disk before the
        payload is returned.
        """
        if kind not in self.KINDS:
            raise ServiceError(f"unknown request kind {kind!r}; choose from {self.KINDS}")
        handler = getattr(self, "_do_" + kind)
        with self._lock:
            if self._closed:
                self.rejected += 1
                raise ServiceError("the service is closed")
            seq = self._seq
            self._seq += 1
            self.admitted += 1
            try:
                payload = handler(params or {})
            except BaseException:
                self.failed += 1
                raise
            payload["seq"] = seq
            self.completed += 1
            every = self.config.snapshot_every
            if every is not None and self.completed % every == 0:
                # Periodic checkpoint, counted in completed requests (never
                # wall time) so when snapshots happen is deterministic too.
                self._write_snapshot()
            return payload

    # -- crash recovery -----------------------------------------------------

    def _snapshot_state(self) -> Dict[str, Any]:
        """The warm state worth surviving a restart, as one picklable dict."""
        state: Dict[str, Any] = {
            "version": 1,
            "engine_cache": self.engine.dtree_cache.export_state(),
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

        Runs under the request lock (periodic, or at shutdown), so the
        engine cache and subscriptions are quiescent.
        """
        path = self.config.snapshot_path
        if path is None:
            return
        try:
            write_snapshot(path, self._snapshot_state())
            self.snapshots_written += 1
        except SnapshotError as error:
            # Snapshotting is best-effort durability: a failed write must
            # never fail the request it follows.  The previous snapshot (if
            # any) is still intact on disk.
            self.snapshot_errors += 1
            warnings.warn(f"service snapshot failed: {error}", RuntimeWarning)

    def _restore_snapshot(self) -> None:
        """Restore warm state from ``snapshot_path`` at boot, or boot cold.

        Any defect — unreadable file, truncation, checksum mismatch, or a
        payload this build cannot rehydrate — warns and leaves the service
        in its cold-boot state; it never crashes the boot.  A snapshot
        without an engine cache (older builds wrote ``None`` when their
        engine compiled per tuple) restores its subscriptions, and the
        engine cache boots cold.
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
                None if cache_state is None else SharedDTreeCache.from_state(cache_state)
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

    @staticmethod
    def _check_execution(params: Dict[str, Any]) -> None:
        """Refuse a backend other than the engine's one, ``"batch"``.

        Clients written for the two-backend engine may still name
        ``"batch"`` (or ``null``); ``"row"`` is gone and is a 400.
        """
        execution = params.get("execution")
        if execution not in (None, "batch"):
            raise PlanningError(
                f"unknown execution mode {execution!r}; the engine runs one "
                "columnar backend, 'batch'"
            )

    def _checked_max_steps(self, params: Dict[str, Any]) -> Optional[int]:
        """The request's step budget, clamped by the server-wide ceiling."""
        max_steps = params.get("max_steps")
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
        """The request's wall-clock deadline, started *now*.

        The clock starts when execution starts: waiting for the request
        ahead is the server's problem, the budget covers refinement.  A
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

    # -- request handlers (under the request lock) --------------------------

    def _do_evaluate(self, params: Dict[str, Any]) -> Dict[str, Any]:
        self._check_execution(params)
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
            confidence=self._checked_confidence(params),
            epsilon=self._checked_epsilon(params),
        )
        payload = result_payload(result)
        payload["kind"] = "evaluate"
        return payload

    def _do_topk(self, params: Dict[str, Any]) -> Dict[str, Any]:
        self._check_execution(params)
        query = self._parse_sql(params)
        k = params.get("k")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ServiceError(f"'k' must be a positive integer, got {k!r}")
        result = self.engine.evaluate_topk(
            query,
            k=k,
            confidence=self._checked_confidence(params),
            max_steps=self._checked_max_steps(params),
            deadline=self._checked_deadline(params),
        )
        payload = result_payload(result)
        payload["kind"] = "topk"
        return payload

    def _do_threshold(self, params: Dict[str, Any]) -> Dict[str, Any]:
        self._check_execution(params)
        query = self._parse_sql(params)
        tau = params.get("tau")
        if not isinstance(tau, (int, float)) or isinstance(tau, bool) or not 0.0 <= tau <= 1.0:
            raise ServiceError(f"'tau' must be a number within [0, 1], got {tau!r}")
        result = self.engine.evaluate_threshold(
            query,
            tau=float(tau),
            confidence=self._checked_confidence(params),
            max_steps=self._checked_max_steps(params),
            deadline=self._checked_deadline(params),
        )
        payload = result_payload(result)
        payload["kind"] = "threshold"
        return payload

    def _do_subscribe(self, params: Dict[str, Any]) -> Dict[str, Any]:
        self._check_execution(params)
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
        # Ids are assigned in execution (seq) order, so a serial
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

        Safe to call from any thread while a request executes: the store
        counters are read under the store lock, and the node table's
        ``mutations`` counter lets callers detect that refinement moved
        between two reads.
        """
        payload: Dict[str, Any] = {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
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
        if not getattr(self.engine, "_closed", False):
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
