"""Standing top-k/threshold queries over a feed of deltas.

One-shot engine calls answer "what is the top-k *now*"; monitoring workloads
ask the engine to *keep* answering while the probability space and the
candidate set drift — sensor confidences move, tuples arrive and retire.
Recompiling from scratch per tick throws away exactly the work the
shared-lineage DAG (:mod:`repro.prob.sharedag`) was built to keep: the
compiled structure is probability-independent, so a delta only has to re-seed
the rows carrying the changed variable and repair their ancestors
(:mod:`repro.prob.delta`), after which the previously-decided set can be
re-checked — and usually re-confirmed — in a handful of logical steps.

:class:`StandingQuery` is that loop, packaged:

* it owns a **private** lineage cache (a
  :class:`repro.prob.sharedag.SharedDTreeCache` in shared mode) — never the
  engine's, whose store is bound to the unmutated database probability
  space — holding one live view per candidate tuple;
* :meth:`update_probability` / :meth:`insert_tuple` / :meth:`delete_tuple`
  apply deltas: updates delta-propagate through the store and mark stale
  exactly the views whose root the delta touched — re-measured if and when
  a refresh peeks at them; everything else keeps its frontier (an
  untouched decided tuple never re-enters refinement);
  inserts intern the new clauses against the standing
  :class:`repro.prob.sharedag.ClauseInterner`, so a warm insert built from
  already-refined subformulas decides in 0–few steps; deletes retire the
  view with epoch-based garbage accounting;
* :meth:`refresh` re-decides the answer set with the *same* decision
  arithmetic as the one-shot engine — it calls
  :func:`repro.sprout.topk.run_decision` (scheduler +
  :func:`repro.sprout.topk.finish_selected`), so a standing decision and an
  `evaluate_topk` over the same final state are the same code — and returns
  a full :class:`repro.sprout.engine.EvaluationResult` whose
  ``delta_steps`` is the cost of this batch alone (``refine_steps`` stays
  cumulative).

Construct one via :meth:`repro.sprout.engine.SproutEngine.watch_topk` /
``watch_threshold`` (which materialise the query's answer lineage first), or
directly from a lineage map for lineage-level monitoring.  With
``shared_lineage=False`` the layer stays functional but non-incremental:
probability updates flag a full rebuild of the per-tuple tree cache on the
next refresh (the legacy object-graph trees bake marginals into their
structure, so there is nothing to delta-propagate).

Determinism: every delta is a deterministic function of (store state, delta),
and :meth:`refresh` ranks touched views on frontiers measured at peek time —
a pure function of the table state then, never of timing — so the decided
set, the exact confidences of selected tuples, and the *bounds after
closing every candidate* end bit-identical to compiling the final state from
scratch.  (Intermediate open-leaf brackets are the one thing history leaves a
mark on: a warm store has refined more than a cold compile of the final
state, so non-selected bounds may be tighter — never looser than sound.)
See ``docs/streaming.md`` for the full update model.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import PlanningError, ProbabilityError
from repro.prob.delta import DeltaReport
from repro.prob.dtree import (
    DEFAULT_MAX_STEPS,
    DTreeCache,
    canonical_clauses,
    dnf_from_canonical,
)
from repro.prob.formulas import DNF
from repro.prob.lineage import dtrees_from_dnfs, interned_dnf
from repro.prob.sharedag import DEFAULT_MAX_NODES, SharedDTree, SharedDTreeCache
from repro.sprout.topk import TupleCandidate, run_decision
from repro.storage.relation import Relation
from repro.storage.schema import Attribute, ColumnRole, Schema

__all__ = [
    "StandingQuery",
]

DataTuple = Tuple[object, ...]


class StandingQuery:
    """A live top-k or threshold answer set, maintained across delta batches.

    Parameters
    ----------
    lineage, probabilities
        The initial candidate set: one DNF per answer tuple, and the
        marginals of every variable mentioned.  Both are copied; the
        standing query owns its probability space from here on.
    k / tau
        Exactly one must be given: a top-k standing query or a
        τ-threshold one (same semantics as the engine entry points).
    confidence
        ``"exact"`` (default) refines every selected tuple to closure on
        each refresh — selected confidences are exact after every batch;
        ``"approx"`` reports bracket midpoints for the decided set.
    max_steps / default_cap
        The budget arithmetic of :func:`repro.sprout.topk.run_decision`,
        applied *per refresh*: ``max_steps=None`` grants each selected
        tuple ``default_cap`` finishing steps (exhaustion raises
        :class:`repro.errors.ApproximationBudgetError`); an explicit
        ``max_steps`` caps the whole refresh and is reported via
        ``decided=False``, never raised.
    shared_lineage / cache_nodes
        The substrate knobs, mirroring the engine's: shared mode (default)
        compiles candidates into one private hash-consed store and is what
        makes deltas incremental; ``cache_nodes`` bounds it (node count).
    schema / name / execution
        Result-shaping metadata for the returned
        :class:`~repro.sprout.engine.EvaluationResult`; ``schema`` defaults
        to synthesized ``c0..cN`` data columns.

    Attributes: ``selected`` (decided data tuples, most probable first),
    ``decided``, ``result`` (the last refresh's full result),
    ``last_entered`` / ``last_left`` (decided-set transitions of the last
    refresh), ``total_steps`` / ``delta_steps`` (cumulative vs. last-batch
    logical steps).  The constructor runs the initial (cold) refresh.
    """

    def __init__(
        self,
        lineage: Mapping[DataTuple, DNF],
        probabilities: Mapping[int, float],
        *,
        k: Optional[int] = None,
        tau: Optional[float] = None,
        confidence: str = "exact",
        max_steps: Optional[int] = None,
        default_cap: Optional[int] = DEFAULT_MAX_STEPS,
        shared_lineage: bool = True,
        cache_nodes: Optional[int] = DEFAULT_MAX_NODES,
        schema: Optional[Schema] = None,
        name: str = "standing",
        execution: str = "row",
        deadline=None,
    ):
        if (k is None) == (tau is None):
            raise PlanningError("a standing query needs exactly one of k or tau")
        if k is not None and k < 1:
            raise PlanningError(f"k must be positive, got {k}")
        if tau is not None and not 0.0 <= tau <= 1.0:
            raise PlanningError(f"tau must be within [0, 1], got {tau}")
        if confidence not in ("exact", "approx"):
            raise PlanningError(
                f"unknown confidence mode {confidence!r}; choose from ('exact', 'approx')"
            )
        self.k = k
        self.tau = tau
        self.confidence = confidence
        self.max_steps = max_steps
        self.default_cap = default_cap
        self.shared_lineage = bool(shared_lineage)
        self.name = name
        self._schema = schema
        self._execution = execution
        self._cache: Union[SharedDTreeCache, DTreeCache] = (
            SharedDTreeCache(max_nodes=cache_nodes)
            if self.shared_lineage
            else DTreeCache(max_nodes=cache_nodes)
        )
        self._cache_nodes = cache_nodes
        self.probabilities: Dict[int, float] = dict(probabilities)
        self.lineage: Dict[DataTuple, DNF] = {}
        self._candidates: Dict[DataTuple, TupleCandidate] = {}
        #: Shared mode: root nid → the candidate views rooted there, so a
        #: delta marks ``touched ∩ roots`` instead of scanning every candidate.
        self._views_by_root: Dict[int, List[SharedDTree]] = {}
        #: Legacy-mode (shared_lineage=False) rebuild flag: per-tuple trees
        #: bake marginals into their structure, so a probability update
        #: forces a fresh compile of every candidate on the next refresh.
        self._stale_probabilities = False
        self.selected: List[DataTuple] = []
        self.decided = True
        self.last_entered: List[DataTuple] = []
        self.last_left: List[DataTuple] = []
        self.total_steps = 0
        self.delta_steps = 0
        self.result = None
        for data, dnf in lineage.items():
            self._admit(tuple(data), dnf)
        # The deadline bounds only this initial decision; later refreshes
        # take their own (or none) — a standing query outlives any request.
        self.refresh(deadline)

    # -- candidate plumbing -------------------------------------------------

    @property
    def _store(self):
        return self._cache.store if self.shared_lineage else None

    @property
    def _interner(self):
        return self._cache.interner if self.shared_lineage else None

    def _admit(self, data: DataTuple, dnf: DNF) -> None:
        if self._stale_probabilities:
            # Legacy cache is bound to the pre-update probability space; a
            # pending rebuild must land before it can admit a new tree.
            self._rebuild_legacy()
        dnf = interned_dnf(dnf.clauses, self._interner)
        self.lineage[data] = dnf
        tree = self._cache.get(dnf, self.probabilities)
        self._candidates[data] = TupleCandidate(data, tree=tree)
        if self.shared_lineage:
            self._views_by_root.setdefault(tree.root, []).append(tree)

    def __len__(self) -> int:
        return len(self._candidates)

    def cache_stats(self) -> Dict[str, object]:
        """The standing cache's counters, in the engine's ``cache_stats`` shape."""
        store = self._store
        return {
            "hits": self._cache.hits,
            "misses": self._cache.misses,
            "evictions": self._cache.evictions,
            "entries": len(self._cache),
            "shared_lineage": self.shared_lineage,
            # Views marked stale vs. frontiers measured at a peek (0 in legacy mode).
            "frontier_marks": store.frontier_marks if store is not None else 0,
            "frontier_rebuilds": store.frontier_rebuilds if store is not None else 0,
        }

    # -- deltas --------------------------------------------------------------

    def update_probability(self, variable: int, probability: float) -> Optional[DeltaReport]:
        """Move one marginal; delta-propagate and mark touched views stale.

        Shared mode re-seeds the store rows carrying ``variable``, repairs
        their ancestor closure in one multi-source pass, and marks stale
        exactly the views whose root lies in the touched closure (a marked
        view re-measures its frontier when a refresh next peeks at it, and
        never if none does) — a decided tuple whose lineage does not reach
        an updated node keeps its frontier and its decision.  Returns the
        store's :class:`~repro.prob.delta.DeltaReport` (``None`` in legacy
        mode, where the update schedules a full rebuild on the next
        refresh).  The new answer set materialises on the next :meth:`refresh`.
        """
        probability = float(probability)
        if not 0.0 <= probability <= 1.0:
            raise ProbabilityError(
                f"probability must be within [0, 1], got {probability}"
            )
        # An unknown variable is not recorded: updates must not grow the space.
        known = variable in self.probabilities
        if not self.shared_lineage:
            if known and self.probabilities[variable] != probability:
                self.probabilities[variable] = probability
                self._stale_probabilities = True
            return None
        store = self._store
        with store.lock:  # repair and marks are one step to a concurrent refresh
            report = store.update_probability(variable, probability)
            if known:
                self.probabilities[variable] = probability
            for root in self._views_by_root.keys() & report.touched:
                for tree in self._views_by_root[root]:
                    tree.resync()
        return report

    def insert_tuple(
        self,
        data: Iterable[object],
        lineage: Union[DNF, Iterable[Iterable[int]]],
        probabilities: Optional[Mapping[int, float]] = None,
    ) -> DataTuple:
        """Admit a new candidate tuple (replacing any existing one for ``data``).

        ``lineage`` is the tuple's DNF (or raw clause iterables); its
        clauses are interned against the standing store's clause interner,
        so subformulas the store already compiled are hash-consed onto the
        existing — possibly already refined — rows: a warm insert often
        decides in 0–few steps on the next :meth:`refresh`.
        ``probabilities`` supplies marginals for variables the standing
        space has not seen; re-binding a known variable to a different
        value is rejected (that is :meth:`update_probability`'s job).
        """
        data = tuple(data)
        if probabilities:
            for variable, value in probabilities.items():
                value = float(value)
                if not 0.0 <= value <= 1.0:
                    raise ProbabilityError(
                        f"probability must be within [0, 1], got {value}"
                    )
                existing = self.probabilities.get(variable)
                if existing is None:
                    self.probabilities[variable] = value
                elif existing != value:
                    raise ProbabilityError(
                        f"variable {variable} is already bound to {existing}; "
                        f"use update_probability() to move it"
                    )
        dnf = lineage if isinstance(lineage, DNF) else DNF(lineage)
        if data in self._candidates:
            self.delete_tuple(data)
        self._admit(data, dnf)
        return data

    def delete_tuple(self, data: Iterable[object]) -> int:
        """Retire a candidate tuple; returns the rows counted as garbage.

        The view's reachable rows are charged to the store's epoch-based
        garbage accounting (:func:`repro.prob.delta.retire_view`) — an
        upper bound, since hash-consed rows shared with surviving tuples
        stay live.  Deleting an unknown tuple raises
        :class:`repro.errors.PlanningError`.
        """
        data = tuple(data)
        candidate = self._candidates.pop(data, None)
        if candidate is None:
            raise PlanningError(f"unknown standing tuple {data!r}")
        self.lineage.pop(data, None)
        store = self._store
        if store is not None and candidate.tree is not None:
            views = self._views_by_root[candidate.tree.root]
            views.remove(candidate.tree)
            if not views:
                del self._views_by_root[candidate.tree.root]
            return store.retire_view(candidate.tree)
        return 0

    # -- re-decide -----------------------------------------------------------

    def _rebuild_legacy(self) -> None:
        """Legacy-mode probability change: recompile every candidate fresh."""
        self._cache = DTreeCache(max_nodes=self._cache_nodes)
        trees = dtrees_from_dnfs(self.lineage, self.probabilities, cache=self._cache)
        self._candidates = {
            data: TupleCandidate(data, tree=tree) for data, tree in trees.items()
        }
        self._stale_probabilities = False

    def refresh(self, deadline=None):
        """Re-decide the answer set against the current (post-delta) state.

        Runs the engine's own decision routine
        (:func:`repro.sprout.topk.run_decision`) over the standing
        candidates — scheduler plus exact-mode finishing, identical budget
        arithmetic — and records the decided-set transitions.  Returns an
        :class:`~repro.sprout.engine.EvaluationResult` whose
        ``delta_steps`` is the logical steps this refresh spent and whose
        ``refine_steps`` is the standing query's cumulative total.

        ``deadline`` (a :class:`repro.deadline.Deadline`) degrades the
        refresh at round boundaries exactly like the one-shot engine routes:
        expiry stops refining, the result reports ``decided=False`` with
        ``degraded="deadline"`` and the current sound bounds, and the next
        refresh simply resumes from where this one stopped.
        """
        from repro.sprout.engine import EvaluationResult

        if self._stale_probabilities:
            self._rebuild_legacy()
        candidates = list(self._candidates.values())
        outcome, finishing_steps = run_decision(
            candidates,
            self.k,
            self.tau,
            self.confidence,
            self.max_steps,
            self.default_cap,
            store=self._store,
            deadline=deadline,
        )
        delta_steps = outcome.steps + finishing_steps
        self.delta_steps = delta_steps
        self.total_steps += delta_steps
        ordered = sorted(outcome.selected, key=lambda c: (-c.midpoint, repr(c.data)))
        new_selected = [c.data for c in ordered]
        previous = set(self.selected)
        current = set(new_selected)
        self.last_entered = [data for data in new_selected if data not in previous]
        self.last_left = sorted(
            (data for data in previous if data not in current), key=repr
        )
        self.selected = new_selected
        self.decided = outcome.decided
        relation = self._relation(
            (candidate.data, candidate.midpoint) for candidate in ordered
        )
        self.result = EvaluationResult(
            query_name=self.name,
            plan_style="dtree",
            relation=relation,
            signature=None,
            execution=self._execution,
            confidence=self.confidence,
            epsilon=None,
            bounds=outcome.bounds(),
            k=self.k,
            tau=self.tau,
            decided=outcome.decided,
            refine_steps=self.total_steps,
            delta_steps=delta_steps,
            degraded=outcome.degraded,
        )
        return self.result

    # -- crash-recoverable snapshots -----------------------------------------

    def export_state(self) -> dict:
        """The standing query's full state as a picklable dict.

        Shared mode exports the private cache (store segment + views, see
        :meth:`repro.prob.sharedag.SharedDTreeCache.export_state`) plus each
        candidate's root nid, so :meth:`from_state` restores a *warm*
        standing query whose next refresh re-confirms the decided set in
        0–few steps.  Legacy mode exports only the lineage and marginals —
        per-tuple object trees do not ship — and restores cold.
        """
        state = {
            "k": self.k,
            "tau": self.tau,
            "confidence": self.confidence,
            "max_steps": self.max_steps,
            "default_cap": self.default_cap,
            "shared_lineage": self.shared_lineage,
            "cache_nodes": self._cache_nodes,
            "schema": self._schema,
            "name": self.name,
            "execution": self._execution,
            "probabilities": dict(self.probabilities),
            "lineage": [
                (data, canonical_clauses(dnf)) for data, dnf in self.lineage.items()
            ],
            "selected": list(self.selected),
            "decided": self.decided,
            "total_steps": self.total_steps,
        }
        if self.shared_lineage:
            state["cache"] = self._cache.export_state()
        return state

    @classmethod
    def from_state(cls, state: dict) -> "StandingQuery":
        """Rebuild a standing query from :meth:`export_state`.

        Shared mode restores the warm store and re-admits every candidate
        through the cache — each admit is a view-table hit on the restored
        (possibly already closed) bounds — then runs one refresh to
        re-establish ``result``; on a snapshot of a decided query that
        refresh costs 0–few logical steps.  ``last_entered``/``last_left``
        track against the snapshotted selection, so an unchanged decided
        set reports no transitions across the restart.  Legacy mode falls
        back to the cold constructor (per-tuple trees are not shippable).
        Keys this version no longer reads, such as the refinement-lane
        count older snapshots carried, are ignored.
        """
        lineage = {
            tuple(data): dnf_from_canonical(clauses)
            for data, clauses in state["lineage"]
        }
        common = dict(
            k=state["k"],
            tau=state["tau"],
            confidence=state["confidence"],
            max_steps=state["max_steps"],
            default_cap=state["default_cap"],
            cache_nodes=state["cache_nodes"],
            schema=state["schema"],
            name=state["name"],
            execution=state["execution"],
        )
        if not state["shared_lineage"]:
            return cls(
                lineage, state["probabilities"], shared_lineage=False, **common
            )
        query = object.__new__(cls)
        query.k = common["k"]
        query.tau = common["tau"]
        query.confidence = common["confidence"]
        query.max_steps = common["max_steps"]
        query.default_cap = common["default_cap"]
        query.shared_lineage = True
        query.name = common["name"]
        query._schema = common["schema"]
        query._execution = common["execution"]
        query._cache = SharedDTreeCache.from_state(state["cache"])
        query._cache_nodes = common["cache_nodes"]
        query.probabilities = dict(state["probabilities"])
        query.lineage = {}
        query._candidates = {}
        query._views_by_root = {}
        query._stale_probabilities = False
        query.selected = [tuple(data) for data in state["selected"]]
        query.decided = state["decided"]
        query.last_entered = []
        query.last_left = []
        query.total_steps = state["total_steps"]
        query.delta_steps = 0
        query.result = None
        for data, dnf in lineage.items():
            query._admit(data, dnf)
        query.refresh()
        return query

    def _relation(self, items) -> Relation:
        if self._schema is not None:
            data_attributes = [a for a in self._schema if a.role is ColumnRole.DATA]
        else:
            arity = len(next(iter(self._candidates))) if self._candidates else 0
            data_attributes = [Attribute(f"c{i}") for i in range(arity)]
        schema = Schema(list(data_attributes) + [Attribute("conf", "float")])
        relation = Relation(self.name, schema)
        for data, confidence in items:
            relation.append(tuple(data) + (confidence,))
        return relation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        goal = f"k={self.k}" if self.k is not None else f"tau={self.tau}"
        return (
            f"StandingQuery({self.name!r}, {goal}, {len(self._candidates)} candidates, "
            f"{len(self.selected)} selected, steps={self.total_steps})"
        )
