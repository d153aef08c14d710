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
  :class:`repro.prob.sharedag.SharedDTreeCache`) — never the engine's,
  whose store is bound to the unmutated database probability space —
  holding one live view per candidate tuple;
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
directly from a lineage map for lineage-level monitoring.

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
from repro.prob.dtree import DEFAULT_MAX_STEPS, canonical_clauses, dnf_from_canonical
from repro.prob.formulas import DNF
from repro.prob.lineage import interned_dnf
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
    cache_nodes
        The node budget of the private hash-consed store the candidates are
        compiled into (the engine's ``dtree_cache_size``).
    schema / name
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
        cache_nodes: Optional[int] = DEFAULT_MAX_NODES,
        schema: Optional[Schema] = None,
        name: str = "standing",
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
        self.name = name
        self._schema = schema
        self._cache = SharedDTreeCache(max_nodes=cache_nodes)
        self._cache_nodes = cache_nodes
        self.probabilities: Dict[int, float] = dict(probabilities)
        self.lineage: Dict[DataTuple, DNF] = {}
        self._candidates: Dict[DataTuple, TupleCandidate] = {}
        #: Root nid → the candidate views rooted there, so a delta marks
        #: ``touched ∩ roots`` instead of scanning every candidate.
        self._views_by_root: Dict[int, List[SharedDTree]] = {}
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
        return self._cache.store

    def _admit(self, data: DataTuple, dnf: DNF) -> None:
        dnf = interned_dnf(dnf.clauses, self._cache.interner)
        self.lineage[data] = dnf
        tree = self._cache.get(dnf, self.probabilities)
        self._candidates[data] = TupleCandidate(data, tree=tree)
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
            # Views marked stale vs. frontiers measured at a peek.
            "frontier_marks": store.frontier_marks,
            "frontier_rebuilds": store.frontier_rebuilds,
        }

    # -- deltas --------------------------------------------------------------

    def update_probability(self, variable: int, probability: float) -> DeltaReport:
        """Move one marginal; delta-propagate and mark touched views stale.

        Re-seeds the store rows carrying ``variable``, repairs their
        ancestor closure in one multi-source pass, and marks stale exactly
        the views whose root lies in the touched closure (a marked view
        re-measures its frontier when a refresh next peeks at it, and never
        if none does) — a decided tuple whose lineage does not reach an
        updated node keeps its frontier and its decision.  Returns the
        store's :class:`~repro.prob.delta.DeltaReport`.  The new answer set
        materialises on the next :meth:`refresh`.
        """
        probability = float(probability)
        if not 0.0 <= probability <= 1.0:
            raise ProbabilityError(
                f"probability must be within [0, 1], got {probability}"
            )
        # An unknown variable is not recorded: updates must not grow the space.
        known = variable in self.probabilities
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
        views = self._views_by_root[candidate.tree.root]
        views.remove(candidate.tree)
        if not views:
            del self._views_by_root[candidate.tree.root]
        return self._store.retire_view(candidate.tree)

    # -- re-decide -----------------------------------------------------------

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

        It carries the private cache (store segment + views, see
        :meth:`repro.prob.sharedag.SharedDTreeCache.export_state`) beside the
        lineage and marginals, so :meth:`from_state` restores a *warm*
        standing query whose next refresh re-confirms the decided set in
        0–few steps.
        """
        return {
            "k": self.k,
            "tau": self.tau,
            "confidence": self.confidence,
            "max_steps": self.max_steps,
            "default_cap": self.default_cap,
            "cache_nodes": self._cache_nodes,
            "schema": self._schema,
            "name": self.name,
            "probabilities": dict(self.probabilities),
            "lineage": [
                (data, canonical_clauses(dnf)) for data, dnf in self.lineage.items()
            ],
            "selected": list(self.selected),
            "decided": self.decided,
            "total_steps": self.total_steps,
            "cache": self._cache.export_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "StandingQuery":
        """Rebuild a standing query from :meth:`export_state`.

        Restores the warm store and re-admits every candidate through the
        cache — each admit is a view-table hit on the restored (possibly
        already closed) bounds — then runs one refresh to re-establish
        ``result``; on a snapshot of a decided query that refresh costs
        0–few logical steps.  ``last_entered``/``last_left``
        track against the snapshotted selection, so an unchanged decided
        set reports no transitions across the restart.

        Older builds could also write the state of a per-tuple compile,
        which carries no ``"cache"``: such a state is compiled cold from its
        lineage and marginals into a new standing query, which decides the
        same set as a live one.  Keys this version no longer reads, such as
        the refinement-lane count or the execution backend older snapshots
        carried, are ignored.
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
        )
        if "cache" not in state:
            return cls(lineage, state["probabilities"], **common)
        query = object.__new__(cls)
        query.k = common["k"]
        query.tau = common["tau"]
        query.confidence = common["confidence"]
        query.max_steps = common["max_steps"]
        query.default_cap = common["default_cap"]
        query.name = common["name"]
        query._schema = common["schema"]
        query._cache = SharedDTreeCache.from_state(state["cache"])
        query._cache_nodes = common["cache_nodes"]
        query.probabilities = dict(state["probabilities"])
        query.lineage = {}
        query._candidates = {}
        query._views_by_root = {}
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
