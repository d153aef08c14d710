"""Bound-driven top-k and threshold evaluation (multi-tuple refinement).

The anytime d-tree compile (:mod:`repro.prob.sharedag`) brackets each answer
tuple's confidence with sound lower/upper bounds.  For top-k and
τ-threshold queries the final answer is a *set*, not a number — so instead of
refining every tuple to a uniform epsilon, the scheduler here interleaves
refinement *across* tuples and stops the moment the answer set is provably
decided:

* **top-k** is decided when the k tuples with the largest lower bounds all
  dominate everything else: ``min lower(selected) >= max upper(rest)``.  Until
  then the weakest selected tuple and the strongest excluded one form a
  *crossing pair*, and every non-exact bracket inside that contention window
  gates the cut (the multisimulation rule of Ré, Dalvi and Suciu, ICDE 2007,
  transplanted onto d-tree brackets);
* **threshold** is decided when no tuple's bracket straddles τ; until then
  the straddling tuples gate it.

Tuples whose confidence is already known exactly (safe sub-plans, closed
trees) participate with degenerate brackets and are never refined.  Because
every d-tree expansion tightens its bracket and a tree closes after finitely
many expansions, both loops terminate without any epsilon — the optional
``max_steps`` budget only guards against pathological lineage, reporting
``decided=False`` with the best partition so far instead of running away.

This scheduler refines gating tuples on live views (and is what
:class:`repro.sprout.engine.SproutEngine` runs, reusing the engine's lineage
cache across calls).  The candidates are
:class:`repro.prob.sharedag.SharedDTree` views over one hash-consed store,
and each grant runs a refinement round over the shared nodes with the
largest bound-width mass summed over *all* tuples gating the decision
(:meth:`repro.prob.sharedag.SharedLineageStore.refine_round`).  One logical
step can tighten many brackets at once, so decisions take fewer steps on
overlapping lineage than refining each tuple alone would.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import nlargest
from typing import Dict, List, Optional, Tuple

from repro.deadline import Deadline
from repro.deadline import expired as _deadline_expired
from repro.errors import ApproximationBudgetError, PlanningError
from repro.prob.dtree import refine_to_budget
from repro.prob.sharedag import SharedDTree, SharedLineageStore

__all__ = [
    "TupleCandidate",
    "SchedulerOutcome",
    "RefinementScheduler",
    "finish_selected",
    "run_decision",
]

DataTuple = Tuple[object, ...]

#: Expansions granted between re-rankings.  Grants target the globally most
#: valuable shared node, so they need frequent re-ranking — but once per
#: expansion would make the O(n log k) ranking pass the dominant cost on
#: large candidate sets.  A small batch keeps the step frugality while
#: amortising the ranking.
DEFAULT_SHARED_CHUNK = 4


class TupleCandidate:
    """One answer tuple competing for the result set.

    Backed either by an exact confidence (``value``) — a degenerate bracket
    that never refines — or by a live, resumable
    :class:`repro.prob.sharedag.SharedDTree` view whose current root bounds
    are the bracket.
    """

    __slots__ = ("data", "tree", "value")

    def __init__(
        self,
        data: DataTuple,
        tree: Optional[SharedDTree] = None,
        value: Optional[float] = None,
    ):
        if (tree is None) == (value is None):
            raise PlanningError(
                "a candidate needs exactly one of a d-tree or an exact value"
            )
        self.data = data
        self.tree = tree
        self.value = value

    @property
    def lower(self) -> float:
        return self.value if self.tree is None else self.tree.lower

    @property
    def upper(self) -> float:
        return self.value if self.tree is None else self.tree.upper

    @property
    def gap(self) -> float:
        return 0.0 if self.tree is None else self.tree.gap

    @property
    def exact(self) -> bool:
        return self.tree is None or self.tree.is_exact or self.tree.gap <= 0.0

    @property
    def midpoint(self) -> float:
        return self.value if self.tree is None else 0.5 * (self.lower + self.upper)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TupleCandidate({self.data!r}, [{self.lower:.4f}, {self.upper:.4f}])"


@dataclass
class SchedulerOutcome:
    """The decided (or budget-capped) answer set with its evidence."""

    #: Tuples in the answer set, most probable first (by current midpoint).
    selected: List[TupleCandidate]
    #: Every candidate, selected or not, with its final bracket.
    candidates: List[TupleCandidate]
    #: True when the answer set is provably correct; False when the
    #: ``max_steps`` budget or a wall-clock deadline ran out first.
    decided: bool
    #: Total d-tree expansions spent by the scheduler.
    steps: int = 0
    #: ``None`` for a full-fidelity answer; ``"deadline"`` when refinement
    #: stopped at a wall-clock deadline (anytime degradation: the bounds are
    #: still sound, only the stopping point moved).  Budget exhaustion keeps
    #: ``None`` — it is step-metered and therefore deterministic.
    degraded: Optional[str] = None

    def bounds(self) -> Dict[DataTuple, Tuple[float, float]]:
        return {c.data: (c.lower, c.upper) for c in self.candidates}


class RefinementScheduler:
    """Interleave d-tree refinement across candidate tuples.

    Parameters
    ----------
    candidates
        The competing :class:`TupleCandidate`\\ s — exact values and live,
        resumable views may be mixed freely.
    store
        The :class:`repro.prob.sharedag.SharedLineageStore` backing the
        candidates' views.  Each grant runs a refinement *round* over the
        shared nodes with the largest bound-width mass summed over the
        gating tuples — and every expansion is counted as one logical step
        no matter how many tuples it tightens.
    max_steps
        Optional total expansion budget across all tuples.  ``None`` refines
        until the answer set is decided, which always terminates because
        every tree closes after finitely many expansions; a finite budget
        that runs out yields ``decided=False`` with the best partition so
        far — never an exception.
    deadline
        Optional wall-clock :class:`repro.deadline.Deadline`, checked at the
        top of each decision loop and between refinement rounds —
        never inside a round, so the refinement *trajectory* stays the
        deterministic one and only the stopping point along it depends on
        the clock.  Expiry yields ``decided=False`` with
        ``degraded="deadline"`` and the current sound bounds.

    :meth:`run_topk` and :meth:`run_threshold` return a
    :class:`SchedulerOutcome`; both raise
    :class:`repro.errors.PlanningError` for invalid ``k``/``tau``.  Ties at
    the decision boundary resolve on the data tuple's ``repr``, so the
    selected set is identical no matter what order the candidates arrived in
    (row vs. batch pipelines).
    """

    def __init__(
        self,
        candidates: List[TupleCandidate],
        store: SharedLineageStore,
        max_steps: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ):
        if max_steps is not None and max_steps < 0:
            raise PlanningError(f"max_steps must be non-negative, got {max_steps}")
        self.candidates = list(candidates)
        self.max_steps = max_steps
        self.store = store
        self.deadline = deadline
        self.steps = 0
        # Rank tiebreak on the data tuple's repr, precomputed once as a
        # numeric index: candidate *order* differs between the row and batch
        # pipelines, so a value-based key is the only way exact ties at the
        # k-boundary resolve to the same set under every backend.  Smaller
        # index = earlier repr = preferred on ties.
        by_repr = sorted(self.candidates, key=lambda c: repr(c.data))
        self._rank = {id(c): index for index, c in enumerate(by_repr)}

    # -- shared plumbing ----------------------------------------------------

    def _grant(self, gating: List[TupleCandidate]) -> int:
        """One shared refinement round for the gating set.

        Each expansion targets a node among those with the largest summed
        frontier value across the gating views — "bound-width mass over the
        tuples it gates" — so a clause block recurring under many candidates
        is refined once *for all of them*.  Up to :data:`DEFAULT_SHARED_CHUNK`
        expansions run as one planned round between re-rankings (batched
        bound propagation): frequent re-checks keep the step count near-minimal without paying
        the full ranking pass on every single expansion.  Returns the steps
        performed (0 only when no gating view has an open frontier left).
        """
        views = [c.tree for c in gating if c.tree is not None]
        if not views:
            return 0
        budget = DEFAULT_SHARED_CHUNK
        if self.max_steps is not None:
            budget = min(budget, self.max_steps - self.steps)
        performed = 0
        while performed < budget:
            # Deadline check sits *between* rounds: a round is the atomic
            # unit of the bit-identity contract, so the clock only picks a
            # stopping point along the deterministic trajectory.
            if _deadline_expired(self.deadline):
                break
            advanced = self.store.refine_round(views, budget - performed, self.deadline)
            if advanced == 0:
                break
            performed += advanced
        self.steps += performed
        return performed

    def _exhausted(self) -> bool:
        return self.max_steps is not None and self.steps >= self.max_steps

    def _outcome(
        self,
        selected: List[TupleCandidate],
        decided: bool,
        degraded: Optional[str] = None,
    ) -> SchedulerOutcome:
        ordered = sorted(
            selected, key=lambda c: (-c.midpoint, repr(c.data))
        )
        return SchedulerOutcome(
            selected=ordered,
            candidates=list(self.candidates),
            decided=decided,
            steps=self.steps,
            degraded=degraded,
        )

    def _expired(self) -> bool:
        return _deadline_expired(self.deadline)

    # -- top-k --------------------------------------------------------------

    def run_topk(self, k: int) -> SchedulerOutcome:
        """Decide the k most probable tuples, refining only what gates the cut.

        Not decided means there is a *crossing pair*: the weakest tuple inside
        the provisional selection (smallest lower bound) and the strongest
        outside it (largest upper bound) overlap.  Every non-exact bracket
        overlapping that contention window gates the cut and joins the grant.
        """
        if k < 1:
            raise PlanningError(f"k must be positive, got {k}")
        if k >= len(self.candidates):
            return self._outcome(list(self.candidates), True)
        rank = self._rank

        def key(c: TupleCandidate) -> Tuple[float, float, int]:
            # nlargest prefers larger keys; negating the rank index makes
            # ties fall to the candidate with the earlier repr.
            return (c.lower, c.upper, -rank[id(c)])

        while True:
            selected = nlargest(k, self.candidates, key=key)
            chosen = {id(c) for c in selected}
            rest = [c for c in self.candidates if id(c) not in chosen]
            weakest = min(selected, key=lambda c: c.lower)
            strongest = max(rest, key=lambda c: (c.upper, -rank[id(c)]))
            if weakest.lower >= strongest.upper:
                return self._outcome(selected, True)
            if self._expired():
                return self._outcome(selected, False, degraded="deadline")
            if self._exhausted():
                return self._outcome(selected, False)
            # Every non-exact bracket overlapping the contention window
            # [weakest.lower, strongest.upper] gates the cut; expand the
            # shared nodes those tuples value most.
            gating = [c for c in selected if not c.exact and c.lower < strongest.upper]
            gating += [c for c in rest if not c.exact and c.upper > weakest.lower]
            if not gating or self._grant(gating) == 0:
                if self._expired():
                    return self._outcome(selected, False, degraded="deadline")
                # Nothing refinable gates the decision: bail rather than spin.
                return self._outcome(selected, False)

    # -- threshold ----------------------------------------------------------

    def run_threshold(self, tau: float) -> SchedulerOutcome:
        """Partition candidates into confidence ``>= tau`` and ``< tau``.

        A candidate is decided-in once its lower bound reaches τ and
        decided-out once its upper bound drops below τ; the straddling
        candidates gate the grant.  An exact candidate
        sitting precisely on τ counts as *in* (the answer is ``conf >= τ``).
        """
        if not 0.0 <= tau <= 1.0:
            raise PlanningError(f"tau must be within [0, 1], got {tau}")
        while True:
            # A straddling bracket has lower < tau <= upper, hence a positive
            # gap: exact candidates are always on one side of the cut.
            straddling = [c for c in self.candidates if c.lower < tau <= c.upper]
            if not straddling:
                selected = [c for c in self.candidates if c.lower >= tau]
                return self._outcome(selected, True)
            if self._expired():
                selected = [c for c in self.candidates if c.lower >= tau]
                return self._outcome(selected, False, degraded="deadline")
            if self._exhausted():
                selected = [c for c in self.candidates if c.lower >= tau]
                return self._outcome(selected, False)
            if self._grant(straddling) == 0:
                selected = [c for c in self.candidates if c.lower >= tau]
                if self._expired():
                    return self._outcome(selected, False, degraded="deadline")
                return self._outcome(selected, False)


def run_decision(
    candidates: List[TupleCandidate],
    k: Optional[int],
    tau: Optional[float],
    confidence: str,
    max_steps: Optional[int],
    default_cap: Optional[int],
    store: SharedLineageStore,
    deadline: Optional[Deadline] = None,
) -> Tuple[SchedulerOutcome, int]:
    """One complete bound-driven decision: schedule, decide, finish exact.

    The single decision routine shared by the engine's top-k/threshold route
    and standing-query refreshes (:mod:`repro.sprout.streaming`).

    Runs :class:`RefinementScheduler` over ``candidates`` (top-k when ``k``
    is given, threshold otherwise) and, in exact confidence mode, refines
    every selected candidate to closure.  With ``max_steps=None`` each
    selected tuple gets the engine-default per-tuple ``default_cap`` and
    exhaustion raises :class:`repro.errors.ApproximationBudgetError`; an
    explicit ``max_steps`` instead caps the whole call (leftover after the
    decision, shared sequentially across tuples) and is reported, never
    raised.  Returns ``(outcome, finishing_steps)``.

    An empty candidate set — a standing query whose last tuple was deleted,
    a query with no answers — is decided trivially: an empty selection in
    zero steps, for both top-k and threshold.  Guarded here (not just in the
    scheduler) so every caller of the single decision routine shares it.

    The whole decision runs *pinned* on ``store``
    (:meth:`repro.prob.sharedag.SharedLineageStore.pinned`): a node-budget
    epoch reset triggered mid-decision is deferred until the decision
    finishes, which keeps interleaved requests over one store (the query
    service) bit-identical to running them serially.

    ``deadline`` bounds the wall-clock spent: checked between rounds in the
    scheduler and between candidates in exact finishing, expiry returns the
    current sound bounds with ``decided=False`` / ``degraded="deadline"``
    instead of raising (anytime degradation).
    """
    if not candidates:
        return SchedulerOutcome(selected=[], candidates=[], decided=True, steps=0), 0
    with store.pinned():
        scheduler = RefinementScheduler(
            candidates,
            store,
            max_steps=default_cap if max_steps is None else max_steps,
            deadline=deadline,
        )
        outcome = scheduler.run_topk(k) if k is not None else scheduler.run_threshold(tau)
        finishing_steps = finish_selected(
            outcome.selected, confidence, max_steps, outcome.steps, default_cap,
            deadline=deadline,
        )
        if (
            confidence == "exact"
            and outcome.degraded is None
            and _deadline_expired(deadline)
            and any(not c.exact for c in outcome.selected)
        ):
            # Exact finishing hit the deadline: the decision stands but some
            # reported confidences are still brackets, so the payload must say so.
            outcome.degraded = "deadline"
    return outcome, finishing_steps


def finish_selected(
    selected: List[TupleCandidate],
    confidence: str,
    max_steps: Optional[int],
    spent_steps: int,
    default_cap: Optional[int],
    deadline: Optional[Deadline] = None,
) -> int:
    """Exact-mode finishing: refine each selected candidate to closure.

    The decision needed only bounds; exact mode still reports exact
    confidences for the tuples it returns (and only for those).  Factored
    out of :func:`run_decision` so the streaming re-decide path
    (:mod:`repro.sprout.streaming`) finishes its selected set with the very
    same budget arithmetic as the one-shot engine routes: with
    ``max_steps=None`` each tuple gets the per-tuple ``default_cap`` and
    exhaustion raises :class:`repro.errors.ApproximationBudgetError`; an
    explicit ``max_steps`` shares the leftover after the ``spent_steps``
    already charged, sequentially across tuples, and is reported, never
    raised.  Returns the expansions performed; a no-op outside exact mode.

    ``deadline`` is honoured between candidates (never inside one tuple's
    closure run would be wrong — closure is not round-structured, so the
    boundary here is the candidate): expiry stops finishing early and the
    caller reports ``degraded="deadline"`` for the still-bracketed tuples.
    """
    if confidence != "exact":
        return 0
    finishing_budget = None if max_steps is None else max(0, max_steps - spent_steps)
    finishing_steps = 0
    for candidate in selected:
        if candidate.tree is None or candidate.exact:
            continue
        if _deadline_expired(deadline):
            break
        if finishing_budget is None:
            remaining = default_cap
        else:
            remaining = finishing_budget - finishing_steps
        try:
            result = refine_to_budget(candidate.tree, epsilon=0.0, max_steps=remaining)
            finishing_steps += result.steps
        except ApproximationBudgetError as error:
            finishing_steps += error.steps
            if max_steps is None:
                raise
            break  # explicit cap: report the midpoints we have
    return finishing_steps
