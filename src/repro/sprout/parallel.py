"""Parallel confidence computation: partition answer tuples across cores.

Confidence computation dominates probabilistic query answering (Section VII of
the paper), and after the d-tree engine made every per-tuple computation
resumable and independently seeded, the remaining cost is embarrassingly
parallel: each answer tuple's DNF lineage is an independent work unit.  This
module supplies the machinery the engine uses to spread that work across
worker processes:

* :class:`ConfidenceTask` / :class:`TaskOutcome` — picklable work units.  A
  task carries a tuple's lineage in order-canonical clause form
  (:func:`repro.prob.dtree.canonical_clauses`), the probabilities of exactly
  the variables it mentions, and either an epsilon budget (plain evaluation)
  or a *cumulative step target* (round-based top-k/threshold refinement).
* :class:`ConfidenceExecutor` — the backend abstraction.
  :class:`SerialExecutor` runs tasks in-process; :class:`ProcessExecutor`
  ships them to a ``concurrent.futures`` process pool.  Both call the very
  same :func:`execute_task`, which is what makes every backend produce
  bit-identical results.
* :func:`compute_confidences` — the driver for plain evaluation: one task
  per distinct answer tuple, fanned out and merged back into
  :class:`repro.prob.dtree.ApproxResult` form — or, handed the engine's
  shared cache instead of an executor, the same per-tuple routine
  (:func:`budget_confidence`) on views of the one store, in-process.
* :class:`ParallelRefinementScheduler` — round-based multi-tuple refinement
  for top-k/threshold queries: each round picks a *frontier batch* of gating
  tuples (the generalisation of the serial scheduler's crossing pair),
  refines them concurrently, then re-decides.

Determinism contract
--------------------

Results are identical for every worker count because nothing a worker
computes depends on *where* or *when* it runs:

1. d-tree leaf expansion order is deterministic, so "the bounds after ``T``
   cumulative expansions" is a pure function of the lineage — a warm worker
   pays only the step difference, a cold worker rebuilds and pays the full
   count, and both report the same bracket (:meth:`DTree.refine_to_target`).
2. Epsilon-budget tasks always compile a fresh, isolated tree (own memo), so
   the stopping bracket cannot depend on which other tuples a process
   happened to evaluate earlier.  This describes the executor routes only;
   the in-process shared route deliberately keeps what it refined.
3. The Karp–Luby fallback seed is derived per tuple from the engine seed and
   the tuple's canonical lineage (:func:`derive_task_seed`), not drawn from a
   shared generator, so the estimate is independent of scheduling order.
4. The frontier size and per-round step grants are fixed by the algorithm
   (never by the worker count), so the refinement schedule — and therefore
   every reported bound — is identical under any parallelism.

Worker failures never hang the driver: a task that raises inside a worker
comes back as a structured payload and a worker process that dies outright
surfaces as :class:`repro.errors.ParallelExecutionError` (the broken pool is
discarded; the next call starts a fresh one).

See ``docs/parallelism.md`` for the user-facing guide.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import traceback
from dataclasses import dataclass
from heapq import nlargest
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import (
    ApproximationBudgetError,
    InjectedFault,
    ParallelExecutionError,
    PlanningError,
    ProbabilityError,
)
from repro.faults import fault_point
from repro.prob.dtree import (
    DEFAULT_MAX_STEPS,
    ApproxResult,
    CanonicalClauses,
    DTree,
    canonical_clauses,
    dnf_from_canonical,
    karp_luby_probability,
    refine_to_budget,
)
from repro.prob.formulas import DNF
from repro.prob.lineage import dtrees_from_dnfs
from repro.prob.sharedag import (
    DEFAULT_MAX_NODES,
    SharedDTree,
    SharedDTreeCache,
    SharedLineageStore,
)
from repro.sprout.topk import DEFAULT_CHUNK, TupleCandidate, run_decision

__all__ = [
    "ConfidenceTask",
    "TaskOutcome",
    "ConfidenceExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "ParallelCandidate",
    "ParallelOutcome",
    "ParallelRefinementScheduler",
    "RefinementLanePool",
    "SupervisedExecutor",
    "SupervisedLanePool",
    "SharedRunTask",
    "SharedRunOutcome",
    "budget_confidence",
    "compute_confidences",
    "confidence_tasks",
    "derive_task_seed",
    "execute_shared_run",
    "finish_exact",
    "partition_tasks",
    "run_shared_scheduled",
]

DataTuple = Tuple[object, ...]

#: Upper bound on gating tuples refined concurrently per scheduling round.
#: Fixed by the algorithm — *not* scaled with the worker count — so that the
#: refinement schedule, and with it every reported bound, is identical under
#: any parallelism.  Values beyond the low tens overshoot the decision.
DEFAULT_FRONTIER = 8

#: Tasks are grouped into ``workers * OVERPARTITION`` contiguous partitions so
#: stragglers (tuples with heavy lineage) can be balanced across the pool
#: while per-task IPC overhead stays amortised.
OVERPARTITION = 4


class RefinementLanePool:
    """N data-parallel lanes for the compute phase of shared refinement rounds.

    The lane half of the multi-lane refinement machinery
    (:meth:`repro.prob.sharedag.SharedLineageStore.refine_round`): a round's
    *plan* — which leaves to expand, in which commit order — is fixed under
    the store lock before any lane runs, and only the pure per-leaf cofactor
    computation is fanned out here.  Each lane owns a disjoint strided slice
    of the planned leaves (lane ``i`` computes plan entries ``i``, ``i+N``,
    ``i+2N``, ...), results are reassembled into plan order, and the serial
    commit phase consumes them exactly as the inline (``lanes=0``) schedule
    would have produced them — which is why lane count never shows up in
    decided sets, bounds, or step counts.

    Lanes are threads (`concurrent.futures.ThreadPoolExecutor`): the compute
    phase never touches the node table, so there is nothing to lock, and the
    DNF cofactor work releases no state a process pool would need shipped.
    The pool is reusable across rounds and decisions; :meth:`close` shuts the
    threads down (the engine does this from ``SproutEngine.close()``).
    """

    def __init__(self, lanes: int):
        if lanes < 1:
            raise PlanningError(f"refinement lanes must be positive, got {lanes}")
        from concurrent.futures import ThreadPoolExecutor

        self.lanes = lanes
        self._executor = ThreadPoolExecutor(
            max_workers=lanes, thread_name_prefix="repro-refine-lane"
        )

    def map(self, fn, items: Sequence) -> List:
        """Apply ``fn`` over ``items``, preserving order; lanes own strided slices."""
        items = list(items)
        if len(items) <= 1:
            # A single planned expansion (or none) has no parallelism to
            # exploit; skip the executor round trip.
            return [fn(item) for item in items]
        lanes = min(self.lanes, len(items))

        def lane_worker(offset: int) -> List:
            return [fn(item) for item in items[offset::lanes]]

        out: List = [None] * len(items)
        for offset, results in enumerate(self._executor.map(lane_worker, range(lanes))):
            for position, value in enumerate(results):
                out[offset + lanes * position] = value
        return out

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "RefinementLanePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SupervisedLanePool:
    """A :class:`RefinementLanePool` under supervision: respawn, then degrade.

    The engine's lane pool is long-lived — threads can die (an injected
    fault in the chaos battery; interpreter shutdown races in production) and
    a dead executor would otherwise raise out of every subsequent decision.
    Supervision exploits the PR 9 contract: the compute phase a pool runs is
    *pure* (cofactors only, no table mutation) and the round plan is frozen
    before any lane runs, so a failed ``map`` can simply be retried — on a
    fresh pool after a respawn, or inline on the calling thread after the
    respawn budget is spent — and the results are bit-identical either way.

    ``respawns`` counts pools replaced; ``fallbacks`` counts rounds computed
    inline because the pool was declared broken.  Both surface through
    ``SproutEngine.cache_stats()`` and the service's ``/stats``.
    """

    def __init__(self, lanes: int, max_respawns: int = 2):
        self.lanes = lanes
        self.max_respawns = max_respawns
        self._pool: Optional[RefinementLanePool] = RefinementLanePool(lanes)
        self._broken = False
        self.respawns = 0
        self.fallbacks = 0

    def map(self, fn, items: Sequence) -> List:
        if self._broken or self._pool is None:
            self.fallbacks += 1
            return [fn(item) for item in items]
        while True:
            try:
                fault_point("lane_pool.submit")
                return self._pool.map(fn, items)
            except Exception:
                self._discard_pool()
                if self.respawns >= self.max_respawns:
                    # Repeatedly broken: degrade to inline (lanes=0) compute
                    # for the rest of this pool's life.  Same results, by
                    # contract; only wall-clock changes.
                    self._broken = True
                    self.fallbacks += 1
                    return [fn(item) for item in items]
                self.respawns += 1
                self._pool = RefinementLanePool(self.lanes)

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.close()
            except Exception:  # pragma: no cover - defensive teardown
                pass

    def close(self) -> None:
        self._discard_pool()

    def __enter__(self) -> "SupervisedLanePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def derive_task_seed(
    base_seed: Optional[int], clauses: CanonicalClauses
) -> Optional[int]:
    """A per-tuple Monte Carlo seed, stable across processes and worker counts.

    Hashes the engine-level ``base_seed`` together with the tuple's canonical
    lineage, so every tuple draws from its own reproducible stream no matter
    which worker (or how many workers) evaluate it.  ``None`` stays ``None``
    — the engine's "fresh entropy" mode — in which case run-to-run
    reproducibility is forfeited by request.
    """
    if base_seed is None:
        return None
    digest = hashlib.sha256(str(int(base_seed)).encode("ascii"))
    for clause in clauses:
        digest.update(b"|")
        digest.update(",".join(map(str, clause)).encode("ascii"))
    return int.from_bytes(digest.digest()[:8], "big")


def budget_confidence(
    tree,
    dnf: DNF,
    probabilities: Mapping[int, float],
    *,
    epsilon: float,
    relative: bool,
    max_steps: Optional[int],
    monte_carlo_samples: Optional[int],
    base_seed: Optional[int],
) -> ApproxResult:
    """One tuple of plain evaluation, on whichever tree holds its lineage.

    ``tree`` is a fresh :class:`DTree` (the executor routes) or a view of the
    engine's shared store (the in-process default): it is refined until the
    ``epsilon`` budget is met, at most ``max_steps`` expansions in this call,
    and the result's ``steps`` are this call's.  When the cap runs out first
    the Karp–Luby estimate (``monte_carlo_samples`` draws, seeded by
    :func:`derive_task_seed`) clamped into the sound bracket is the point
    estimate; with sampling disabled the
    :class:`repro.errors.ApproximationBudgetError` propagates.
    """
    try:
        return refine_to_budget(
            tree, epsilon=epsilon, relative=relative, max_steps=max_steps
        )
    except ApproximationBudgetError as error:
        if monte_carlo_samples is None:
            raise
        clauses = canonical_clauses(dnf)
        estimator = karp_luby_probability(
            dnf_from_canonical(clauses),
            probabilities,
            samples=monte_carlo_samples,
            rng=random.Random(derive_task_seed(base_seed, clauses)),
        )
        return ApproxResult(
            probability=min(max(estimator.estimate, error.lower), error.upper),
            lower=error.lower,
            upper=error.upper,
            steps=error.steps,
            exact=False,
        )


# ---------------------------------------------------------------------------
# work units
# ---------------------------------------------------------------------------


class ConfidenceTask:
    """One picklable unit of confidence work: a single tuple's lineage.

    Exactly one of two modes applies:

    * **budget mode** (``target_steps is None``) — compile a fresh, isolated
      d-tree and refine until the ``epsilon`` budget is met (``epsilon=0``
      compiles to exactness), capped at ``max_steps`` expansions.  On cap
      exhaustion the Karp–Luby estimator (``monte_carlo_samples`` draws;
      ``seed`` is the engine's, from which :func:`derive_task_seed` derives
      this tuple's only when it is needed) supplies the point estimate, or
      — when sampling is disabled — a structured budget payload is returned
      for the driver to re-raise.
    * **target mode** (``target_steps`` set) — refine the tuple's d-tree to
      a *cumulative* expansion count.  Workers cache trees per ``run_id`` so
      successive rounds of the same scheduler run resume instead of
      rebuilding; the reported bracket is warmth-independent (see the module
      determinism contract).

    ``probabilities`` must cover exactly the variables in ``clauses`` (keep
    the pickled payload proportional to the lineage, not the database).
    A ``__slots__`` class rather than a dataclass: schedulers build one per
    candidate per round, so the per-instance dict is measurable overhead.
    """

    __slots__ = (
        "key",
        "clauses",
        "probabilities",
        "epsilon",
        "relative",
        "max_steps",
        "monte_carlo_samples",
        "seed",
        "target_steps",
        "run_id",
    )

    def __init__(
        self,
        key: int,
        clauses: CanonicalClauses,
        probabilities: Dict[int, float],
        epsilon: float = 0.0,
        relative: bool = False,
        max_steps: Optional[int] = DEFAULT_MAX_STEPS,
        monte_carlo_samples: Optional[int] = None,
        seed: Optional[int] = None,
        target_steps: Optional[int] = None,
        run_id: Optional[int] = None,
    ):
        self.key = key
        self.clauses = clauses
        self.probabilities = probabilities
        self.epsilon = epsilon
        self.relative = relative
        self.max_steps = max_steps
        self.monte_carlo_samples = monte_carlo_samples
        self.seed = seed
        self.target_steps = target_steps
        self.run_id = run_id


class TaskOutcome:
    """What came back for one :class:`ConfidenceTask`.

    ``kind`` is ``"ok"`` (bounds/probability valid), ``"budget"`` (the step
    cap was exhausted without meeting the epsilon budget and no Monte Carlo
    fallback was allowed; the bracket is still sound), or ``"error"`` (the
    task raised inside the worker; ``error`` carries the remote traceback).
    ``steps`` is the tree's cumulative expansion count after the task —
    placement-independent, and what the round-based scheduler meters budgets
    against (as before/after deltas).  ``performed`` is the expansion count
    this task physically executed: for budget-mode tasks (always fresh trees)
    it is deterministic and reported as the result's step cost, but in
    target mode it depends on whether the executing worker held a warm tree,
    so it is *not* used for any decision.
    """

    __slots__ = (
        "key",
        "kind",
        "lower",
        "upper",
        "probability",
        "steps",
        "performed",
        "exact",
        "error",
    )

    def __init__(
        self,
        key: int,
        kind: str = "ok",
        lower: float = 0.0,
        upper: float = 1.0,
        probability: float = 0.0,
        steps: int = 0,
        performed: int = 0,
        exact: bool = False,
        error: Optional[str] = None,
    ):
        self.key = key
        self.kind = kind
        self.lower = lower
        self.upper = upper
        self.probability = probability
        self.steps = steps
        self.performed = performed
        self.exact = exact
        self.error = error


class SharedRunTask:
    """A whole top-k/threshold refinement run over a shipped store segment.

    Shared-lineage refinement is inherently sequential — every grant targets
    the *globally* most valuable node across all gating tuples — so instead
    of fanning per-tuple trees across the pool, the driver compiles the
    run's lineage into one columnar store, exports it as a segment
    (:meth:`repro.prob.sharedag.SharedLineageStore.export_segment`), and
    ships the whole decision to a single worker.  ``views`` holds one root
    nid per distinct lineage DNF (serial view aliasing: equal clause sets
    share one frontier) and ``candidates`` maps each answer tuple to its
    view index, in the exact order the serial route builds them — which is
    what makes the worker's decision bit-identical to ``workers=0``.
    """

    __slots__ = (
        "key",
        "segment",
        "views",
        "candidates",
        "k",
        "tau",
        "confidence",
        "max_steps",
        "default_cap",
        "refine_lanes",
    )

    def __init__(
        self,
        segment: dict,
        views: Sequence[int],
        candidates: Sequence[Tuple[DataTuple, int]],
        k: Optional[int],
        tau: Optional[float],
        confidence: str,
        max_steps: Optional[int],
        default_cap: Optional[int],
        key: int = 0,
        refine_lanes: int = 0,
    ):
        self.key = key
        self.segment = segment
        self.views = list(views)
        self.candidates = list(candidates)
        self.k = k
        self.tau = tau
        self.confidence = confidence
        self.max_steps = max_steps
        self.default_cap = default_cap
        self.refine_lanes = refine_lanes


class SharedRunOutcome:
    """What came back for one :class:`SharedRunTask`.

    ``kind`` is ``"ok"``, ``"budget"`` (exact-mode finishing exhausted the
    engine-default per-tuple cap; the driver re-raises
    :class:`repro.errors.ApproximationBudgetError` with the shipped
    bracket), or ``"error"`` (via the generic partition wrapper).
    ``bounds`` carries ``(lower, upper, exact)`` per candidate in task
    order; ``selected`` indexes into that order, most probable first.
    """

    __slots__ = (
        "key",
        "kind",
        "selected",
        "bounds",
        "decided",
        "steps",
        "finishing_steps",
        "budget_lower",
        "budget_upper",
        "budget_steps",
        "error",
    )

    def __init__(
        self,
        key: int,
        kind: str = "ok",
        selected: Optional[List[int]] = None,
        bounds: Optional[List[Tuple[float, float, bool]]] = None,
        decided: bool = False,
        steps: int = 0,
        finishing_steps: int = 0,
        budget_lower: float = 0.0,
        budget_upper: float = 1.0,
        budget_steps: int = 0,
        error: Optional[str] = None,
    ):
        self.key = key
        self.kind = kind
        self.selected = selected if selected is not None else []
        self.bounds = bounds if bounds is not None else []
        self.decided = decided
        self.steps = steps
        self.finishing_steps = finishing_steps
        self.budget_lower = budget_lower
        self.budget_upper = budget_upper
        self.budget_steps = budget_steps
        self.error = error


# ---------------------------------------------------------------------------
# worker-side execution (shared verbatim by the serial and process backends)
# ---------------------------------------------------------------------------

#: Per-process d-tree cache for *target-mode* tasks: one scheduler run's
#: rounds keep revisiting the same candidates, and a warm tree pays only the
#: step difference.  Keyed by the task key (candidate identity — two
#: candidates that happen to share identical lineage must NOT alias one tree,
#: or a warm worker would hand one of them bounds refined past its granted
#: target); cleared whenever a task from a newer run arrives, so results
#: never depend on earlier runs' warmth.
_TREE_CACHE: Dict[int, DTree] = {}
_TREE_CACHE_RUN: Optional[int] = None
_TREE_CACHE_LIMIT = 4096


def _cached_tree(task: ConfidenceTask) -> DTree:
    global _TREE_CACHE_RUN
    if task.run_id != _TREE_CACHE_RUN:
        _TREE_CACHE.clear()
        _TREE_CACHE_RUN = task.run_id
    tree = _TREE_CACHE.get(task.key)
    if tree is None:
        tree = DTree(dnf_from_canonical(task.clauses), task.probabilities)
        _TREE_CACHE[task.key] = tree
        while len(_TREE_CACHE) > _TREE_CACHE_LIMIT:
            _TREE_CACHE.pop(next(iter(_TREE_CACHE)))
    return tree


def execute_shared_run(task: SharedRunTask) -> SharedRunOutcome:
    """Run one whole shared-lineage decision (in whichever process this is).

    Rebuilds the store from the shipped segment, re-creates one view per
    root nid (:meth:`repro.prob.sharedag.SharedDTree.from_root` — the
    frontier is a pure function of the table state, so it matches what the
    driver's in-process views held), and runs the very same
    :func:`repro.sprout.topk.run_decision` routine the serial engine route
    runs.  Same code, same store state, same candidate order — hence
    bit-identical decided sets, confidences, and step counts.
    """
    store = SharedLineageStore.from_segment(task.segment)
    views = [SharedDTree.from_root(store, root) for root in task.views]
    candidates = [
        TupleCandidate(data, tree=views[index]) for data, index in task.candidates
    ]
    # Lanes nest inside workers: the shipped decision may itself fan its
    # rounds' cofactor computation across a short-lived lane pool.  The
    # round schedule is planned before any lane runs, so the worker stays
    # bit-identical to the driver whatever ``refine_lanes`` says.
    lane_pool = (
        RefinementLanePool(task.refine_lanes) if task.refine_lanes > 0 else None
    )
    try:
        outcome, finishing_steps = run_decision(
            candidates,
            task.k,
            task.tau,
            task.confidence,
            task.max_steps,
            task.default_cap,
            store=store,
            lane_pool=lane_pool,
        )
    except ApproximationBudgetError as error:
        return SharedRunOutcome(
            key=task.key,
            kind="budget",
            budget_lower=error.lower,
            budget_upper=error.upper,
            budget_steps=error.steps,
        )
    finally:
        if lane_pool is not None:
            lane_pool.close()
    index_of = {id(candidate): index for index, candidate in enumerate(candidates)}
    return SharedRunOutcome(
        key=task.key,
        selected=[index_of[id(candidate)] for candidate in outcome.selected],
        bounds=[(c.lower, c.upper, c.exact) for c in candidates],
        decided=outcome.decided,
        steps=outcome.steps,
        finishing_steps=finishing_steps,
    )


def execute_task(task: ConfidenceTask) -> "TaskOutcome":
    """Run one task to completion (in whichever process this is).

    :class:`SharedRunTask` work units dispatch to
    :func:`execute_shared_run` (returning a :class:`SharedRunOutcome`);
    everything below handles the per-tuple :class:`ConfidenceTask` modes.
    Budget mode compiles a fresh, isolated tree per task and leaves nothing
    behind — the pool route (``workers >= 1``) and ``shared_lineage=False``;
    the default engine's ``evaluate`` instead hands :func:`compute_confidences`
    its shared cache, and the same :func:`budget_confidence` refines views of
    the one store.
    """
    if isinstance(task, SharedRunTask):
        return execute_shared_run(task)
    if task.target_steps is not None:
        tree = _cached_tree(task)
        performed = tree.refine_to_target(task.target_steps)
        lower, upper = tree.bounds()
        return TaskOutcome(
            key=task.key,
            lower=lower,
            upper=upper,
            probability=0.5 * (lower + upper),
            steps=tree.steps,
            performed=performed,
            exact=tree.is_exact or upper == lower,
        )
    # Budget mode: a fresh, isolated tree per task — the stopping bracket must
    # not depend on which other tuples this process evaluated earlier.
    dnf = dnf_from_canonical(task.clauses)
    tree = DTree(dnf, task.probabilities)
    try:
        result = budget_confidence(
            tree,
            dnf,
            task.probabilities,
            epsilon=task.epsilon,
            relative=task.relative,
            max_steps=task.max_steps,
            monte_carlo_samples=task.monte_carlo_samples,
            base_seed=task.seed,
        )
    except ApproximationBudgetError as error:
        return TaskOutcome(
            key=task.key,
            kind="budget",
            lower=error.lower,
            upper=error.upper,
            probability=0.5 * (error.lower + error.upper),
            steps=tree.steps,
            performed=error.steps,
        )
    return TaskOutcome(
        key=task.key,
        lower=result.lower,
        upper=result.upper,
        probability=result.probability,
        steps=tree.steps,
        performed=result.steps,
        exact=result.exact,
    )


def _execute_partition(tasks: Sequence[ConfidenceTask]) -> List[TaskOutcome]:
    """Worker entry point: run a partition, converting failures to payloads."""
    outcomes: List[TaskOutcome] = []
    for task in tasks:
        try:
            outcomes.append(execute_task(task))
        except Exception:
            outcomes.append(
                TaskOutcome(key=task.key, kind="error", error=traceback.format_exc())
            )
    return outcomes


def partition_tasks(
    tasks: Sequence[ConfidenceTask], partitions: int
) -> List[List[ConfidenceTask]]:
    """Split ``tasks`` into at most ``partitions`` contiguous, balanced runs.

    Partitioning affects only scheduling: every task is computed in
    isolation, so the merged results are independent of the partition count.
    """
    partitions = max(1, min(partitions, len(tasks)))
    size, extra = divmod(len(tasks), partitions)
    result: List[List[ConfidenceTask]] = []
    start = 0
    for index in range(partitions):
        end = start + size + (1 if index < extra else 0)
        result.append(list(tasks[start:end]))
        start = end
    return result


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------


class ConfidenceExecutor:
    """Backend abstraction: run confidence tasks, return outcomes in order.

    Both backends run the same :func:`execute_task`, so swapping them never
    changes results — only where the CPU time is spent.  Executors are
    reusable across calls and must be :meth:`close`\\ d (or used as context
    managers) when process-backed.
    """

    #: Worker processes backing this executor (0 = in-process).
    workers: int = 0

    @staticmethod
    def create(workers: int) -> "ConfidenceExecutor":
        """The backend for ``workers`` processes: serial at 0, a pool above."""
        if workers < 0:
            raise PlanningError(f"workers must be non-negative, got {workers}")
        if workers == 0:
            return SerialExecutor()
        return ProcessExecutor(workers)

    def run(self, tasks: Sequence[ConfidenceTask]) -> List[TaskOutcome]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any backing processes (idempotent)."""

    def __enter__(self) -> "ConfidenceExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(ConfidenceExecutor):
    """Runs every task in the calling process (the ``workers=0`` backend)."""

    def run(self, tasks: Sequence[ConfidenceTask]) -> List[TaskOutcome]:
        return _execute_partition(list(tasks))


class ProcessExecutor(ConfidenceExecutor):
    """Runs tasks on a ``concurrent.futures`` process pool.

    The pool is created lazily on first use (``fork`` start method where the
    platform offers it, the platform default otherwise) and reused across
    calls, so round-based schedulers keep their workers — and the workers
    their warm d-trees — for the whole run.  A worker that dies mid-task
    surfaces promptly as :class:`repro.errors.ParallelExecutionError`; the
    broken pool is discarded so the next call starts fresh.
    """

    def __init__(self, workers: int, overpartition: int = OVERPARTITION):
        if workers < 1:
            raise PlanningError(f"a process executor needs >= 1 worker, got {workers}")
        self.workers = workers
        self.overpartition = max(1, overpartition)
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            else:  # pragma: no cover - platform without fork
                context = multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(max_workers=self.workers, mp_context=context)
        return self._pool

    def run(self, tasks: Sequence[ConfidenceTask]) -> List[TaskOutcome]:
        from concurrent.futures.process import BrokenProcessPool

        tasks = list(tasks)
        if not tasks:
            return []
        partitions = partition_tasks(tasks, self.workers * self.overpartition)
        pool = self._ensure_pool()
        try:
            batches = list(pool.map(_execute_partition, partitions))
        except BrokenProcessPool as error:
            self.close()
            raise ParallelExecutionError(
                f"a confidence worker process died while computing "
                f"{len(tasks)} task(s); the pool has been discarded",
                worker_error=repr(error),
            ) from error
        return [outcome for batch in batches for outcome in batch]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


class SupervisedExecutor(ConfidenceExecutor):
    """A :class:`ProcessExecutor` under supervision: respawn, then go serial.

    :meth:`ProcessExecutor.run` raises :class:`ParallelExecutionError` only
    when the *pool itself* died (``BrokenProcessPool`` — e.g. a worker was
    OOM-killed); a task that merely failed inside a healthy worker surfaces
    later, from the driver, and is never retried here.  That split makes the
    retry safe: the same task list re-run on a fresh pool — or on the serial
    executor once the respawn budget is spent — produces bit-identical
    outcomes, because both backends run the same :func:`execute_task` and
    per-task Monte Carlo seeds are derived from the lineage, not the pool.

    ``respawns`` counts pool replacements (the inner pool is rebuilt lazily
    on the next run after a ``close()``); ``fallbacks`` counts batches that
    ran on the serial backend because the pool was declared broken.
    """

    def __init__(self, workers: int, max_respawns: int = 2):
        if workers < 1:
            raise PlanningError(f"a supervised executor needs >= 1 worker, got {workers}")
        self.workers = workers
        self.max_respawns = max_respawns
        self._inner = ProcessExecutor(workers)
        self._serial = SerialExecutor()
        self._broken = False
        self.respawns = 0
        self.fallbacks = 0

    def run(self, tasks: Sequence[ConfidenceTask]) -> List[TaskOutcome]:
        tasks = list(tasks)
        if self._broken:
            self.fallbacks += 1
            return self._serial.run(tasks)
        while True:
            try:
                fault_point("worker_pool.run")
                return self._inner.run(tasks)
            except (ParallelExecutionError, InjectedFault):
                # Pool death (or its scripted stand-in).  Discard the pool —
                # ProcessExecutor rebuilds lazily — and retry on a fresh one
                # until the respawn budget runs out, then degrade to serial.
                self._inner.close()
                if self.respawns >= self.max_respawns:
                    self._broken = True
                    self.fallbacks += 1
                    return self._serial.run(tasks)
                self.respawns += 1

    def close(self) -> None:
        self._inner.close()


# ---------------------------------------------------------------------------
# fan-out/merge driver for plain evaluation
# ---------------------------------------------------------------------------


def _restricted_probabilities(
    clauses: CanonicalClauses, probabilities: Mapping[int, float]
) -> Dict[int, float]:
    try:
        return {
            variable: probabilities[variable]
            for clause in clauses
            for variable in clause
        }
    except KeyError as missing:
        raise ProbabilityError(
            f"no probability for variable {missing.args[0]}"
        ) from None


def confidence_tasks(
    lineage: Mapping[DataTuple, DNF],
    probabilities: Mapping[int, float],
    *,
    epsilon: float = 0.0,
    relative: bool = False,
    max_steps: Optional[int] = DEFAULT_MAX_STEPS,
    monte_carlo_samples: Optional[int] = None,
    base_seed: Optional[int] = None,
) -> Tuple[List[DataTuple], List[ConfidenceTask]]:
    """Budget-mode tasks for every tuple of an extracted lineage map.

    Tuples are keyed in ``repr`` order — the same value-based order every
    evaluation path sorts by — so task keys are stable across the row and
    batch pipelines.  Returns ``(ordered data tuples, tasks)``.
    """
    ordered = sorted(lineage, key=repr)
    tasks: List[ConfidenceTask] = []
    for key, data in enumerate(ordered):
        clauses = canonical_clauses(lineage[data])
        tasks.append(
            ConfidenceTask(
                key=key,
                clauses=clauses,
                probabilities=_restricted_probabilities(clauses, probabilities),
                epsilon=epsilon,
                relative=relative,
                max_steps=max_steps,
                monte_carlo_samples=monte_carlo_samples,
                seed=base_seed,
            )
        )
    return ordered, tasks


def _raise_for_failure(outcome: TaskOutcome, data: DataTuple) -> None:
    if outcome.kind == "error":
        raise ParallelExecutionError(
            f"confidence task for tuple {data!r} failed in its worker",
            task_key=data,
            worker_error=outcome.error,
        )


def compute_confidences(
    lineage: Mapping[DataTuple, DNF],
    probabilities: Mapping[int, float],
    executor: Union[ConfidenceExecutor, SharedDTreeCache],
    *,
    epsilon: float = 0.0,
    relative: bool = False,
    max_steps: Optional[int] = DEFAULT_MAX_STEPS,
    monte_carlo_samples: Optional[int] = None,
    base_seed: Optional[int] = None,
) -> Dict[DataTuple, ApproxResult]:
    """Per-tuple confidence of an extracted lineage map, in ``repr`` order.

    The driver of plain evaluation.  With a :class:`ConfidenceExecutor` it is
    the parallel counterpart of
    :func:`repro.prob.lineage.approximate_confidences_from_lineage`: one
    budget-mode task per distinct tuple, each on a fresh tree, fanned out
    and merged back into :class:`ApproxResult` form.  Handed the engine's
    :class:`repro.prob.sharedag.SharedDTreeCache` instead, the tuples are
    views of its one store, refined right here under the store's
    ``pinned()`` guard (every expansion takes the store lock, as in
    :func:`repro.sprout.topk.run_decision`): what an earlier evaluation or
    decision refined is neither redone nor reported again, so a bracket is
    sound and within the budget but may be tighter than a cold run's.

    Either way :func:`budget_confidence` is the per-tuple routine.  Budget
    exhaustion without a Monte Carlo fallback raises
    :class:`repro.errors.ApproximationBudgetError`; a worker failure raises
    :class:`repro.errors.ParallelExecutionError`.
    """
    budget = dict(
        epsilon=epsilon,
        relative=relative,
        max_steps=max_steps,
        monte_carlo_samples=monte_carlo_samples,
        base_seed=base_seed,
    )
    if isinstance(executor, SharedDTreeCache):
        trees = dtrees_from_dnfs(lineage, probabilities, cache=executor)
        with executor.store.pinned():
            return {
                data: budget_confidence(trees[data], lineage[data], probabilities, **budget)
                for data in sorted(trees, key=repr)
            }
    ordered, tasks = confidence_tasks(lineage, probabilities, **budget)
    outcomes = executor.run(tasks)
    results: Dict[DataTuple, ApproxResult] = {}
    for data, outcome in zip(ordered, outcomes):
        _raise_for_failure(outcome, data)
        if outcome.kind == "budget":
            raise ApproximationBudgetError(
                lower=outcome.lower,
                upper=outcome.upper,
                epsilon=epsilon,
                relative=relative,
                steps=outcome.performed,
            )
        results[data] = ApproxResult(
            probability=outcome.probability,
            lower=outcome.lower,
            upper=outcome.upper,
            steps=outcome.performed,
            exact=outcome.exact,
        )
    return results


# ---------------------------------------------------------------------------
# round-based top-k / threshold refinement
# ---------------------------------------------------------------------------

_RUN_IDS = itertools.count(1)


class ParallelCandidate:
    """One answer tuple competing for the result set, tracked by bounds only.

    Unlike the serial scheduler's :class:`repro.sprout.topk.TupleCandidate`,
    the live d-tree stays in whichever worker refines it; the driver tracks
    the tuple's current bracket, cumulative step count, and value-based rank
    (its position in ``repr`` order, the tiebreak that makes decisions
    independent of answer-row order).
    """

    __slots__ = ("data", "clauses", "probabilities", "rank", "lower", "upper", "steps", "exact")

    def __init__(
        self,
        data: DataTuple,
        clauses: CanonicalClauses,
        probabilities: Dict[int, float],
        rank: int = 0,
        lower: float = 0.0,
        upper: float = 1.0,
        steps: int = 0,
        exact: bool = False,
    ):
        self.data = data
        self.clauses = clauses
        self.probabilities = probabilities
        self.rank = rank
        self.lower = lower
        self.upper = upper
        self.steps = steps
        self.exact = exact

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelCandidate({self.data!r}, [{self.lower:.4f}, {self.upper:.4f}], "
            f"steps={self.steps})"
        )


@dataclass
class ParallelOutcome:
    """The decided (or budget-capped) answer set with its evidence.

    Mirrors :class:`repro.sprout.topk.SchedulerOutcome` for the round-based
    parallel scheduler: ``selected`` holds the answer set most probable
    first, ``candidates`` every competitor with its final bracket,
    ``decided`` whether the set is proven, and ``steps`` the total d-tree
    expansions the run spent (across all workers).
    """

    selected: List[ParallelCandidate]
    candidates: List[ParallelCandidate]
    decided: bool
    steps: int = 0
    #: Always ``None`` here: deadlines are honoured on the serial route only
    #: (the one the query service runs); kept for a uniform outcome shape.
    degraded: Optional[str] = None

    def bounds(self) -> Dict[DataTuple, Tuple[float, float]]:
        return {c.data: (c.lower, c.upper) for c in self.candidates}


class ParallelRefinementScheduler:
    """Round-based multi-tuple refinement over a :class:`ConfidenceExecutor`.

    The serial scheduler refines one gating tuple at a time — correct, but
    it serialises the refinement.  This scheduler generalises the rule to a
    *frontier batch*: each round it collects up to ``frontier`` tuples whose
    brackets still gate the decision (for top-k, tuples overlapping the
    contention window between the weakest selected lower bound and the
    strongest excluded upper bound; for threshold, tuples straddling τ),
    grants each a fixed step quantum, refines them concurrently, and
    re-decides.  Grants are issued as cumulative step *targets*, so the
    resulting bounds — and hence the whole schedule — are identical for any
    worker count (see the module determinism contract).

    ``max_steps`` bounds the total expansions across all tuples; on
    exhaustion the best partition so far is returned with
    ``decided=False``, never an exception.
    """

    def __init__(
        self,
        lineage: Mapping[DataTuple, DNF],
        probabilities: Mapping[int, float],
        executor: ConfidenceExecutor,
        *,
        chunk: int = DEFAULT_CHUNK,
        frontier: int = DEFAULT_FRONTIER,
        max_steps: Optional[int] = None,
    ):
        if chunk < 1:
            raise PlanningError(f"chunk must be positive, got {chunk}")
        if frontier < 1:
            raise PlanningError(f"frontier must be positive, got {frontier}")
        if max_steps is not None and max_steps < 0:
            raise PlanningError(f"max_steps must be non-negative, got {max_steps}")
        self.executor = executor
        self.chunk = chunk
        self.frontier = frontier
        self.max_steps = max_steps
        self.steps = 0
        self.run_id = next(_RUN_IDS)
        self.candidates = [
            ParallelCandidate(
                data=data,
                clauses=clauses,
                probabilities=_restricted_probabilities(clauses, probabilities),
                rank=rank,
            )
            for rank, (data, clauses) in enumerate(
                (data, canonical_clauses(lineage[data]))
                for data in sorted(lineage, key=repr)
            )
        ]
        self._initialised = False

    # -- shared plumbing ----------------------------------------------------

    def _refine(
        self, chosen: Sequence[ParallelCandidate], targets: Sequence[int]
    ) -> bool:
        """One concurrent refinement wave; True if any bracket moved."""
        tasks = [
            ConfidenceTask(
                key=candidate.rank,
                clauses=candidate.clauses,
                probabilities=candidate.probabilities,
                target_steps=target,
                run_id=self.run_id,
            )
            for candidate, target in zip(chosen, targets)
        ]
        outcomes = self.executor.run(tasks)
        changed = False
        for candidate, outcome in zip(chosen, outcomes):
            _raise_for_failure(outcome, candidate.data)
            if (outcome.lower, outcome.upper) != (candidate.lower, candidate.upper):
                changed = True
            candidate.lower = outcome.lower
            candidate.upper = outcome.upper
            # Meter the tree's *logical* progression (cumulative count after
            # minus before), not `outcome.performed`: a cold worker that had
            # to rebuild the tree physically re-performs expansions a warm
            # worker would skip, and charging that would make the budget —
            # and with it grants, decidedness, and reported steps — depend on
            # task placement.  `outcome.steps` is placement-independent (the
            # cumulative count is a pure function of lineage and target), so
            # this delta is too; it also matches what the serial scheduler
            # charges, since serial trees are never rebuilt.
            self.steps += max(0, outcome.steps - candidate.steps)
            candidate.steps = outcome.steps
            candidate.exact = outcome.exact
        return changed

    def _initialise(self) -> None:
        """Round zero: collect construction-time bounds (zero-target tasks).

        d-tree construction applies the free decomposition steps, so many
        candidates arrive with tight (or closed) brackets before any
        expansion is granted — same as the serial scheduler's tree building,
        and free with respect to the ``max_steps`` budget.
        """
        if not self._initialised:
            self._initialised = True
            if self.candidates:
                self._refine(self.candidates, [0] * len(self.candidates))

    def _exhausted(self) -> bool:
        return self.max_steps is not None and self.steps >= self.max_steps

    def _grants(
        self, gating: Sequence[ParallelCandidate]
    ) -> Tuple[List[ParallelCandidate], List[int]]:
        """Allocate this round's step quanta (deterministic, budget-capped)."""
        base = max(self.chunk, len(self.candidates) // 64)
        remaining = (
            None if self.max_steps is None else max(0, self.max_steps - self.steps)
        )
        chosen: List[ParallelCandidate] = []
        targets: List[int] = []
        for candidate in gating:
            grant = base if remaining is None else min(base, remaining)
            if grant <= 0:
                break
            if remaining is not None:
                remaining -= grant
            chosen.append(candidate)
            targets.append(candidate.steps + grant)
        return chosen, targets

    def _outcome(
        self, selected: Sequence[ParallelCandidate], decided: bool
    ) -> ParallelOutcome:
        ordered = sorted(selected, key=lambda c: (-c.midpoint, repr(c.data)))
        return ParallelOutcome(
            selected=ordered,
            candidates=list(self.candidates),
            decided=decided,
            steps=self.steps,
        )

    def _round(
        self, selected: Sequence[ParallelCandidate], gating: List[ParallelCandidate]
    ) -> Optional[ParallelOutcome]:
        """Run one refinement wave; an outcome means the loop must stop."""
        gating.sort(key=lambda c: (-c.gap, c.rank))
        gating = gating[: self.frontier]
        if not gating:
            return self._outcome(selected, False)
        chosen, targets = self._grants(gating)
        if not chosen:
            return self._outcome(selected, False)
        before = self.steps
        changed = self._refine(chosen, targets)
        if self.steps == before and not changed:
            # No expansions and no movement: nothing further can decide this.
            return self._outcome(selected, False)
        return None

    # -- top-k --------------------------------------------------------------

    def run_topk(self, k: int) -> ParallelOutcome:
        """Decide the k most probable tuples via frontier-batch refinement."""
        if k < 1:
            raise PlanningError(f"k must be positive, got {k}")
        self._initialise()
        if k >= len(self.candidates):
            return self._outcome(list(self.candidates), True)
        while True:
            selected = nlargest(
                k, self.candidates, key=lambda c: (c.lower, c.upper, -c.rank)
            )
            chosen_ids = {id(c) for c in selected}
            rest = [c for c in self.candidates if id(c) not in chosen_ids]
            weakest = min(selected, key=lambda c: (c.lower, c.rank))
            strongest = max(rest, key=lambda c: (c.upper, -c.rank))
            if weakest.lower >= strongest.upper:
                return self._outcome(selected, True)
            if self._exhausted():
                return self._outcome(selected, False)
            # The contention window is [weakest.lower, strongest.upper]; any
            # non-exact bracket overlapping it can still flip the cut.
            gating = [c for c in selected if not c.exact and c.lower < strongest.upper]
            gating += [c for c in rest if not c.exact and c.upper > weakest.lower]
            outcome = self._round(selected, gating)
            if outcome is not None:
                return outcome

    # -- threshold ----------------------------------------------------------

    def run_threshold(self, tau: float) -> ParallelOutcome:
        """Partition candidates into confidence ``>= tau`` and ``< tau``."""
        if not 0.0 <= tau <= 1.0:
            raise PlanningError(f"tau must be within [0, 1], got {tau}")
        self._initialise()
        while True:
            straddling = [c for c in self.candidates if c.lower < tau <= c.upper]
            selected = [c for c in self.candidates if c.lower >= tau]
            if not straddling:
                return self._outcome(selected, True)
            if self._exhausted():
                return self._outcome(selected, False)
            outcome = self._round(selected, straddling)
            if outcome is not None:
                return outcome


def finish_exact(
    outcome: ParallelOutcome,
    executor: ConfidenceExecutor,
    *,
    per_tuple_cap: Optional[int] = DEFAULT_MAX_STEPS,
    raise_on_budget: bool = True,
) -> int:
    """Refine the selected candidates of a decided run to exact confidences.

    Exact-mode top-k/threshold reports exact values for the tuples it
    returns (and only those).  Each pending candidate gets a fresh-tree
    closure task — fresh rather than warm so the expansion count, and with
    it budget behaviour, is identical for every worker count.  With
    ``raise_on_budget`` a tuple that exhausts ``per_tuple_cap`` raises
    :class:`repro.errors.ApproximationBudgetError` (the engine-default
    budget contract); without it the candidate keeps the tightest sound
    bracket and the caller reports midpoints.  Returns the expansions spent.
    """
    pending = [c for c in outcome.selected if not c.exact]
    if not pending:
        return 0
    tasks = [
        ConfidenceTask(
            key=candidate.rank,
            clauses=candidate.clauses,
            probabilities=candidate.probabilities,
            epsilon=0.0,
            max_steps=per_tuple_cap,
        )
        for candidate in pending
    ]
    outcomes = executor.run(tasks)
    performed = 0
    for candidate, result in zip(pending, outcomes):
        _raise_for_failure(result, candidate.data)
        performed += result.performed
        if result.kind == "budget":
            if raise_on_budget:
                raise ApproximationBudgetError(
                    lower=result.lower,
                    upper=result.upper,
                    epsilon=0.0,
                    relative=False,
                    steps=result.performed,
                )
            # Keep the tightest sound bracket seen from either refinement.
            lower = max(candidate.lower, result.lower)
            upper = min(candidate.upper, result.upper)
            if lower <= upper:
                candidate.lower, candidate.upper = lower, upper
            continue
        candidate.lower = result.lower
        candidate.upper = result.upper
        candidate.exact = result.exact
    return performed


# ---------------------------------------------------------------------------
# shared-lineage runs: the whole decision ships as one segment
# ---------------------------------------------------------------------------


def run_shared_scheduled(
    lineage: Mapping[DataTuple, DNF],
    probabilities: Mapping[int, float],
    executor: ConfidenceExecutor,
    *,
    k: Optional[int],
    tau: Optional[float],
    confidence: str,
    max_steps: Optional[int],
    default_cap: Optional[int],
    max_nodes: Optional[int] = DEFAULT_MAX_NODES,
    vectorize: Optional[bool] = None,
    refine_lanes: int = 0,
) -> Tuple[ParallelOutcome, int]:
    """Drive one shared-lineage top-k/threshold run through an executor.

    The shared-lineage counterpart of
    :class:`ParallelRefinementScheduler` + :func:`finish_exact`: shared
    grants pick the *globally* most valuable node, which couples every
    gating tuple into one sequential decision — so instead of fanning
    per-tuple trees across rounds, the driver compiles the lineage into a
    fresh columnar store (exactly the way the ``workers=0`` route compiles
    into the engine's cache), exports the store segment, and ships the
    entire decision to one worker via :class:`SharedRunTask`.  The worker
    runs the same :func:`repro.sprout.topk.run_decision` code over the same
    store state, so decided sets, confidences, and step counts are
    bit-identical for workers 0/1/N.

    Exact-mode budget exhaustion re-raises
    :class:`repro.errors.ApproximationBudgetError` with the worker's
    bracket (the serial contract); a worker failure raises
    :class:`repro.errors.ParallelExecutionError`.  Returns
    ``(outcome, finishing_steps)`` in the engine scheduler convention.

    ``refine_lanes`` rides the task: the worker builds a short-lived
    :class:`RefinementLanePool` for its rounds' compute phase.  Lanes nest
    inside workers freely — the round schedule is planned before any lane
    runs, so every combination of ``workers`` × ``refine_lanes`` decides
    identically.
    """
    cache = SharedDTreeCache(max_nodes=max_nodes, vectorize=vectorize)
    trees = dtrees_from_dnfs(lineage, probabilities, cache=cache)
    if not trees:
        return ParallelOutcome(selected=[], candidates=[], decided=True, steps=0), 0
    view_slots: Dict[int, int] = {}
    views: List[int] = []
    members: List[Tuple[DataTuple, int]] = []
    for data, view in trees.items():
        slot = view_slots.get(id(view))
        if slot is None:
            slot = len(views)
            view_slots[id(view)] = slot
            views.append(view.root)
        members.append((data, slot))
    task = SharedRunTask(
        segment=cache.store.export_segment(),
        views=views,
        candidates=members,
        k=k,
        tau=tau,
        confidence=confidence,
        max_steps=max_steps,
        default_cap=default_cap,
        refine_lanes=refine_lanes,
    )
    payload = executor.run([task])[0]
    if payload.kind == "error":
        raise ParallelExecutionError(
            "a shared-lineage refinement run failed in its worker",
            worker_error=payload.error,
        )
    if payload.kind == "budget":
        raise ApproximationBudgetError(
            lower=payload.budget_lower,
            upper=payload.budget_upper,
            epsilon=0.0,
            relative=False,
            steps=payload.budget_steps,
        )
    candidates = [
        ParallelCandidate(
            data=data,
            clauses=(),
            probabilities={},
            rank=rank,
            lower=lower,
            upper=upper,
            exact=exact,
        )
        for rank, ((data, _), (lower, upper, exact)) in enumerate(
            zip(members, payload.bounds)
        )
    ]
    outcome = ParallelOutcome(
        selected=[candidates[index] for index in payload.selected],
        candidates=candidates,
        decided=payload.decided,
        steps=payload.steps,
    )
    return outcome, payload.finishing_steps
