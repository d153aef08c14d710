"""The SPROUT engine: the public entry point for confidence computation.

``SproutEngine`` evaluates conjunctive queries (without self-joins) on a
tuple-independent probabilistic database and returns the distinct answer
tuples with their exact confidences.  The caller chooses the *plan style*:

``lazy``
    Optimizer-chosen join order; the confidence operator runs once, at the top
    of the plan (Fig. 7(c)).  The default, and the winner on TPC-H.
``eager``
    Hierarchy-imposed join order with aggregation after every base table and
    every join — structurally the safe plan of Fig. 2/7(a), but expressed with
    SPROUT's operator.
``hybrid``
    Hierarchy-imposed join order with aggregation only after joins (the
    operators on top of the input tables are dropped), Fig. 7(b).
``lineage``
    Reference fallback: evaluate the answer lazily and compute each distinct
    tuple's confidence by exact weighted model counting on its DNF lineage
    via memoised Shannon expansion (worst-case exponential).
``dtree``
    The decomposition-tree engine (:mod:`repro.prob.dtree`): compile each
    tuple's lineage with independent-partition, deterministic-or, and Shannon
    cobranching steps.  Exact when compilation completes; with
    ``confidence="approx"`` it runs anytime, maintaining guaranteed
    lower/upper bounds and stopping at the requested ``epsilon``.

Queries that are not tractable even with FDs (non-hierarchical, *unsafe*
queries) are routed to the d-tree engine automatically instead of raising —
``confidence="exact"`` compiles to exactness, ``confidence="approx"``
stops at the engine's ``epsilon`` error budget.

Independently of the plan style, the confidence computation method can be the
scan-based operator (``scans``, Section V.C) or the literal GRP-sequence
semantics (``semantics``, Fig. 5) — the latter exists for validation and for
the ablation benchmark.

Orthogonally to both, the *execution mode* selects the physical backend:

``batch``
    The default.  The columnar backend (:mod:`repro.algebra.columnar`):
    operators exchange whole ColumnBatches, selections/joins/aggregations
    run column-wise, and the confidence operator scans a single ColumnBatch.
``row``
    The original iterator-model operators — one Python tuple at a time.
    Bit-identical answers, severalfold slower on TPC-H-sized inputs; kept
    selectable per engine and per call as the differential oracle.

D-tree ``evaluate`` as well as top-k/threshold scheduling compile lineages
into the engine's one hash-consed store (:mod:`repro.prob.sharedag`), in
which common subformulas exist once across answer tuples and across
requests, so refinement is never redone: a repeat, or an ``evaluate`` after
a decision on the same lineage, pays only for what is still open.  Decided
sets and exact confidences are those of compiling each tuple alone;
approximate brackets are sound and within the budget but may be tighter
than a cold run's.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import env_int
from repro.deadline import Deadline
from repro.errors import (
    NonHierarchicalQueryError,
    PlanningError,
    UnsupportedQueryError,
)
from repro.algebra.columnar import sort_batch
from repro.prob.dtree import DEFAULT_MAX_STEPS
from repro.prob.sharedag import DEFAULT_MAX_NODES, SharedDTreeCache, SpaceProof
from repro.prob.formulas import DNF
from repro.prob.lineage import (
    confidences_from_lineage,
    dtrees_from_dnfs,
    lineage_by_tuple,
    probabilities_from_answer,
)
from repro.prob.pdb import ProbabilisticDatabase
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.fd import chased_query, closure
from repro.query.hierarchy import HierarchyNode, build_hierarchy, is_hierarchical
from repro.query.rewrite import (
    catalog_table_attributes,
    effective_signature,
    is_tractable,
)
from repro.query.signature import Signature, num_scans
from repro.sprout.conf_operator import compute_answer_confidences
from repro.sprout.onescan import columnar_lineage, sort_column_order
from repro.sprout.parallel import compute_confidences
from repro.sprout.planner import (
    JoinOrderPlanner,
    _aggregate_pair,
    build_answer_plan_batch,
    eager_evaluation,
    materialize_answer,
    project_answer_columns,
)
from repro.sprout.scans import ScanSchedule
from repro.sprout.topk import TupleCandidate, run_decision
from repro.storage.heapfile import HeapFile
from repro.storage.relation import Relation
from repro.storage.schema import Attribute, ColumnRole, Schema

__all__ = [
    "EvaluationResult",
    "SproutEngine",
    "PLAN_STYLES",
    "CONF_METHODS",
    "EXECUTION_MODES",
    "CONFIDENCE_MODES",
]

PLAN_STYLES = ("lazy", "eager", "hybrid", "lineage", "dtree")
CONF_METHODS = ("scans", "semantics")
EXECUTION_MODES = ("row", "batch")
CONFIDENCE_MODES = ("exact", "approx")


@dataclass
class EvaluationResult:
    """Answer of a query: distinct data tuples, confidences, and metrics.

    Every engine entry point (:meth:`SproutEngine.evaluate`,
    :meth:`SproutEngine.evaluate_topk`, :meth:`SproutEngine.evaluate_threshold`)
    returns one of these.  The main fields:

    * ``relation`` — the answer: the query's data columns plus a ``conf``
      column holding each distinct tuple's confidence (for approximate modes,
      the bracket midpoint or the Monte Carlo estimate clamped into the sound
      bracket; for top-k, sorted most probable first).
    * ``plan_style`` / ``execution`` / ``confidence`` — which plan, physical
      backend, and confidence mode actually ran (an unsafe query requested
      with an operator plan reports ``"dtree"`` here).
    * ``signature`` — the query signature that drove the confidence operator
      (``None`` on the lineage/d-tree routes, which do not use one).
    * ``bounds`` — per data tuple, the guaranteed ``(lower, upper)`` bracket
      of its confidence.  Degenerate (``lower == upper``) for exact modes;
      for top-k/threshold it covers *every* candidate, not just the winners.
    * ``epsilon`` — the error budget the approximation met (``None`` when the
      result is exact).
    * ``k`` / ``tau`` / ``decided`` — top-k/threshold metadata: the request,
      and whether the answer set is provably decided (``decided=False`` only
      when a ``max_steps`` budget ran out first).
    * ``refine_steps`` — d-tree expansions spent *by this call*; refinement
      the engine's shared store already held is not counted again.
    * ``tuples_seconds`` / ``prob_seconds`` / ``answer_rows`` /
      ``rows_processed`` / ``scans_used`` — the paper's cost metrics: time to
      materialise the answer vs. time to compute confidences, the number of
      (duplicate-bearing) answer rows, total rows flowing through the plan,
      and how many sequential scans the confidence operator needed.
    """

    query_name: str
    plan_style: str
    relation: Relation
    signature: Optional[Signature]
    execution: str = "row"
    join_order: List[str] = field(default_factory=list)
    tuples_seconds: float = 0.0
    prob_seconds: float = 0.0
    answer_rows: int = 0
    rows_processed: int = 0
    scans_used: int = 1
    scan_schedule: Optional[ScanSchedule] = None
    confidence: str = "exact"
    epsilon: Optional[float] = None
    bounds: Dict[Tuple[object, ...], Tuple[float, float]] = field(default_factory=dict)
    #: Top-k/threshold metadata: the requested ``k`` or ``tau`` (None for plain
    #: evaluation), whether the answer set is provably decided, and how many
    #: d-tree expansions the evaluation spent in total.
    k: Optional[int] = None
    tau: Optional[float] = None
    decided: bool = True
    refine_steps: int = 0
    #: Logical steps charged by the most recent delta batch.  On one-shot
    #: engine calls this equals ``refine_steps`` (the whole call is one cold
    #: batch; 0 on the operator routes); on results returned by a standing
    #: query's :meth:`repro.sprout.streaming.StandingQuery.refresh` it is the
    #: cost of that refresh alone while ``refine_steps`` stays cumulative —
    #: the warm/cold contrast ``benchmarks/bench_streaming.py`` asserts on.
    delta_steps: int = 0
    #: ``None`` for a full-fidelity answer; ``"deadline"`` when a wall-clock
    #: deadline stopped refinement early (anytime degradation: ``bounds`` are
    #: still sound, ``decided`` may be False, and only the stopping point —
    #: never the refinement trajectory — depended on the clock).
    degraded: Optional[str] = None

    @property
    def total_seconds(self) -> float:
        return self.tuples_seconds + self.prob_seconds

    @property
    def distinct_tuples(self) -> int:
        return len(self.relation)

    def confidences(self) -> Dict[Tuple[object, ...], float]:
        """Mapping from distinct data tuple to its confidence."""
        conf_index = self.relation.schema.index_of("conf")
        data_indices = [
            i for i, a in enumerate(self.relation.schema) if a.name != "conf"
        ]
        return {
            tuple(row[i] for i in data_indices): row[conf_index]
            for row in self.relation
        }

    def boolean_confidence(self) -> float:
        """Confidence of a Boolean query (0.0 when the answer is empty)."""
        values = list(self.confidences().values())
        if not values:
            return 0.0
        if len(values) > 1:
            raise PlanningError("boolean_confidence() called on a non-Boolean answer")
        return values[0]

    def summary(self) -> str:
        return (
            f"{self.query_name} [{self.plan_style}/{self.execution}] "
            f"{self.distinct_tuples} distinct tuples from {self.answer_rows} answer rows, "
            f"tuples {self.tuples_seconds:.4f}s + prob {self.prob_seconds:.4f}s "
            f"({self.scans_used} scan(s))"
        )


def _default_dtree_cache_size() -> int:
    """Lineage-cache node budget: the ``REPRO_DTREE_CACHE`` env var, else
    :data:`repro.prob.sharedag.DEFAULT_MAX_NODES` nodes."""
    return env_int("REPRO_DTREE_CACHE", default=DEFAULT_MAX_NODES, minimum=1)


def _check_epsilon(epsilon: float) -> None:
    """Reject a negative or non-finite error budget: NaN never compares as
    met (every tuple would be refined to exactness) and infinity is met by
    the vacuous bracket."""
    if not 0.0 <= epsilon < math.inf:
        raise PlanningError(
            f"epsilon must be a finite non-negative number, got {epsilon}"
        )


#: Entries the answer-lineage memo keeps (LRU).  A constant on purpose: the
#: memo lives and dies with ``dtree_cache``, whose node budget is the knob.
ANSWER_MEMO_ENTRIES = 32


def _memoised_analysis(method):
    """Memoise a ``(query, use_fds)`` static-analysis method per engine.

    Keyed on the method, the (frozen) query and the functional dependencies
    the analysis reads — a dependency declared later is a different key.
    The memo holds at most :data:`ANSWER_MEMO_ENTRIES` results (LRU) and dies
    with the answer memo at :meth:`SproutEngine.close`; an analysis that
    raises is not kept.
    """

    @functools.wraps(method)
    def analysed(self, query, use_fds=True):
        fds = self.functional_dependencies(query, use_fds)
        key = (method.__name__, query, tuple(fds))
        memo = self._analysis_memo
        if key in memo:
            self.analysis_hits += 1
            memo.move_to_end(key)
            return memo[key]
        self.analysis_misses += 1
        value = memo[key] = method(self, query, use_fds)
        if len(memo) > ANSWER_MEMO_ENTRIES:
            memo.popitem(last=False)
        return value

    return analysed


@dataclass
class _AnswerLineage:
    """A materialised answer reduced to what the lineage routes consume.

    Shared between calls by the engine's answer memo: treat as read-only
    (``proof`` aside, see :meth:`SproutEngine._proven_cache`).
    """

    schema: Schema
    order: List[str]
    rows_processed: int
    answer_rows: int
    lineage: Dict[Tuple[object, ...], DNF]
    probabilities: Dict[int, float]
    proof: Optional[SpaceProof] = None


class SproutEngine:
    """Query engine over a :class:`ProbabilisticDatabase`.

    Parameters
    ----------
    database
        The tuple-independent probabilistic database to evaluate against.
    execution
        Default physical backend for every evaluation: ``"batch"`` (the
        default: the columnar backend, whole columns from scan to ``conf``)
        or ``"row"`` (the iterator-model operators, the oracle the
        batch path is tested against).
    confidence
        Default confidence mode: ``"exact"`` (operator paths for tractable
        queries, fully compiled d-trees for unsafe ones) or ``"approx"``
        (anytime d-tree bounds with absolute error budget ``epsilon``).
    dtree_max_steps
        Cap on d-tree compilation per tuple; when the cap is hit in approx
        mode the Karp–Luby estimator (``monte_carlo_samples`` draws, seeded
        per tuple from ``seed`` so approximate results are reproducible
        whatever was evaluated before; ``seed=None`` draws fresh entropy)
        supplies the point estimate within the sound d-tree bracket.
    dtree_cache_size
        Node budget for the engine-lifetime lineage store, default
        :data:`repro.prob.sharedag.DEFAULT_MAX_NODES` or the
        ``REPRO_DTREE_CACHE`` environment variable.  Eviction is by *node
        count*, not entry count, so a handful of huge lineages cannot blow
        memory.

    Each :meth:`evaluate` call may override ``execution``, ``confidence``
    and ``epsilon``.

    The engine keeps one lineage cache for its lifetime
    (:class:`repro.prob.sharedag.SharedDTreeCache`): d-tree :meth:`evaluate`
    and the top-k/threshold scheduler compile lineages into its one
    hash-consed store, where common subformulas exist once across answer
    tuples and requests, every refinement step tightens all tuples
    containing the refined node, and nothing refined is refined again.

    Raises :class:`repro.errors.PlanningError` for invalid modes or
    parameters.
    """

    def __init__(
        self,
        database: ProbabilisticDatabase,
        execution: str = "batch",
        confidence: str = "exact",
        epsilon: float = 0.01,
        dtree_max_steps: Optional[int] = DEFAULT_MAX_STEPS,
        monte_carlo_samples: Optional[int] = 10_000,
        seed: Optional[int] = 0,
        dtree_cache_size: Optional[int] = None,
    ):
        if execution not in EXECUTION_MODES:
            raise PlanningError(
                f"unknown execution mode {execution!r}; choose from {EXECUTION_MODES}"
            )
        if confidence not in CONFIDENCE_MODES:
            raise PlanningError(
                f"unknown confidence mode {confidence!r}; choose from {CONFIDENCE_MODES}"
            )
        _check_epsilon(epsilon)
        if dtree_cache_size is None:
            dtree_cache_size = _default_dtree_cache_size()
        elif dtree_cache_size < 1:
            raise PlanningError(
                f"dtree_cache_size must be positive, got {dtree_cache_size}"
            )
        self.database = database
        self.execution = execution
        self.confidence = confidence
        self.epsilon = epsilon
        self.dtree_max_steps = dtree_max_steps
        self.monte_carlo_samples = monte_carlo_samples
        self.seed = seed
        self.dtree_cache_size = dtree_cache_size
        # The engine-lifetime lineage cache that d-tree evaluate and the
        # top-k/threshold scheduler refine across calls: views over one
        # hash-consed store, bounded by dtree_cache_size *nodes* (not
        # entries), so huge lineages cannot blow memory through a small
        # number of entries.
        self.dtree_cache = SharedDTreeCache(max_nodes=dtree_cache_size)
        #: Answers of the lineage routes already computed since the last
        #: close(): same lifetime as ``dtree_cache`` (see _answer_lineage).
        self._answer_memo: "OrderedDict[tuple, _AnswerLineage]" = OrderedDict()
        self.answer_hits = 0
        self.answer_misses = 0
        #: Static analyses (see ``_memoised_analysis``): same bound and lifetime.
        self._analysis_memo: "OrderedDict[tuple, object]" = OrderedDict()
        self.analysis_hits = 0
        self.analysis_misses = 0
        self.planner = JoinOrderPlanner(database)
        #: Lifecycle flag plus the cache-counter snapshot taken at close():
        #: a closed engine answers :meth:`cache_stats` from the snapshot
        #: instead of touching the released cache, and transparently reopens
        #: (cold cache) on the next evaluation.
        self._closed = False
        self._closed_stats: Optional[Dict[str, object]] = None

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release the lineage cache (idempotent).

        The first close snapshots the cache counters (:meth:`cache_stats`
        keeps answering from the snapshot) and clears the cache, the answer
        memo and the analysis memo to release the store's node table; the
        engine transparently reopens — cold cache — on the next evaluation.
        """
        if not self._closed:
            self._closed_stats = self._live_cache_stats()
            self._closed_stats["closed"] = True
            self.dtree_cache.clear()
            self._answer_memo.clear()
            self.answer_hits = self.answer_misses = 0
            self._analysis_memo.clear()
            self.analysis_hits = self.analysis_misses = 0
            self._closed = True

    def _reopen(self) -> None:
        """Drop the closed-engine snapshot on the next evaluation."""
        if self._closed:
            self._closed = False
            self._closed_stats = None

    def _live_cache_stats(self) -> Dict[str, object]:
        store = self.dtree_cache.store
        return {
            "hits": self.dtree_cache.hits,
            "misses": self.dtree_cache.misses,
            "evictions": self.dtree_cache.evictions,
            "entries": len(self.dtree_cache),
            # The answer-lineage memo: requests that skipped the relational work.
            "answer_hits": self.answer_hits,
            "answer_misses": self.answer_misses,
            "answer_entries": len(self._answer_memo),
            # Static query analyses served from / added to the analysis memo.
            "analysis_hits": self.analysis_hits,
            "analysis_misses": self.analysis_misses,
            # Views marked stale vs. frontiers measured at a peek.
            "frontier_marks": store.frontier_marks,
            "frontier_rebuilds": store.frontier_rebuilds,
        }

    def cache_stats(self) -> Dict[str, object]:
        """Lineage-cache counters.

        ``hits`` / ``misses`` / ``evictions`` are cheap ints maintained by
        the engine's :class:`repro.prob.sharedag.SharedDTreeCache`;
        benchmarks and the bench report use them to attribute warm-vs-cold
        step counts instead of inferring them from timings; ``answer_*`` and
        ``analysis_*`` count the answer-lineage and query-analysis memos.  On
        a closed engine this returns the snapshot taken at :meth:`close`
        (with ``"closed": True``) instead of touching the released cache; a
        live engine reports ``"closed": False``.
        """
        if self._closed and self._closed_stats is not None:
            return dict(self._closed_stats)
        stats = self._live_cache_stats()
        stats["closed"] = False
        return stats

    def __enter__(self) -> "SproutEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- static analysis --------------------------------------------------------

    def functional_dependencies(self, query: ConjunctiveQuery, use_fds: bool = True):
        if not use_fds:
            return []
        return self.database.catalog.functional_dependencies(query.table_names())

    @_memoised_analysis
    def signature_for(self, query: ConjunctiveQuery, use_fds: bool = True) -> Signature:
        """The effective signature used to process ``query`` (Section IV)."""
        fds = self.functional_dependencies(query, use_fds)
        table_attributes = catalog_table_attributes(self.database.catalog, query.table_names())
        return effective_signature(query, fds, table_attributes)

    @_memoised_analysis
    def is_tractable(self, query: ConjunctiveQuery, use_fds: bool = True) -> bool:
        return is_tractable(query, self.functional_dependencies(query, use_fds))

    def planning_head(self, query: ConjunctiveQuery, use_fds: bool = True) -> frozenset:
        """Head attributes plus everything they functionally determine.

        Within one bag of duplicate answer tuples these attributes are
        constant, so the eager/hybrid planners may keep them in intermediate
        projections (they are needed for the physical joins) without changing
        the grouping structure; the final projection drops the extra ones.
        """
        fds = self.functional_dependencies(query, use_fds)
        determined = closure(query.projection, fds) if fds else frozenset(query.projection)
        return frozenset(determined)

    def _planning_query(self, query: ConjunctiveQuery, use_fds: bool) -> ConjunctiveQuery:
        fds = self.functional_dependencies(query, use_fds)
        chased = chased_query(query, fds) if fds else query
        head = self.planning_head(query, use_fds) & frozenset(chased.attributes())
        return chased.with_projection(sorted(head), name=f"plan({query.name})")

    @_memoised_analysis
    def hierarchy_for(self, query: ConjunctiveQuery, use_fds: bool = True) -> HierarchyNode:
        """Hierarchy tree used by the eager/hybrid (safe-plan-shaped) planners.

        The tree is built from the *chased* query (atoms extended to their
        attribute closures) with the projection widened to the head's closure:
        unlike the FD-reduct it still mentions every physical join attribute,
        so the tree is directly executable, while Proposition IV.5 guarantees
        it is hierarchical whenever the query is tractable under the FDs.
        """
        planning = self._planning_query(query, use_fds)
        if is_hierarchical(planning):
            return build_hierarchy(planning)
        if is_hierarchical(query):
            return build_hierarchy(query)
        raise NonHierarchicalQueryError(
            f"query {query.name!r} has no hierarchical structure to plan with"
        )

    def explain(self, query: ConjunctiveQuery, plan: str = "lazy", use_fds: bool = True) -> str:
        """Describe the plan the engine would run, without executing it."""
        lines = [f"query: {query}"]
        if plan == "lineage":
            lines.append("plan: lazy answer computation + exact lineage model counting")
            return "\n".join(lines)
        if plan == "dtree":
            lines.append(
                "plan: lazy answer computation + d-tree confidence "
                "(anytime lower/upper bounds)"
            )
            return "\n".join(lines)
        if not self.is_tractable(query, use_fds):
            lines.append(
                "plan: unsafe query (no hierarchical FD-reduct); routed to the "
                "d-tree engine for exact-or-approximate confidence computation"
            )
            return "\n".join(lines)
        signature = self.signature_for(query, use_fds)
        lines.append(f"signature: {signature}  (#scans = {num_scans(signature)})")
        if plan == "lazy":
            order = self.planner.lazy_join_order(query)
            lines.append(f"plan: lazy, join order {order}, conf operator on top")
        else:
            tree = self.hierarchy_for(query, use_fds)
            order = self.planner.hierarchical_join_order(query, tree)
            lines.append(
                f"plan: {plan}, hierarchy join order {order}, aggregation "
                f"{'after every table and join' if plan == 'eager' else 'after joins only'}"
            )
        return "\n".join(lines)

    # -- evaluation ----------------------------------------------------------------

    def evaluate(
        self,
        query: ConjunctiveQuery,
        plan: str = "lazy",
        use_fds: bool = True,
        conf_method: str = "scans",
        join_order: Optional[Sequence[str]] = None,
        materialize_to_disk: bool = False,
        execution: Optional[str] = None,
        confidence: Optional[str] = None,
        epsilon: Optional[float] = None,
    ) -> EvaluationResult:
        """Compute the distinct answer tuples of ``query`` and their confidences.

        ``execution`` overrides the engine's default backend for this call
        (``"row"`` or ``"batch"``); ``confidence`` and ``epsilon`` override
        the engine's confidence mode and error budget.  Unsafe queries (no
        hierarchical FD-reduct) are routed to the d-tree engine regardless
        of the requested plan style.
        """
        self._reopen()
        execution, confidence, epsilon = self._resolve_modes(
            plan, conf_method, execution, confidence, epsilon
        )
        self._check_supported(query)
        if plan == "dtree" or confidence == "approx":
            return self._evaluate_dtree(query, join_order, execution, confidence, epsilon)
        if plan == "lineage":
            return self._evaluate_lineage(query, join_order, execution)
        if not self.is_tractable(query, use_fds):
            # Unsafe query: no safe plan and no hierarchical FD-reduct exists.
            # Route to the anytime d-tree engine instead of raising.
            return self._evaluate_dtree(query, join_order, execution, confidence, epsilon)
        if plan == "lazy":
            if execution == "batch":
                return self._evaluate_lazy_batch(
                    query, use_fds, conf_method, join_order, materialize_to_disk
                )
            return self._evaluate_lazy(
                query, use_fds, conf_method, join_order, materialize_to_disk
            )
        return self._evaluate_eager_or_hybrid(query, plan, use_fds, execution)

    def _resolve_modes(
        self,
        plan: str,
        conf_method: str,
        execution: Optional[str],
        confidence: Optional[str],
        epsilon: Optional[float],
    ) -> Tuple[str, str, float]:
        """Validate plan/method names and fill mode defaults from the engine."""
        if plan not in PLAN_STYLES:
            raise PlanningError(f"unknown plan style {plan!r}; choose from {PLAN_STYLES}")
        if conf_method not in CONF_METHODS:
            raise PlanningError(
                f"unknown confidence method {conf_method!r}; choose from {CONF_METHODS}"
            )
        if execution is None:
            execution = self.execution
        elif execution not in EXECUTION_MODES:
            raise PlanningError(
                f"unknown execution mode {execution!r}; choose from {EXECUTION_MODES}"
            )
        if confidence is None:
            confidence = self.confidence
        elif confidence not in CONFIDENCE_MODES:
            raise PlanningError(
                f"unknown confidence mode {confidence!r}; choose from {CONFIDENCE_MODES}"
            )
        if epsilon is None:
            epsilon = self.epsilon
        else:
            _check_epsilon(epsilon)
        return execution, confidence, epsilon

    def _check_supported(self, query: ConjunctiveQuery) -> None:
        uncovered = query.uncovered_selections()
        if uncovered:
            raise UnsupportedQueryError(
                f"query {query.name!r} has selection conditions spanning several tables "
                f"({[str(p) for p in uncovered]}); only per-table selections are supported"
            )

    # -- top-k and threshold queries ----------------------------------------------

    def evaluate_topk(
        self,
        query: ConjunctiveQuery,
        k: int,
        plan: str = "lazy",
        use_fds: bool = True,
        conf_method: str = "scans",
        join_order: Optional[Sequence[str]] = None,
        execution: Optional[str] = None,
        confidence: Optional[str] = None,
        max_steps: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> EvaluationResult:
        """The ``k`` most probable answer tuples of ``query``.

        Tractable queries under ``confidence="exact"`` short-circuit through
        the requested operator plan (confidences are exact anyway, so the
        selection is a sort); everything else routes to a bound-driven
        refinement scheduler, which interleaves d-tree refinement across the
        candidate tuples and stops as soon as the top-k set is provably
        decided — no tuple is refined further than the decision requires
        (:class:`repro.sprout.topk.RefinementScheduler`, reusing the
        engine's d-tree cache across calls).

        The result relation holds the selected tuples, most probable first;
        :attr:`EvaluationResult.bounds` brackets *every* candidate and
        :attr:`EvaluationResult.decided` reports whether the set is proven
        (it is False only when ``max_steps`` — default the engine's
        ``dtree_max_steps`` — ran out first).  Under ``confidence="exact"``
        the selected tuples' confidences are refined to exactness (an
        explicit ``max_steps`` bounds that phase too, reporting bracket
        midpoints when it runs out); under ``"approx"`` they stay bracket
        midpoints.

        Raises :class:`repro.errors.PlanningError` for invalid parameters
        and :class:`repro.errors.ApproximationBudgetError` when exact-mode
        finishing exhausts the engine-default step cap.

        ``deadline`` (a :class:`repro.deadline.Deadline`) bounds the
        wall-clock spent on the scheduler route: checked between
        refinement rounds, never inside one, so expiry returns the current
        sound bounds with ``decided=False`` / ``degraded="deadline"``
        instead of raising — anytime degradation, the paper's central
        contract put to work.
        """
        if k < 1:
            raise PlanningError(f"k must be positive, got {k}")
        return self._evaluate_bounded(
            query,
            k=k,
            tau=None,
            plan=plan,
            use_fds=use_fds,
            conf_method=conf_method,
            join_order=join_order,
            execution=execution,
            confidence=confidence,
            max_steps=max_steps,
            deadline=deadline,
        )

    def evaluate_threshold(
        self,
        query: ConjunctiveQuery,
        tau: float,
        plan: str = "lazy",
        use_fds: bool = True,
        conf_method: str = "scans",
        join_order: Optional[Sequence[str]] = None,
        execution: Optional[str] = None,
        confidence: Optional[str] = None,
        max_steps: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> EvaluationResult:
        """The answer tuples whose confidence is at least ``tau``.

        Same routing as :meth:`evaluate_topk`: exact operator plans for
        tractable queries, a refinement scheduler otherwise — each candidate
        is refined only until its bracket clears τ on one side.
        ``deadline`` degrades the scheduler route exactly as in
        :meth:`evaluate_topk`.
        """
        if not 0.0 <= tau <= 1.0:
            raise PlanningError(f"tau must be within [0, 1], got {tau}")
        return self._evaluate_bounded(
            query,
            k=None,
            tau=tau,
            plan=plan,
            use_fds=use_fds,
            conf_method=conf_method,
            join_order=join_order,
            execution=execution,
            confidence=confidence,
            max_steps=max_steps,
            deadline=deadline,
        )

    # -- standing (streaming) queries ----------------------------------------------

    def watch_topk(
        self,
        query: ConjunctiveQuery,
        k: int,
        join_order: Optional[Sequence[str]] = None,
        execution: Optional[str] = None,
        confidence: Optional[str] = None,
        max_steps: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ):
        """A live top-k answer set for ``query``: a
        :class:`repro.sprout.streaming.StandingQuery`.

        Materialises the query's answer lineage once (same pipeline as
        :meth:`evaluate_topk`), then hands it to a standing query that keeps
        the decided set maintained across probability updates, tuple
        inserts, and deletes — re-deciding incrementally over its own
        shared-lineage store instead of re-running the query.  The standing
        query inherits this engine's substrate knobs (``dtree_cache_size``,
        ``dtree_max_steps``) but owns a
        *private* store: its probability space is mutable, the engine's is
        bound to the database.  Standing queries always run on the
        refinement substrate — tractable queries do not short-circuit to an
        operator plan, because deltas need a compiled structure to propagate
        through (exact mode still reports exact confidences).
        """
        if k < 1:
            raise PlanningError(f"k must be positive, got {k}")
        return self._watch(
            query, k, None, join_order, execution, confidence, max_steps, deadline
        )

    def watch_threshold(
        self,
        query: ConjunctiveQuery,
        tau: float,
        join_order: Optional[Sequence[str]] = None,
        execution: Optional[str] = None,
        confidence: Optional[str] = None,
        max_steps: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ):
        """A live τ-threshold answer set for ``query`` (see :meth:`watch_topk`)."""
        if not 0.0 <= tau <= 1.0:
            raise PlanningError(f"tau must be within [0, 1], got {tau}")
        return self._watch(
            query, None, tau, join_order, execution, confidence, max_steps, deadline
        )

    def _watch(
        self,
        query: ConjunctiveQuery,
        k: Optional[int],
        tau: Optional[float],
        join_order: Optional[Sequence[str]],
        execution: Optional[str],
        confidence: Optional[str],
        max_steps: Optional[int],
        deadline: Optional[Deadline] = None,
    ):
        from repro.sprout.streaming import StandingQuery

        self._reopen()
        execution, confidence, _ = self._resolve_modes(
            "dtree", "scans", execution, confidence, None
        )
        self._check_supported(query)
        answer = self._answer_lineage(query, join_order, execution)
        return StandingQuery(
            answer.lineage,
            answer.probabilities,
            k=k,
            tau=tau,
            confidence=confidence,
            max_steps=max_steps,
            default_cap=self.dtree_max_steps,
            cache_nodes=self.dtree_cache_size,
            schema=answer.schema,
            name=query.name,
            execution=execution,
            deadline=deadline,
        )

    def _evaluate_bounded(
        self,
        query: ConjunctiveQuery,
        k: Optional[int],
        tau: Optional[float],
        plan: str,
        use_fds: bool,
        conf_method: str,
        join_order: Optional[Sequence[str]],
        execution: Optional[str],
        confidence: Optional[str],
        max_steps: Optional[int],
        deadline: Optional[Deadline] = None,
    ) -> EvaluationResult:
        self._reopen()
        execution, confidence, _ = self._resolve_modes(
            plan, conf_method, execution, confidence, None
        )
        self._check_supported(query)
        if (
            confidence == "exact"
            and plan in ("lazy", "eager", "hybrid")
            and self.is_tractable(query, use_fds)
        ):
            result = self.evaluate(
                query,
                plan=plan,
                use_fds=use_fds,
                conf_method=conf_method,
                join_order=join_order,
                execution=execution,
                confidence="exact",
            )
            return self._select_from_exact(result, k, tau)
        return self._evaluate_scheduled(
            query, k, tau, join_order, execution, confidence, max_steps, deadline
        )

    def _select_from_exact(
        self, result: EvaluationResult, k: Optional[int], tau: Optional[float]
    ) -> EvaluationResult:
        """Top-k / threshold selection over already exact confidences."""
        confidences = result.confidences()
        ranked = sorted(confidences.items(), key=lambda item: (-item[1], repr(item[0])))
        if k is not None:
            chosen = ranked[:k]
        else:
            chosen = [(data, conf) for data, conf in ranked if conf >= tau]
        selected = Relation(result.relation.name, result.relation.schema)
        for data, conf in chosen:
            selected.append(tuple(data) + (conf,))
        result.relation = selected
        result.bounds = {data: (conf, conf) for data, conf in confidences.items()}
        result.k = k
        result.tau = tau
        result.decided = True
        return result

    def _evaluate_scheduled(
        self,
        query: ConjunctiveQuery,
        k: Optional[int],
        tau: Optional[float],
        join_order: Optional[Sequence[str]],
        execution: str,
        confidence: str,
        max_steps: Optional[int],
        deadline: Optional[Deadline] = None,
    ) -> EvaluationResult:
        """Multi-tuple bound-driven refinement over the lineage d-trees."""
        started = perf_counter()
        answer = self._answer_lineage(query, join_order, execution)
        tuples_seconds = perf_counter() - started

        started = perf_counter()
        outcome, finishing_steps = self._run_scheduler(
            answer, k, tau, confidence, max_steps, deadline
        )
        prob_seconds = perf_counter() - started

        ordered = sorted(outcome.selected, key=lambda c: (-c.midpoint, repr(c.data)))
        relation = self._confidence_relation(
            answer.schema,
            query.name,
            ((candidate.data, candidate.midpoint) for candidate in ordered),
        )
        return EvaluationResult(
            query_name=query.name,
            plan_style="dtree",
            relation=relation,
            signature=None,
            execution=execution,
            join_order=answer.order,
            tuples_seconds=tuples_seconds,
            prob_seconds=prob_seconds,
            answer_rows=answer.answer_rows,
            rows_processed=answer.rows_processed,
            scans_used=1,
            confidence=confidence,
            epsilon=None,
            bounds=outcome.bounds(),
            k=k,
            tau=tau,
            decided=outcome.decided,
            refine_steps=outcome.steps + finishing_steps,
            delta_steps=outcome.steps + finishing_steps,
            degraded=outcome.degraded,
        )

    def _run_scheduler(
        self,
        answer: _AnswerLineage,
        k: Optional[int],
        tau: Optional[float],
        confidence: str,
        max_steps: Optional[int],
        deadline: Optional[Deadline] = None,
    ):
        """Live cached views + bound-driven scheduling.

        The candidates are views over the engine's hash-consed lineage store,
        and the scheduler expands the shared nodes the gating tuples value
        most (:func:`repro.sprout.topk.run_decision`).
        """
        trees = dtrees_from_dnfs(
            answer.lineage, answer.probabilities, cache=self._proven_cache(answer)
        )
        candidates = [TupleCandidate(data, tree=tree) for data, tree in trees.items()]
        # run_decision is the single decision+finishing routine shared with
        # standing queries: with the default engine budget each selected
        # tuple gets dtree_max_steps of exact finishing (the same per-tuple
        # cap exact-mode evaluate() grants) and exhaustion raises
        # ApproximationBudgetError; an explicit per-call max_steps instead
        # caps the whole call (leftover after the decision, shared across
        # tuples) and is reported, never raised.
        return run_decision(
            candidates,
            k,
            tau,
            confidence,
            max_steps,
            self.dtree_max_steps,
            store=self.dtree_cache.store,
            deadline=deadline,
        )

    # -- lazy plans -------------------------------------------------------------------

    def _answer_relation(
        self,
        query: ConjunctiveQuery,
        join_order: Optional[Sequence[str]],
        execution: str = "row",
    ) -> Tuple[Relation, List[str], int]:
        return materialize_answer(self.database, self.planner, query, join_order, execution)

    def _answer_lineage(
        self,
        query: ConjunctiveQuery,
        join_order: Optional[Sequence[str]],
        execution: str,
    ) -> _AnswerLineage:
        """The answer's per-tuple lineage, computed once per engine lifetime.

        The paper's lazy thesis applied across requests: a (query, join
        order, execution) this engine has answered since its last
        :meth:`close` is served from a small LRU memo as long as every
        referenced base table is the same relation with the same row count —
        the evidence :meth:`Relation.columns_cached` already trusts.  Only
        the lineage routes are memoised; operator plans always run.  A hit
        still looks every tuple up in ``dtree_cache``, so the view cache's
        counters see exactly the calls they saw without the memo; its
        probability guard holds through the entry's proof (:meth:`_proven_cache`).
        """
        key = (
            query,
            tuple(join_order) if join_order else None,
            execution,
            # The database keeps its relations alive, so ids are stable.
            tuple(
                (id(relation), len(relation))
                for relation in map(self.database.relation, query.table_names())
            ),
        )
        answer = self._answer_memo.get(key)
        if answer is not None:
            self.answer_hits += 1
            self._answer_memo.move_to_end(key)
            return answer
        self.answer_misses += 1
        answer = self._compute_answer_lineage(query, join_order, execution)
        self._answer_memo[key] = answer
        if len(self._answer_memo) > ANSWER_MEMO_ENTRIES:
            self._answer_memo.popitem(last=False)
        return answer

    def _proven_cache(self, answer: _AnswerLineage):
        """``dtree_cache``, the answer's marginals guarded against its store
        once per (answer, store, space version), not per tuple per request."""
        cache = self.dtree_cache
        answer.proof = cache.prove(answer.probabilities, answer.proof)
        return cache

    def _compute_answer_lineage(
        self,
        query: ConjunctiveQuery,
        join_order: Optional[Sequence[str]],
        execution: str,
    ) -> _AnswerLineage:
        """Materialise the answer and extract per-tuple lineage.

        Under ``execution="batch"`` the answer stays columnar end to end:
        the batch join pipeline's output is walked column-wise
        (:func:`repro.sprout.onescan.columnar_lineage`) without ever
        materialising row tuples, producing the same clause sets and
        probability map as the row path.
        """
        if execution == "batch":
            order = list(join_order) if join_order else self.planner.lazy_join_order(query)
            plan = build_answer_plan_batch(self.database, query, order)
            plan = project_answer_columns(plan, query)
            batch = plan.to_batch(query.name)
            # The clause frozensets are interned in the engine's store as
            # they are extracted, so every recurrence of a clause — across
            # rows, tuples, and later evaluations — is one shared object with
            # one cached hash.
            clause_sets, probabilities = columnar_lineage(
                batch, interner=self.dtree_cache.interner
            )
            return _AnswerLineage(
                schema=batch.schema,
                order=order,
                rows_processed=plan.total_rows_processed(),
                answer_rows=len(batch),
                lineage={data: DNF(clauses) for data, clauses in clause_sets.items()},
                probabilities=probabilities,
            )
        answer, order, rows_processed = self._answer_relation(query, join_order, "row")
        return _AnswerLineage(
            schema=answer.schema,
            order=order,
            rows_processed=rows_processed,
            answer_rows=len(answer),
            lineage=lineage_by_tuple(answer),
            probabilities=probabilities_from_answer(answer),
        )

    def _evaluate_lazy(
        self,
        query: ConjunctiveQuery,
        use_fds: bool,
        conf_method: str,
        join_order: Optional[Sequence[str]],
        materialize_to_disk: bool,
    ) -> EvaluationResult:
        signature = self.signature_for(query, use_fds)

        started = perf_counter()
        answer, order, rows_processed = self._answer_relation(query, join_order)
        # The operator's required sort order (data columns, then variable
        # columns in 1scanTree preorder) is produced while materialising the
        # answer, exactly as the lazy plans of Section VII do.
        sort_order = sort_column_order(answer.schema, signature)
        answer = answer.sorted_by(sort_order)
        if materialize_to_disk:
            heap = HeapFile(answer.schema)
            heap.write_rows(answer.rows)
            heap.close()
        tuples_seconds = perf_counter() - started

        started = perf_counter()
        schedule: Optional[ScanSchedule]
        result_relation, schedule, scans_used = compute_answer_confidences(
            answer, signature, conf_method=conf_method, name=query.name
        )
        prob_seconds = perf_counter() - started

        return EvaluationResult(
            query_name=query.name,
            plan_style="lazy",
            relation=result_relation,
            signature=signature,
            join_order=order,
            tuples_seconds=tuples_seconds,
            prob_seconds=prob_seconds,
            answer_rows=len(answer),
            rows_processed=rows_processed,
            scans_used=scans_used,
            scan_schedule=schedule,
        )

    def _evaluate_lazy_batch(
        self,
        query: ConjunctiveQuery,
        use_fds: bool,
        conf_method: str,
        join_order: Optional[Sequence[str]],
        materialize_to_disk: bool,
    ) -> EvaluationResult:
        """Columnar twin of :meth:`_evaluate_lazy`.

        The answer never takes row form between the scans and the confidence
        computation: batches flow through the columnar join pipeline, are
        concatenated into one ColumnBatch, sorted column-wise, and handed to
        the columnar scan-based operator.
        """
        signature = self.signature_for(query, use_fds)

        started = perf_counter()
        order = list(join_order) if join_order else self.planner.lazy_join_order(query)
        plan = build_answer_plan_batch(self.database, query, order)
        plan = project_answer_columns(plan, query)
        answer = plan.to_batch(query.name)
        rows_processed = plan.total_rows_processed()
        sort_order = sort_column_order(answer.schema, signature)
        answer = sort_batch(answer, sort_order)
        if materialize_to_disk:
            heap = HeapFile(answer.schema)
            heap.write_rows(answer.rows())
            heap.close()
        tuples_seconds = perf_counter() - started

        started = perf_counter()
        schedule: Optional[ScanSchedule]
        result_relation, schedule, scans_used = compute_answer_confidences(
            answer, signature, conf_method=conf_method, execution="batch", name=query.name
        )
        prob_seconds = perf_counter() - started

        return EvaluationResult(
            query_name=query.name,
            plan_style="lazy",
            relation=result_relation,
            signature=signature,
            execution="batch",
            join_order=order,
            tuples_seconds=tuples_seconds,
            prob_seconds=prob_seconds,
            answer_rows=len(answer),
            rows_processed=rows_processed,
            scans_used=scans_used,
            scan_schedule=schedule,
        )

    # -- eager / hybrid plans ------------------------------------------------------------

    def _evaluate_eager_or_hybrid(
        self, query: ConjunctiveQuery, plan: str, use_fds: bool, execution: str = "row"
    ) -> EvaluationResult:
        signature = self.signature_for(query, use_fds)
        tree = self.hierarchy_for(query, use_fds)
        order = self.planner.hierarchical_join_order(query, tree)

        started = perf_counter()
        node_result = eager_evaluation(
            self.database,
            query,
            tree,
            signature,
            aggregate_leaves=(plan == "eager"),
            head_attributes=self.planning_head(query, use_fds),
            execution=execution,
        )
        # Project away the functionally determined companions of the head that
        # were carried along for the joins, then aggregate by the true head so
        # that exactly one row per distinct data tuple remains.
        final = node_result.relation
        pair = final.schema.var_prob_pairs()[0]
        keep = [a for a in query.projection if a in final.schema]
        keep += [pair.var_name, pair.prob_name]
        if keep != list(final.schema.names):
            final = final.project(keep)
        final = _aggregate_pair(final, node_result.leader, execution=execution)
        elapsed = perf_counter() - started

        relation = self._finalize(final, query, execution)
        return EvaluationResult(
            query_name=query.name,
            plan_style=plan,
            relation=relation,
            signature=signature,
            execution=execution,
            join_order=order,
            tuples_seconds=elapsed,
            prob_seconds=0.0,
            answer_rows=len(final),
            rows_processed=node_result.rows_processed,
            scans_used=0,
        )

    # -- lineage fallback ---------------------------------------------------------------

    def _evaluate_lineage(
        self,
        query: ConjunctiveQuery,
        join_order: Optional[Sequence[str]],
        execution: str = "row",
    ) -> EvaluationResult:
        started = perf_counter()
        answer, order, rows_processed = self._answer_relation(query, join_order, execution)
        tuples_seconds = perf_counter() - started

        started = perf_counter()
        confidences = confidences_from_lineage(answer)
        prob_seconds = perf_counter() - started

        relation = self._confidence_relation(
            answer.schema,
            query.name,
            sorted(confidences.items(), key=lambda item: repr(item[0])),
        )
        return EvaluationResult(
            query_name=query.name,
            plan_style="lineage",
            relation=relation,
            signature=None,
            execution=execution,
            join_order=order,
            tuples_seconds=tuples_seconds,
            prob_seconds=prob_seconds,
            answer_rows=len(answer),
            rows_processed=rows_processed,
            scans_used=1,
        )

    # -- d-tree path (unsafe queries and anytime approximation) -------------------------

    def _evaluate_dtree(
        self,
        query: ConjunctiveQuery,
        join_order: Optional[Sequence[str]],
        execution: str,
        confidence: str,
        epsilon: float,
    ) -> EvaluationResult:
        """Evaluate via lineage + decomposition trees.

        ``confidence="exact"`` compiles every tuple's d-tree to completion
        (raising :class:`repro.errors.ApproximationBudgetError` if the step
        cap is hit first); ``"approx"`` stops at the ``epsilon`` budget and
        records guaranteed bounds in :attr:`EvaluationResult.bounds`.

        The tuples are views over the engine's one shared store
        (:func:`compute_confidences` is handed ``dtree_cache``): refinement
        done here, or by an earlier top-k/threshold/evaluate over the same
        lineage, is never redone, ``refine_steps`` counts this call's
        expansions only, and an approximate bracket is sound and at most
        ``2 * epsilon`` wide but may be *tighter* than a cold run's.  Exact
        confidences are bit-identical to a fresh engine's.  The Karp–Luby
        fallback seed derives from the engine seed and the tuple's lineage.
        """
        started = perf_counter()
        answer = self._answer_lineage(query, join_order, execution)
        tuples_seconds = perf_counter() - started

        started = perf_counter()
        results = compute_confidences(
            answer.lineage,
            answer.probabilities,
            self._proven_cache(answer),
            epsilon=0.0 if confidence == "exact" else epsilon,
            max_steps=self.dtree_max_steps,
            monte_carlo_samples=(
                None if confidence == "exact" else self.monte_carlo_samples
            ),
            base_seed=self.seed,
        )
        prob_seconds = perf_counter() - started

        # compute_confidences returns the tuples in ``repr`` order.
        relation = self._confidence_relation(
            answer.schema,
            query.name,
            ((data, result.probability) for data, result in results.items()),
        )
        bounds: Dict[Tuple[object, ...], Tuple[float, float]] = {
            tuple(data): (result.lower, result.upper) for data, result in results.items()
        }
        return EvaluationResult(
            query_name=query.name,
            plan_style="dtree",
            relation=relation,
            signature=None,
            execution=execution,
            join_order=answer.order,
            tuples_seconds=tuples_seconds,
            prob_seconds=prob_seconds,
            answer_rows=answer.answer_rows,
            rows_processed=answer.rows_processed,
            scans_used=1,
            confidence=confidence,
            epsilon=None if confidence == "exact" else epsilon,
            bounds=bounds,
            refine_steps=sum(result.steps for result in results.values()),
            delta_steps=sum(result.steps for result in results.values()),
        )

    # -- helpers -----------------------------------------------------------------------

    @staticmethod
    def _confidence_relation(answer_schema: Schema, name: str, items) -> Relation:
        """A data-columns + ``conf`` relation from (data tuple, confidence) pairs."""
        data_attributes = [a for a in answer_schema if a.role is ColumnRole.DATA]
        schema = Schema(list(data_attributes) + [Attribute("conf", "float")])
        relation = Relation(name, schema)
        for data, confidence in items:
            relation.append(tuple(data) + (confidence,))
        return relation

    def _finalize(self, relation, query: ConjunctiveQuery, execution: str) -> Relation:
        """Rename the surviving probability column to ``conf`` and drop variables.

        ``relation`` is the eager/hybrid plan's final :class:`Relation`
        (``execution="row"``) or ``ColumnBatch`` (``"batch"``, which leaves
        the columnar form here through one ``Relation.from_columns``).
        """
        pairs = relation.schema.var_prob_pairs()
        if len(pairs) != 1:
            raise PlanningError(
                f"expected exactly one surviving V/P pair, found {len(pairs)}"
            )
        pair = pairs[0]
        data_names = [a.name for a in relation.schema if a.role is ColumnRole.DATA]
        schema = Schema(
            [relation.schema[name] for name in data_names] + [Attribute("conf", "float")]
        )
        data_indices = relation.schema.indices_of(data_names)
        if execution == "batch":
            columns = [relation.columns[i] for i in (*data_indices, pair.prob_index)]
            return Relation.from_columns(query.name, schema, columns, length=relation.length)
        result = Relation(query.name, schema)
        for row in relation:
            result.append(tuple(row[i] for i in data_indices) + (row[pair.prob_index],))
        return result
