"""SPROUT core: confidence operator, scan scheduling, planners, engine.

The system layer that turns a conjunctive query into an answer relation
with confidences:

* :mod:`repro.sprout.engine` — :class:`SproutEngine`, the public entry
  point: plan styles (lazy/eager/hybrid/dtree), exact vs.
  anytime-approximate confidence, and the top-k/threshold APIs, all on one
  columnar physical backend.
* :mod:`repro.sprout.planner` — join ordering, answer-plan construction,
  and the eager/hybrid evaluation that interleaves joins with aggregation.
* :mod:`repro.sprout.conf_operator` — the probability-computation
  operator inside plans: Fig. 5's aggregation/propagation sequence for
  eager/hybrid plan nodes and the scan-based operator on top of lazy plans.
* :mod:`repro.sprout.scans` / :mod:`repro.sprout.onescan` — the scan-based
  secondary-storage implementation (Section V.C): pre-aggregation
  scheduling and the single-pass operator for 1scan signatures over one
  column batch.
* :mod:`repro.sprout.topk` — bound-driven top-k/threshold refinement
  scheduling over the brackets of views of one shared lineage store.
* :mod:`repro.sprout.streaming` — standing top-k/threshold queries over
  delta feeds: :class:`StandingQuery` keeps the decided set live across
  probability updates and tuple inserts/deletes, re-deciding warm on the
  shared DAG (``docs/streaming.md``).
* :mod:`repro.sprout.parallel` — per-tuple confidence of plain d-tree
  evaluation (:func:`compute_confidences`) and the seeded Karp–Luby
  fallback it shares across routes.

``docs/architecture.md`` walks the full pipeline end to end.
"""

from repro.sprout.conf_operator import compute_answer_confidences
from repro.sprout.engine import (
    CONFIDENCE_MODES,
    PLAN_STYLES,
    EvaluationResult,
    SproutEngine,
)
from repro.sprout.onescan import (
    ColumnMap,
    columnar_lineage,
    columnar_scan_confidences,
    one_scan_operator_columns,
    sort_column_order,
)
from repro.sprout.planner import (
    JoinOrderPlanner,
    base_table_plan_batch,
    build_answer_plan_batch,
    eager_evaluation,
    needed_data_attributes,
)
from repro.sprout.parallel import compute_confidences, derive_task_seed
from repro.sprout.streaming import StandingQuery
from repro.sprout.topk import (
    RefinementScheduler,
    SchedulerOutcome,
    TupleCandidate,
    finish_selected,
    run_decision,
)
from repro.sprout.scans import (
    ScanSchedule,
    ScanStep,
    apply_scan_schedule_columns,
    schedule_scans,
)

__all__ = [
    "CONFIDENCE_MODES",
    "ColumnMap",
    "EvaluationResult",
    "JoinOrderPlanner",
    "PLAN_STYLES",
    "RefinementScheduler",
    "ScanSchedule",
    "ScanStep",
    "SchedulerOutcome",
    "SproutEngine",
    "StandingQuery",
    "TupleCandidate",
    "compute_confidences",
    "derive_task_seed",
    "apply_scan_schedule_columns",
    "compute_answer_confidences",
    "base_table_plan_batch",
    "build_answer_plan_batch",
    "columnar_lineage",
    "columnar_scan_confidences",
    "one_scan_operator_columns",
    "eager_evaluation",
    "finish_selected",
    "needed_data_attributes",
    "run_decision",
    "schedule_scans",
    "sort_column_order",
]
