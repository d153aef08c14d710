"""SPROUT core: confidence operator, scan scheduling, planners, engine.

The system layer that turns a conjunctive query into an answer relation
with confidences:

* :mod:`repro.sprout.engine` — :class:`SproutEngine`, the public entry
  point: plan styles (lazy/eager/hybrid/lineage/dtree), row vs. batch
  execution, exact vs. anytime-approximate confidence, and the
  top-k/threshold APIs.
* :mod:`repro.sprout.planner` — join ordering, answer-plan construction,
  and the eager/hybrid evaluation that interleaves joins with aggregation.
* :mod:`repro.sprout.conf_operator` — the probability-computation
  operator's literal Fig. 5 semantics (aggregation/propagation sequences).
* :mod:`repro.sprout.scans` / :mod:`repro.sprout.onescan` — the scan-based
  secondary-storage implementation (Section V.C): pre-aggregation
  scheduling and the single-pass operator for 1scan signatures, in row and
  columnar variants.
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

from repro.sprout.conf_operator import (
    ConfOperatorResult,
    ConfStep,
    apply_semantics,
    compute_answer_confidences,
    grp_statements,
)
from repro.sprout.engine import (
    CONF_METHODS,
    CONFIDENCE_MODES,
    EXECUTION_MODES,
    PLAN_STYLES,
    EvaluationResult,
    SproutEngine,
)
from repro.sprout.onescan import (
    ColumnMap,
    OneScanState,
    column_map_for,
    columnar_bag_probability,
    columnar_lineage,
    columnar_scan_confidences,
    group_probability,
    one_scan_operator,
    one_scan_operator_columns,
    scan_confidences,
    sort_column_order,
    streaming_scan_confidences,
)
from repro.sprout.planner import (
    JoinOrderPlanner,
    base_table_plan,
    base_table_plan_batch,
    build_answer_plan,
    build_answer_plan_batch,
    eager_evaluation,
    evaluate_deterministic,
    materialize_answer,
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
    apply_scan_schedule,
    apply_scan_schedule_columns,
    schedule_scans,
)

__all__ = [
    "CONF_METHODS",
    "CONFIDENCE_MODES",
    "EXECUTION_MODES",
    "ColumnMap",
    "ConfOperatorResult",
    "ConfStep",
    "EvaluationResult",
    "JoinOrderPlanner",
    "OneScanState",
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
    "apply_scan_schedule",
    "apply_scan_schedule_columns",
    "apply_semantics",
    "compute_answer_confidences",
    "base_table_plan",
    "base_table_plan_batch",
    "build_answer_plan",
    "build_answer_plan_batch",
    "column_map_for",
    "columnar_bag_probability",
    "columnar_lineage",
    "columnar_scan_confidences",
    "one_scan_operator_columns",
    "eager_evaluation",
    "evaluate_deterministic",
    "finish_selected",
    "group_probability",
    "grp_statements",
    "materialize_answer",
    "needed_data_attributes",
    "one_scan_operator",
    "run_decision",
    "scan_confidences",
    "schedule_scans",
    "sort_column_order",
    "streaming_scan_confidences",
]
