"""Relational algebra: the columnar physical operators the engine runs.

* :mod:`repro.algebra.columnar` — operators exchange one whole
  :class:`repro.algebra.columnar.ColumnBatch` (one Python list per column)
  and evaluate selections/joins/aggregations column-wise.
* :mod:`repro.algebra.aggregate` — the aggregate functions, among them the
  ``prob`` disjunction aggregate of the conf() operator.
* :mod:`repro.algebra.expressions` — selection predicates.
* :mod:`repro.algebra.stats` — table statistics and selectivity estimation
  for the lazy planner's greedy join ordering.
* :mod:`repro.algebra.operators` / :mod:`repro.algebra.joins` — iterator-model
  (one Python tuple at a time) scan, select, project and joins; the emulated
  MystiQ baseline runs on them, and the tests' row reference pipeline
  (``tests/oracles/rows.py``) is built from them.

See ``docs/architecture.md`` for how plans are assembled from these operators.
"""

from repro.algebra.aggregate import (
    AGGREGATE_FUNCTIONS,
    AggregateSpec,
    mystiq_log_prob_or,
    prob_or,
)
from repro.algebra.columnar import (
    BatchHashJoinOp,
    BatchMaterializedOp,
    BatchOperator,
    BatchProjectOp,
    BatchScanOp,
    BatchSelectOp,
    ColumnBatch,
    compile_selection,
    group_by_columns,
    sort_batch,
)
from repro.algebra.expressions import (
    AttributeComparison,
    Comparison,
    Conjunction,
    Disjunction,
    Negation,
    Predicate,
    TruePredicate,
    conjunction_of,
)
from repro.algebra.joins import (
    HashJoinOp,
    JoinOp,
    MergeJoinOp,
    NestedLoopJoinOp,
    natural_join_attributes,
)
from repro.algebra.operators import (
    MaterializedOp,
    Operator,
    ProjectOp,
    ScanOp,
    SelectOp,
)
from repro.algebra.stats import (
    StatisticsCatalog,
    TableStatistics,
    estimate_selectivity,
)

__all__ = [
    "AGGREGATE_FUNCTIONS",
    "AggregateSpec",
    "AttributeComparison",
    "BatchHashJoinOp",
    "BatchMaterializedOp",
    "BatchOperator",
    "BatchProjectOp",
    "BatchScanOp",
    "BatchSelectOp",
    "ColumnBatch",
    "Comparison",
    "Conjunction",
    "Disjunction",
    "compile_selection",
    "group_by_columns",
    "sort_batch",
    "HashJoinOp",
    "JoinOp",
    "MaterializedOp",
    "MergeJoinOp",
    "Negation",
    "NestedLoopJoinOp",
    "Operator",
    "Predicate",
    "ProjectOp",
    "ScanOp",
    "SelectOp",
    "StatisticsCatalog",
    "TableStatistics",
    "TruePredicate",
    "conjunction_of",
    "estimate_selectivity",
    "mystiq_log_prob_or",
    "natural_join_attributes",
    "prob_or",
]
