"""Relational algebra: row (iterator) and columnar (batch) physical operators.

Two complete physical backends with bit-identical semantics:

* :mod:`repro.algebra.operators`, :mod:`repro.algebra.joins`,
  :mod:`repro.algebra.aggregate`, :mod:`repro.algebra.sort` — the
  iterator-model operators (scan, select, project, hash join, group-by with
  the ``prob`` disjunction aggregate, sort): one Python tuple at a time.
* :mod:`repro.algebra.columnar` — the batch backend: operators exchange
  one whole :class:`repro.algebra.columnar.ColumnBatch` (one Python list per
  column) and evaluate selections/joins/aggregations column-wise.
* :mod:`repro.algebra.expressions` — selection predicates shared by both.
* :mod:`repro.algebra.stats` — table statistics and selectivity estimation
  for the lazy planner's greedy join ordering.

The engine picks the backend per call via ``execution="row"|"batch"``; see
``docs/architecture.md`` for how plans are assembled from these operators.
"""

from repro.algebra.aggregate import (
    AGGREGATE_FUNCTIONS,
    AggregateSpec,
    GroupByOp,
    mystiq_log_prob_or,
    prob_or,
)
from repro.algebra.columnar import (
    BatchGroupByOp,
    BatchHashJoinOp,
    BatchMaterializedOp,
    BatchOperator,
    BatchProjectOp,
    BatchScanOp,
    BatchSelectOp,
    BatchSortOp,
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
    RenameOp,
    ScanOp,
    SelectOp,
)
from repro.algebra.plan import ExecutionResult, count_operators, execute, explain, walk
from repro.algebra.sort import DistinctOp, SortOp
from repro.algebra.stats import (
    StatisticsCatalog,
    TableStatistics,
    estimate_join_size,
    estimate_selectivity,
)

__all__ = [
    "AGGREGATE_FUNCTIONS",
    "AggregateSpec",
    "AttributeComparison",
    "BatchGroupByOp",
    "BatchHashJoinOp",
    "BatchMaterializedOp",
    "BatchOperator",
    "BatchProjectOp",
    "BatchScanOp",
    "BatchSelectOp",
    "BatchSortOp",
    "ColumnBatch",
    "Comparison",
    "Conjunction",
    "Disjunction",
    "DistinctOp",
    "compile_selection",
    "group_by_columns",
    "sort_batch",
    "ExecutionResult",
    "GroupByOp",
    "HashJoinOp",
    "JoinOp",
    "MaterializedOp",
    "MergeJoinOp",
    "Negation",
    "NestedLoopJoinOp",
    "Operator",
    "Predicate",
    "ProjectOp",
    "RenameOp",
    "ScanOp",
    "SelectOp",
    "SortOp",
    "StatisticsCatalog",
    "TableStatistics",
    "TruePredicate",
    "conjunction_of",
    "count_operators",
    "estimate_join_size",
    "estimate_selectivity",
    "execute",
    "explain",
    "mystiq_log_prob_or",
    "natural_join_attributes",
    "prob_or",
    "walk",
]
