"""The iterator-model row pipeline: the reference the columnar engine is checked against.

The engine runs one physical backend, columnar from scan to ``conf``.  This
module is the row-at-a-time pipeline it replaced, kept as a differential
oracle: answer plans of row operators (one Python tuple at a time), the
group-by, the scan-based confidence operator over sorted rows — the recursive
:func:`group_probability` and the streaming :class:`OneScanState` of Fig. 8 —
with its pre-aggregation scans, the eager/hybrid plans' GRP and propagation
steps over rows, and the per-tuple lineage extraction of the d-tree routes.
:class:`RowEngine` plugs it into the engine in place of the columnar
pipeline, so every route (operator plans, d-tree evaluation, top-k,
threshold and standing queries) can be compared, bit for bit, against the
same route on rows.

The row operators themselves (scan, select, project, hash join) stay in
``repro.algebra``, where the emulated MystiQ baseline uses them.
"""

from __future__ import annotations

from itertools import groupby
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.algebra.aggregate import AGGREGATE_FUNCTIONS, AggregateSpec, aggregate_output_schema
from repro.algebra.expressions import TruePredicate
from repro.algebra.joins import HashJoinOp
from repro.algebra.operators import MaterializedOp, Operator, ProjectOp, ScanOp, SelectOp
from repro.errors import PlanningError, ProbabilityError, QueryError
from repro.prob.formulas import DNF
from repro.prob.lineage import split_answer_columns
from repro.prob.pdb import ProbabilisticDatabase
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.hierarchy import HierarchyNode
from repro.query.signature import (
    ConcatSig,
    Signature,
    StarSig,
    TableSig,
    has_one_scan_property,
    one_scan_tree,
    restrict_signature,
)
from repro.sprout.engine import EvaluationResult, SproutEngine, _AnswerLineage
from repro.sprout.onescan import sort_column_order
from repro.sprout.planner import EagerNodeResult, JoinOrderPlanner, needed_data_attributes
from repro.sprout.scans import ScanSchedule, ScanStep, schedule_scans
from repro.storage.relation import Relation
from repro.storage.schema import Attribute, ColumnRole, Schema

Row = Tuple[object, ...]
DataTuple = Tuple[object, ...]


# ---------------------------------------------------------------------------
# Answer plans
# ---------------------------------------------------------------------------


def base_table_plan(
    database: ProbabilisticDatabase,
    query: ConjunctiveQuery,
    table: str,
) -> Operator:
    """Scan → select → project plan for one base probabilistic table."""
    relation = database.relation(table)
    plan: Operator = ScanOp(relation, alias=table)
    selection = query.selections_on(table)
    if not isinstance(selection, TruePredicate):
        plan = SelectOp(plan, selection)
    table_obj = database.table(table)
    keep = needed_data_attributes(query, table)
    keep = keep + [table_obj.var_column, table_obj.prob_column]
    if list(keep) != list(relation.schema.names):
        plan = ProjectOp(plan, keep)
    return plan


def build_answer_plan(
    database: ProbabilisticDatabase,
    query: ConjunctiveQuery,
    join_order: Sequence[str],
) -> Operator:
    """Left-deep plan of natural hash joins following ``join_order``."""
    if set(join_order) != set(query.table_names()):
        raise PlanningError(
            f"join order {list(join_order)} does not cover the query tables "
            f"{query.table_names()}"
        )
    plan = base_table_plan(database, query, join_order[0])
    for table in join_order[1:]:
        right = base_table_plan(database, query, table)
        plan = HashJoinOp(plan, right)
    return plan


def materialize_answer(
    database: ProbabilisticDatabase,
    planner: JoinOrderPlanner,
    query: ConjunctiveQuery,
    join_order: Optional[Sequence[str]] = None,
) -> Tuple[Relation, List[str], int]:
    """Materialise the answer rows of ``query`` (with V/P columns carried).

    The row pipeline's front half: the row lazy plan and the lineage of the
    d-tree routes start from this relation.  Returns ``(answer, join order,
    rows processed)``.
    """
    order = list(join_order) if join_order else planner.lazy_join_order(query)
    plan = build_answer_plan(database, query, order)
    schema = plan.schema
    keep = [a for a in query.projection if a in schema]
    keep += [a.name for a in schema if a.role is not ColumnRole.DATA]
    plan = ProjectOp(plan, keep)
    relation = plan.to_relation(query.name)
    return relation, order, plan.total_rows_processed()


# ---------------------------------------------------------------------------
# Group-by
# ---------------------------------------------------------------------------


class GroupByOp(Operator):
    """Hash-based group-by with a list of aggregates.

    The output schema consists of the grouping attributes (with their original
    types and roles) followed by one column per aggregate.  Aggregate output
    columns inherit the role/source of their input column so that ``min`` over
    a variable column stays a variable column and ``prob`` over a probability
    column stays a probability column — this is what keeps the relational
    encoding of partially aggregated lineage well-formed between the steps of
    Fig. 6.
    """

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ):
        super().__init__()
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        self._schema = aggregate_output_schema(child.schema, self.group_by, self.aggregates)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def children(self) -> List[Operator]:
        return [self.child]

    def _execute(self) -> Iterator[Row]:
        child_schema = self.child.schema
        group_indices = child_schema.indices_of(self.group_by)
        aggregate_indices = [child_schema.index_of(s.input_attribute) for s in self.aggregates]
        groups: Dict[Tuple[object, ...], List[List[object]]] = {}
        order: List[Tuple[object, ...]] = []
        for row in self.child:
            key = tuple(row[i] for i in group_indices)
            bucket = groups.get(key)
            if bucket is None:
                bucket = [[] for _ in self.aggregates]
                groups[key] = bucket
                order.append(key)
            for position, index in enumerate(aggregate_indices):
                bucket[position].append(row[index])
        for key in order:
            bucket = groups[key]
            aggregated = tuple(
                AGGREGATE_FUNCTIONS[spec.function](values)
                for spec, values in zip(self.aggregates, bucket)
            )
            yield key + aggregated

    def label(self) -> str:
        aggregates = ", ".join(str(spec) for spec in self.aggregates)
        return f"GroupBy([{', '.join(self.group_by)}]; {aggregates})"


# ---------------------------------------------------------------------------
# The scan-based confidence operator over sorted rows
# ---------------------------------------------------------------------------


class ColumnMap:
    """Positions of the data columns and of each table's V/P pair, with
    per-row accessors."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.data_indices: List[int] = []
        self.var_index: Dict[str, int] = {}
        self.prob_index: Dict[str, int] = {}
        for pair in schema.var_prob_pairs():
            self.var_index[pair.source] = pair.var_index
            self.prob_index[pair.source] = pair.prob_index
        for position, attribute in enumerate(schema):
            if attribute.role is ColumnRole.DATA:
                self.data_indices.append(position)

    def tables(self) -> List[str]:
        return list(self.var_index)

    def data_of(self, row: Row) -> Tuple[object, ...]:
        return tuple(row[i] for i in self.data_indices)

    def var_of(self, row: Row, table: str) -> int:
        try:
            return row[self.var_index[table]]
        except KeyError:
            raise QueryError(f"no variable column for table {table!r}") from None

    def prob_of(self, row: Row, table: str) -> float:
        return row[self.prob_index[table]]


# ---------------------------------------------------------------------------
# Recursive factorised evaluation of one bag of duplicates
# ---------------------------------------------------------------------------


def group_probability(signature: Signature, rows: Sequence[Row], columns: ColumnMap) -> float:
    """Probability of the 1OF factorisation of one bag of duplicate rows.

    ``rows`` are the answer rows sharing one data tuple; the signature
    describes how their DNF factors.  Concatenation parts are independent
    factors evaluated over the distinct projections of the rows onto their
    variable columns; a starred composite partitions its rows by the leader
    table's variable.
    """
    if not rows:
        raise ProbabilityError("cannot compute the probability of an empty bag")
    if isinstance(signature, TableSig):
        return _single_table_probability(signature.table, rows, columns)
    if isinstance(signature, ConcatSig):
        probability = 1.0
        for part in signature.parts:
            probability *= group_probability(part, _distinct_for(part, rows, columns), columns)
        return probability
    if isinstance(signature, StarSig):
        inner = signature.inner
        if isinstance(inner, TableSig):
            return _or_over_distinct_variables(inner.table, rows, columns)
        parts = inner.top_level_parts()
        leader = next((p.table for p in parts if isinstance(p, TableSig)), None)
        if leader is None:
            raise QueryError(
                f"signature {signature} lacks the 1scan property; "
                "pre-aggregate with repro.sprout.scans first"
            )
        # Partitions are identified by the leader table's variable.  Grouping
        # uses a dictionary (insertion-ordered) rather than adjacency so the
        # result does not depend on the sort order within the bag; with the
        # operator's preferred sort order the groups are contiguous anyway.
        partitions: Dict[int, List[Row]] = {}
        for row in rows:
            partitions.setdefault(columns.var_of(row, leader), []).append(row)
        none_true = 1.0
        for partition_rows in partitions.values():
            partition_probability = 1.0
            for part in parts:
                partition_probability *= group_probability(
                    part, _distinct_for(part, partition_rows, columns), columns
                )
            none_true *= 1.0 - partition_probability
        return 1.0 - none_true
    raise QueryError(f"unknown signature node {signature!r}")


def _single_table_probability(table: str, rows: Sequence[Row], columns: ColumnMap) -> float:
    _check_single(table, len({columns.var_of(row, table) for row in rows}))
    return columns.prob_of(rows[0], table)


def _check_single(table: str, found: int) -> None:
    if found != 1:
        raise ProbabilityError(
            f"signature promises a single {table} variable per group but found "
            f"{found}; the signature (or its FD refinement) is too precise for this data"
        )


def _or_over_distinct_variables(table: str, rows: Sequence[Row], columns: ColumnMap) -> float:
    none_true = 1.0
    seen = set()
    for row in rows:
        variable = columns.var_of(row, table)
        if variable in seen:
            continue
        seen.add(variable)
        none_true *= 1.0 - columns.prob_of(row, table)
    return 1.0 - none_true


def _distinct_for(part: Signature, rows: Sequence[Row], columns: ColumnMap) -> List[Row]:
    """Distinct rows with respect to the variable columns of ``part``'s tables.

    Within a group, sibling factors are cross-producted by the join; each
    factor's own formula is the projection of the clauses onto its variables,
    so duplicates (identical variable combinations) are dropped.  Row order is
    preserved so nested leader-groupings stay contiguous.
    """
    indices = [columns.var_index[table] for table in part.tables() if table in columns.var_index]
    seen = set()
    result: List[Row] = []
    for row in rows:
        key = tuple(row[i] for i in indices)
        if key in seen:
            continue
        seen.add(key)
        result.append(row)
    return result


# ---------------------------------------------------------------------------
# Scanning an entire (sorted) answer relation
# ---------------------------------------------------------------------------


def scan_confidences(
    rows: Iterable[Row],
    columns: ColumnMap,
    signature: Signature,
) -> Iterator[Tuple[Tuple[object, ...], float]]:
    """Yield ``(data_tuple, confidence)`` for every bag of a sorted answer.

    ``rows`` must be sorted by the data columns first (bags contiguous) and by
    the variable columns in signature order within each bag.
    """
    for data, bag in groupby(rows, key=columns.data_of):
        yield data, group_probability(signature, list(bag), columns)


def one_scan_operator(
    answer: Relation,
    signature: Signature,
    presorted: bool = False,
    name: Optional[str] = None,
) -> Relation:
    """Materialised form of the scan-based operator.

    Sorts the answer (unless ``presorted``) by the operator's required order
    and computes the confidence of every distinct data tuple in one pass.
    The result relation carries the data columns plus a ``conf`` column.
    """
    columns = ColumnMap(answer.schema)
    if presorted:
        rows: Iterable[Row] = answer.rows
    else:
        order = sort_column_order(answer.schema, signature)
        rows = answer.sorted_by(order).rows

    data_attributes = [answer.schema[answer.schema.names[i]] for i in columns.data_indices]
    result_schema = Schema(list(data_attributes) + [Attribute("conf", "float")])
    result = Relation(name or answer.name, result_schema)
    for data, confidence in scan_confidences(rows, columns, signature):
        result.append(data + (confidence,))
    return result


# ---------------------------------------------------------------------------
# Streaming evaluator with per-node running probabilities (Fig. 8 spirit)
# ---------------------------------------------------------------------------


def _count_partitioned_branches(signature: Signature) -> int:
    """Number of top-level parts that can have several partitions per bag."""
    return sum(
        1 for part in signature.top_level_parts() if isinstance(part, StarSig)
    )


def _check_streaming_supported(signature: Signature) -> None:
    """Reject signatures whose variable partitions re-occur non-adjacently.

    The constant-memory streaming evaluator identifies partitions by value
    changes in a column.  When two or more sibling branches each have several
    partitions per group (a many-to-many cross product, e.g. ``R*S*`` or
    ``(R1(R2R3*)*(R4R5*)*)*``), the branch sorted later re-visits old
    partitions and value-change detection alone is insufficient (the paper's
    Fig. 8 handles this with its enable/disable flags).  Those signatures do
    not occur in the TPC-H workload; for them use :func:`scan_confidences`,
    which buffers one bag of duplicates and is correct in general.
    """

    def check(node: Signature) -> None:
        if isinstance(node, TableSig):
            return
        if isinstance(node, StarSig):
            inner_parts = node.inner.top_level_parts()
            if sum(1 for part in inner_parts if isinstance(part, StarSig)) > 1:
                raise QueryError(
                    f"signature {node} has several starred sibling branches; "
                    "the streaming evaluator does not support many-to-many "
                    "cross products — use scan_confidences instead"
                )
            for part in inner_parts:
                check(part)
            return
        if isinstance(node, ConcatSig):
            if _count_partitioned_branches(node) > 1:
                raise QueryError(
                    f"signature {node} is a product of several starred factors; "
                    "use scan_confidences instead of the streaming evaluator"
                )
            for part in node.parts:
                check(part)
            return
        raise QueryError(f"unknown signature node {node!r}")

    check(signature)


class _StreamNode:
    """Running state of one 1scanTree node: current and completed partitions."""

    __slots__ = ("table", "children", "crt_probability", "all_probability", "current_variable")

    def __init__(self, table: str, children: Sequence["_StreamNode"]):
        self.table = table
        self.children = list(children)
        self.reset()

    def reset(self) -> None:
        self.crt_probability = 0.0
        self.all_probability = 0.0
        self.current_variable = None

    def close_partition(self) -> None:
        """Fold the current partition (times the children) into allP."""
        if self.current_variable is None:
            return
        probability = self.crt_probability
        for child in self.children:
            child.close_partition()
            probability *= child.all_probability
        self.all_probability = 1.0 - (1.0 - self.all_probability) * (1.0 - probability)
        self.crt_probability = 0.0
        self.current_variable = None
        for child in self.children:
            child.reset()

    def result(self) -> float:
        return self.all_probability


class OneScanState:
    """Streaming one-scan confidence computation for a single bag of duplicates.

    Keeps one :class:`_StreamNode` per variable column; processing a row costs
    O(number of columns) and no rows are buffered — the memory profile of the
    secondary-storage operator described in the paper.  Requires the input
    rows of the bag to be sorted by the variable columns in 1scanTree preorder
    and every starred composite of the signature to have a star-free leader
    (the 1scan property).
    """

    def __init__(self, signature: Signature, columns: ColumnMap):
        if not has_one_scan_property(signature):
            raise QueryError(
                f"signature {signature} lacks the 1scan property; "
                "use repro.sprout.scans.schedule_scans first"
            )
        _check_streaming_supported(signature)
        self.signature = signature
        self.columns = columns
        self.roots = [self._build(root) for root in one_scan_tree(signature)]
        self._nodes_preorder: List[_StreamNode] = []
        for root in self.roots:
            self._collect(root)

    def _build(self, tree_node) -> _StreamNode:
        return _StreamNode(tree_node.table, [self._build(child) for child in tree_node.children])

    def _collect(self, node: _StreamNode) -> None:
        self._nodes_preorder.append(node)
        for child in node.children:
            self._collect(child)

    def process(self, row: Row) -> None:
        """Feed one answer row of the current bag."""
        for root in self.roots:
            self._process_child(root, row)

    def _process_child(self, node: _StreamNode, row: Row) -> None:
        variable = self.columns.var_of(row, node.table)
        probability = self.columns.prob_of(row, node.table)
        if node.current_variable is None:
            node.crt_probability = probability
            node.current_variable = variable
        elif variable != node.current_variable:
            node.close_partition()
            node.crt_probability = probability
            node.current_variable = variable
        for child in node.children:
            self._process_child(child, row)

    def finish(self) -> float:
        """Close all open partitions and return the bag's confidence."""
        probability = 1.0
        for root in self.roots:
            root.close_partition()
            probability *= root.result()
        for root in self.roots:
            root.reset()
        return probability


def streaming_scan_confidences(
    rows: Iterable[Row],
    columns: ColumnMap,
    signature: Signature,
) -> Iterator[Tuple[Tuple[object, ...], float]]:
    """Streaming variant of :func:`scan_confidences` using :class:`OneScanState`."""
    state = OneScanState(signature, columns)
    current_data: Optional[Tuple[object, ...]] = None
    have_rows = False
    for row in rows:
        data = columns.data_of(row)
        if current_data is None:
            current_data = data
        elif data != current_data:
            yield current_data, state.finish()
            current_data = data
        state.process(row)
        have_rows = True
    if have_rows:
        yield current_data, state.finish()


# ---------------------------------------------------------------------------
# Pre-aggregation scans (Proposition V.10)
# ---------------------------------------------------------------------------


def _run_pre_aggregation(answer: Relation, step: ScanStep) -> Relation:
    """Execute one pre-aggregation scan as a GRP pass.

    The sub-operator ``[part]`` groups by every column except the V/P columns
    of the part's tables, computes the part's probability per group (for a
    plain ``T*`` this is ``prob(T.P)``), stores it in the representative
    table's probability column with ``min`` of its variable column as the
    representative variable, and drops the other tables' columns.
    """
    part = step.sub_signature
    tables = part.tables()
    representative = step.aggregated_table
    columns = ColumnMap(answer.schema)
    part_columns = set()
    for table in tables:
        part_columns.add(answer.schema.names[columns.var_index[table]])
        part_columns.add(answer.schema.names[columns.prob_index[table]])
    group_by = [name for name in answer.schema.names if name not in part_columns]

    if isinstance(part, StarSig) and isinstance(part.inner, TableSig):
        # Plain [T*]: a single GRP statement suffices.
        var_column = answer.schema.names[columns.var_index[representative]]
        prob_column = answer.schema.names[columns.prob_index[representative]]
        operator = GroupByOp(
            MaterializedOp(answer),
            group_by,
            [
                AggregateSpec("min", var_column, var_column),
                AggregateSpec("prob", prob_column, prob_column),
            ],
        )
        return operator.to_relation(answer.name)

    # Composite sub-operator: evaluate its factorisation per group.
    var_column = answer.schema.names[columns.var_index[representative]]
    prob_column = answer.schema.names[columns.prob_index[representative]]
    group_indices = answer.schema.indices_of(group_by)
    kept_names = group_by + [var_column, prob_column]
    kept_schema = answer.schema.project(kept_names)
    result = Relation(answer.name, kept_schema)

    groups = {}
    order: List[Tuple[object, ...]] = []
    for row in answer:
        key = tuple(row[i] for i in group_indices)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    var_index = columns.var_index[representative]
    for key in order:
        rows = groups[key]
        probability = group_probability(part, rows, columns)
        representative_variable = min(row[var_index] for row in rows)
        result.append(key + (representative_variable, probability))
    return result


def apply_scan_schedule(
    answer: Relation,
    signature: Signature,
    presorted: bool = False,
) -> Tuple[Relation, ScanSchedule]:
    """Run the full multi-scan confidence computation on ``answer``.

    Returns the relation of distinct data tuples with their ``conf`` values
    and the schedule that was executed.  The number of scans equals
    ``schedule.total_scans`` and matches Proposition V.10 for the signatures
    arising from hierarchical queries.
    """
    schedule = schedule_scans(signature)
    current = answer
    for step in schedule.pre_aggregations:
        current = _run_pre_aggregation(current, step)
    result = one_scan_operator(current, schedule.final_signature, presorted=presorted)
    return result, schedule


# ---------------------------------------------------------------------------
# Eager / hybrid plans over rows
# ---------------------------------------------------------------------------


def _var_column(schema: Schema, table: str) -> str:
    for pair in schema.var_prob_pairs():
        if pair.source == table:
            return pair.var_name
    raise QueryError(f"answer relation has no variable column for table {table!r}")


def _prob_column(schema: Schema, table: str) -> str:
    for pair in schema.var_prob_pairs():
        if pair.source == table:
            return pair.prob_name
    raise QueryError(f"answer relation has no probability column for table {table!r}")


def aggregate_pair(relation: Relation, table: str) -> Relation:
    """Operator ``[table*]``: GRP by every other column, min(V) / prob(P)."""
    schema = relation.schema
    var_column = _var_column(schema, table)
    prob_column = _prob_column(schema, table)
    group_by = [name for name in schema.names if name not in (var_column, prob_column)]
    aggregates = [
        AggregateSpec("min", var_column, var_column),
        AggregateSpec("prob", prob_column, prob_column),
    ]
    return GroupByOp(MaterializedOp(relation), group_by, aggregates).to_relation(relation.name)


def reduce_relation(answer: Relation, signature: Signature) -> Tuple[Relation, str]:
    """Run the aggregation/propagation sequence of ``signature`` on ``answer``.

    Returns the reduced relation (data columns plus the single surviving V/P
    pair of the signature's leftmost table) and that leader table's name.
    """
    current = answer

    def propagate(relation: Relation, keep_table: str, drop_table: str) -> Relation:
        """Multiply ``drop_table``'s probability into ``keep_table``'s and drop its pair."""
        schema = relation.schema
        keep_prob = _prob_column(schema, keep_table)
        drop_var = _var_column(schema, drop_table)
        drop_prob = _prob_column(schema, drop_table)
        keep_prob_index = schema.index_of(keep_prob)
        drop_prob_index = schema.index_of(drop_prob)
        kept_attributes = [a for a in schema if a.name not in (drop_var, drop_prob)]
        new_schema = Schema(kept_attributes)
        kept_indices = [schema.index_of(a.name) for a in kept_attributes]
        result = Relation(relation.name, new_schema)
        for row in relation:
            values = list(row[i] for i in kept_indices)
            values[new_schema.index_of(keep_prob)] = row[keep_prob_index] * row[drop_prob_index]
            result.append(tuple(values))
        return result

    def translate(node: Signature) -> str:
        """Recursive Fig. 5 translation; returns the leader table of the node."""
        nonlocal current
        if isinstance(node, TableSig):
            return node.table
        if isinstance(node, StarSig):
            leader = translate(node.inner)
            current = aggregate_pair(current, leader)
            return leader
        if isinstance(node, ConcatSig):
            leaders = [translate(part) for part in reversed(node.parts)]
            leaders.reverse()
            first = leaders[0]
            for other in leaders[1:]:
                current = propagate(current, first, other)
            return first
        raise QueryError(f"unknown signature node {node!r}")

    leader = translate(signature)
    return current, leader


def eager_evaluation(
    database: ProbabilisticDatabase,
    query: ConjunctiveQuery,
    tree: HierarchyNode,
    signature: Signature,
    aggregate_leaves: bool,
    head_attributes: Iterable[str],
) -> EagerNodeResult:
    """Eager (``aggregate_leaves``) or hybrid aggregation along ``tree``, on rows.

    The row twin of :func:`repro.sprout.planner.eager_evaluation`: the same
    joins, projections and per-node signatures (Section V.B), every
    intermediate a :class:`Relation`.
    """
    head = frozenset(head_attributes)
    rows_processed = 0

    def columns_to_keep(schema: Schema, parent_attributes: Iterable[str]) -> List[str]:
        wanted = set(parent_attributes) | head
        keep = [a.name for a in schema if a.role is ColumnRole.DATA and a.name in wanted]
        keep += [a.name for a in schema if a.role is not ColumnRole.DATA]
        return keep

    def evaluate(node: HierarchyNode, parent_attributes: Iterable[str]) -> EagerNodeResult:
        nonlocal rows_processed
        if node.is_leaf:
            table = node.atom.table
            plan = base_table_plan(database, query, table)
            relation = plan.to_relation(table)
            rows_processed += plan.total_rows_processed()
            keep = columns_to_keep(relation.schema, parent_attributes)
            if keep != list(relation.schema.names):
                relation = relation.project(keep)
            if aggregate_leaves:
                relation = aggregate_pair(relation, table)
            return EagerNodeResult(relation=relation, leader=table)

        child_results = [evaluate(child, node.attributes) for child in node.children]
        plan = MaterializedOp(child_results[0].relation)
        for child in child_results[1:]:
            plan = HashJoinOp(plan, MaterializedOp(child.relation))
        joined = plan.to_relation(query.name)
        rows_processed += plan.total_rows_processed()
        keep = columns_to_keep(joined.schema, parent_attributes)
        if keep != list(joined.schema.names):
            joined = joined.project(keep)
        present_tables = [pair.source for pair in joined.schema.var_prob_pairs()]
        local_signature = restrict_signature(signature, present_tables)
        if local_signature is None:
            raise PlanningError(
                f"signature {signature} does not cover any of the pairs {present_tables}"
            )
        reduced, leader = reduce_relation(joined, local_signature)
        return EagerNodeResult(relation=reduced, leader=leader)

    result = evaluate(tree, parent_attributes=())
    result.rows_processed = rows_processed
    return result


def finalize(relation: Relation, query: ConjunctiveQuery) -> Relation:
    """Rename the surviving probability column to ``conf`` and drop variables."""
    pairs = relation.schema.var_prob_pairs()
    if len(pairs) != 1:
        raise PlanningError(f"expected exactly one surviving V/P pair, found {len(pairs)}")
    pair = pairs[0]
    data_names = [a.name for a in relation.schema if a.role is ColumnRole.DATA]
    schema = Schema(
        [relation.schema[name] for name in data_names] + [Attribute("conf", "float")]
    )
    data_indices = relation.schema.indices_of(data_names)
    result = Relation(query.name, schema)
    for row in relation:
        result.append(tuple(row[i] for i in data_indices) + (row[pair.prob_index],))
    return result


# ---------------------------------------------------------------------------
# Lineage of a row answer
# ---------------------------------------------------------------------------


def lineage_by_tuple(answer: Relation) -> Dict[DataTuple, DNF]:
    """Group answer rows by data tuple and collect their DNF lineage.

    Each answer row contributes one clause consisting of the variables in its
    VAR columns.  Rows whose variable columns contain ``None`` (possible after
    outer operations, not produced by the supported query class) are rejected.
    """
    data_indices, var_indices, _ = split_answer_columns(answer.schema)
    clauses: Dict[DataTuple, set] = {}
    for row in answer:
        data = tuple(row[i] for i in data_indices)
        clause = []
        for index in var_indices:
            variable = row[index]
            if variable is None:
                raise ProbabilityError("answer row has a NULL variable column")
            clause.append(int(variable))
        clauses.setdefault(data, set()).add(frozenset(clause))
    return {data: DNF(clause_set) for data, clause_set in clauses.items()}


def probabilities_from_answer(answer: Relation) -> Dict[int, float]:
    """Collect the variable -> probability mapping encoded in the answer rows."""
    _, var_indices, prob_indices = split_answer_columns(answer.schema)
    if len(var_indices) != len(prob_indices):
        raise ProbabilityError("answer relation has unpaired variable/probability columns")
    probabilities: Dict[int, float] = {}
    for row in answer:
        for var_index, prob_index in zip(var_indices, prob_indices):
            variable = row[var_index]
            probability = row[prob_index]
            if variable is None:
                continue
            variable = int(variable)
            existing = probabilities.get(variable)
            if existing is not None and abs(existing - probability) > 1e-12:
                raise ProbabilityError(
                    f"variable {variable} carries two different probabilities "
                    f"({existing} vs {probability})"
                )
            probabilities[variable] = float(probability)
    return probabilities


# ---------------------------------------------------------------------------
# The engine on rows
# ---------------------------------------------------------------------------


class RowEngine(SproutEngine):
    """:class:`repro.sprout.SproutEngine` with the row pipeline in place of
    the columnar one.

    Routing, static analysis, the answer memo, the lineage store and the
    decision schedulers are the engine's own; the three steps that touch
    relational data — the lazy plan, the eager/hybrid plan, and the answer
    the d-tree routes extract lineage from — run on the row operators above.
    Every result must equal the engine's, bit for bit.
    """

    def _compute_answer_lineage(
        self, query: ConjunctiveQuery, join_order: Optional[Sequence[str]]
    ) -> _AnswerLineage:
        answer, order, rows_processed = materialize_answer(
            self.database, self.planner, query, join_order
        )
        return _AnswerLineage(
            schema=answer.schema,
            order=order,
            rows_processed=rows_processed,
            answer_rows=len(answer),
            lineage=lineage_by_tuple(answer),
            probabilities=probabilities_from_answer(answer),
        )

    def _evaluate_lazy(
        self, query: ConjunctiveQuery, use_fds: bool, join_order: Optional[Sequence[str]]
    ) -> EvaluationResult:
        signature = self.signature_for(query, use_fds)

        started = perf_counter()
        answer, order, rows_processed = materialize_answer(
            self.database, self.planner, query, join_order
        )
        answer = answer.sorted_by(sort_column_order(answer.schema, signature))
        tuples_seconds = perf_counter() - started

        started = perf_counter()
        result_relation, schedule = apply_scan_schedule(answer, signature, presorted=True)
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
            scans_used=schedule.total_scans,
            scan_schedule=schedule,
        )

    def _evaluate_eager_or_hybrid(
        self, query: ConjunctiveQuery, plan: str, use_fds: bool
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
        )
        final = node_result.relation
        pair = final.schema.var_prob_pairs()[0]
        keep = [a for a in query.projection if a in final.schema]
        keep += [pair.var_name, pair.prob_name]
        if keep != list(final.schema.names):
            final = final.project(keep)
        final = aggregate_pair(final, node_result.leader)
        elapsed = perf_counter() - started

        return EvaluationResult(
            query_name=query.name,
            plan_style=plan,
            relation=finalize(final, query),
            signature=signature,
            join_order=order,
            tuples_seconds=elapsed,
            prob_seconds=0.0,
            answer_rows=len(final),
            rows_processed=node_result.rows_processed,
            scans_used=0,
        )
