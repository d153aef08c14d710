"""Plan construction: join orders, answer plans, and aggregation placement.

SPROUT separates two concerns that safe plans entangle:

* computing the *answer tuples* — any join order works, so the (host) optimizer
  is free to pick a good one (lazy plans exploit this);
* computing the *confidences* — governed by the query signature, and movable
  through the plan as eager, hybrid, or lazy aggregation (Section V.B).

This module provides the join-order heuristics (a greedy System-R style order
for lazy plans, the hierarchy-driven order that safe/eager plans must use),
the construction of answer-tuple plans from probabilistic tables, and the
eager/hybrid evaluation that interleaves joins with aggregation and
propagation steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

from repro.errors import PlanningError
from repro.algebra.aggregate import AggregateSpec
from repro.algebra.columnar import (
    BatchHashJoinOp,
    BatchMaterializedOp,
    BatchOperator,
    BatchProjectOp,
    BatchScanOp,
    BatchSelectOp,
    ColumnBatch,
    group_by_columns,
)
from repro.algebra.expressions import TruePredicate
from repro.algebra.stats import StatisticsCatalog, estimate_selectivity
from repro.prob.pdb import ProbabilisticDatabase
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.hierarchy import HierarchyNode
from repro.storage.schema import ColumnRole, Schema

__all__ = [
    "JoinOrderPlanner",
    "base_table_plan_batch",
    "build_answer_plan_batch",
    "project_answer_columns",
    "needed_data_attributes",
    "eager_evaluation",
    "EagerNodeResult",
]


def needed_data_attributes(query: ConjunctiveQuery, table: str) -> List[str]:
    """Data columns of ``table`` that must survive its base-table projection.

    These are the attributes that either participate in a join or appear in
    the projection (selection-attribute) list; selection-only attributes can
    be dropped right after the selection is applied.
    """
    atom = query.atom_of(table)
    keep = (query.join_attributes() | query.head_attributes()) & atom.attribute_set
    return [a for a in atom.attributes if a in keep]


class JoinOrderPlanner:
    """Greedy cost-based join ordering (the lazy plans' optimizer stand-in).

    Starts from the table with the smallest estimated filtered cardinality and
    repeatedly adds the connected table whose estimated post-selection size is
    smallest, falling back to the globally smallest remaining table when the
    join graph is disconnected.
    """

    def __init__(self, database: ProbabilisticDatabase):
        self.database = database
        self.statistics = StatisticsCatalog()
        for table in database.table_names():
            self.statistics.register(database.relation(table), name=table)

    def filtered_cardinality(self, query: ConjunctiveQuery, table: str) -> float:
        stats = self.statistics.get(table)
        rows = stats.row_count if stats else 1000
        selection = query.selections_on(table)
        return max(1.0, rows * estimate_selectivity(selection, stats))

    def lazy_join_order(self, query: ConjunctiveQuery) -> List[str]:
        """Selective-first greedy order (what a cost-based optimizer would pick)."""
        remaining = set(query.table_names())
        sizes = {table: self.filtered_cardinality(query, table) for table in remaining}
        order: List[str] = []
        joined_attributes: Set[str] = set()
        while remaining:
            connected = [
                table
                for table in remaining
                if not order or (query.attributes_of(table) & joined_attributes)
            ]
            candidates = connected or sorted(remaining)
            chosen = min(candidates, key=lambda table: (sizes[table], table))
            order.append(chosen)
            joined_attributes |= set(query.attributes_of(chosen)) & query.join_attributes()
            remaining.remove(chosen)
        return order

    def hierarchical_join_order(self, query: ConjunctiveQuery, tree: HierarchyNode) -> List[str]:
        """The join order imposed by the hierarchy tree (safe/eager plans).

        Deeper subtrees are joined first (the unselective ``Ord ⋈ Item`` join
        of the Introduction), so the linearised order lists tables of the
        deepest components before shallower ones.
        """

        def depth(node: HierarchyNode) -> int:
            if node.is_leaf:
                return 1
            return 1 + max(depth(child) for child in node.children)

        def collect(node: HierarchyNode) -> List[str]:
            if node.is_leaf:
                return [node.atom.table]
            ordered_children = sorted(node.children, key=depth, reverse=True)
            result: List[str] = []
            for child in ordered_children:
                result.extend(collect(child))
            return result

        return collect(tree)


def base_table_plan_batch(
    database: ProbabilisticDatabase,
    query: ConjunctiveQuery,
    table: str,
) -> BatchOperator:
    """Columnar scan → select → project plan for one base probabilistic table.

    Late-materialising: the scan reads only the columns the selection or the
    projection touches, none that the projection would merely drop.
    """
    relation = database.relation(table)
    selection = query.selections_on(table)
    table_obj = database.table(table)
    keep = needed_data_attributes(query, table)
    keep = keep + [table_obj.var_column, table_obj.prob_column]
    touched = selection.attributes().union(keep)
    plan: BatchOperator = BatchScanOp(
        relation, alias=table, names=[n for n in relation.schema.names if n in touched]
    )
    if not isinstance(selection, TruePredicate):
        plan = BatchSelectOp(plan, selection)
    if list(keep) != list(relation.schema.names):
        plan = BatchProjectOp(plan, keep)
    return plan


def build_answer_plan_batch(
    database: ProbabilisticDatabase,
    query: ConjunctiveQuery,
    join_order: Sequence[str],
) -> BatchOperator:
    """Left-deep plan of natural hash joins following ``join_order``."""
    if set(join_order) != set(query.table_names()):
        raise PlanningError(
            f"join order {list(join_order)} does not cover the query tables "
            f"{query.table_names()}"
        )
    plan = base_table_plan_batch(database, query, join_order[0])
    for table in join_order[1:]:
        right = base_table_plan_batch(database, query, table)
        plan = BatchHashJoinOp(plan, right)
    return plan


def project_answer_columns(plan: BatchOperator, query: ConjunctiveQuery) -> BatchOperator:
    """Project the joined result onto the head attributes plus all V/P pairs."""
    schema = plan.schema
    keep = [a for a in query.projection if a in schema]
    keep += [a.name for a in schema if a.role is not ColumnRole.DATA]
    return BatchProjectOp(plan, keep)


# ---------------------------------------------------------------------------
# Eager / hybrid evaluation along the hierarchy tree
# ---------------------------------------------------------------------------


@dataclass
class EagerNodeResult:
    """Intermediate result of eager evaluation: a batch plus its leader pair."""

    relation: ColumnBatch
    leader: str
    rows_processed: int = 0


def _aggregate_pair(relation: ColumnBatch, leader: str) -> ColumnBatch:
    """Operator ``[leader*]``: GRP by every other column, min(V) / prob(P)."""
    schema = relation.schema
    pair = next(p for p in schema.var_prob_pairs() if p.source == leader)
    group_by = [
        name
        for name in schema.names
        if name not in (pair.var_name, pair.prob_name)
    ]
    aggregates = [
        AggregateSpec("min", pair.var_name, pair.var_name),
        AggregateSpec("prob", pair.prob_name, pair.prob_name),
    ]
    return group_by_columns(relation, group_by, aggregates)


def eager_evaluation(
    database: ProbabilisticDatabase,
    query: ConjunctiveQuery,
    tree: HierarchyNode,
    signature: "Signature",
    aggregate_leaves: bool = True,
    head_attributes: Optional[Iterable[str]] = None,
) -> EagerNodeResult:
    """Evaluate ``query`` with eager (or hybrid) aggregation along ``tree``.

    ``aggregate_leaves=True`` gives the fully eager plan of Fig. 7(a): every
    base table is aggregated before joining.  ``aggregate_leaves=False`` gives
    the hybrid plan of Fig. 7(b): aggregation operators on top of the input
    tables are dropped (they are expensive on large tables and useless under
    selective joins) but intermediate join results are still aggregated.

    Every intermediate is a :class:`ColumnBatch`, from the base-table scans
    to the returned node result: leaves come out of ``plan.to_batch``,
    projections re-reference column lists, and the joins,
    :func:`_aggregate_pair` and :func:`reduce_relation` take and return
    batches — no row form exists between nodes, as in the lazy plan.

    At every inner node the probability computation operator placed there uses
    the signature obtained by the placement rules of Section V.B: the query
    signature restricted to the tables of the subplan, with the signatures of
    operators already executed below replaced by their leftmost table name.
    The returned batch has the query's head
    attributes as data columns plus a single V/P pair; the caller turns the
    probability column into the final ``conf`` column.
    """
    from repro.query.signature import restrict_signature  # avoids a module cycle
    from repro.sprout.conf_operator import reduce_relation

    # ``head_attributes`` may be wider than the query's projection (its FD
    # closure): those attributes are constant per bag of duplicates and are
    # carried along so that physical joins on them still happen.
    head = frozenset(head_attributes) if head_attributes is not None else query.head_attributes()
    rows_processed = 0

    def columns_to_keep(schema: Schema, parent_attributes: Iterable[str]) -> List[str]:
        wanted = set(parent_attributes) | head
        keep = [
            a.name
            for a in schema
            if a.role is ColumnRole.DATA and a.name in wanted
        ]
        keep += [a.name for a in schema if a.role is not ColumnRole.DATA]
        return keep

    def evaluate(node: HierarchyNode, parent_attributes: Iterable[str]) -> EagerNodeResult:
        nonlocal rows_processed
        if node.is_leaf:
            table = node.atom.table
            plan = base_table_plan_batch(database, query, table)
            relation = plan.to_batch(table)
            rows_processed += plan.total_rows_processed()
            keep = columns_to_keep(relation.schema, parent_attributes)
            if keep != list(relation.schema.names):
                relation = relation.project(keep)
            if aggregate_leaves:
                relation = _aggregate_pair(relation, table)
            return EagerNodeResult(relation=relation, leader=table)

        child_results = [evaluate(child, node.attributes) for child in node.children]
        plan = BatchMaterializedOp(child_results[0].relation)
        for child in child_results[1:]:
            plan = BatchHashJoinOp(plan, BatchMaterializedOp(child.relation))
        joined = plan.to_batch(query.name)
        rows_processed += plan.total_rows_processed()

        keep = columns_to_keep(joined.schema, parent_attributes)
        if keep != list(joined.schema.names):
            joined = joined.project(keep)

        # Signature of the operator placed at this node (Section V.B): restrict
        # the query signature to the variable/probability pairs still present
        # in the subplan's output.  Child operators already executed below have
        # reduced their subtree to a single (leader) pair, so only that table
        # survives the restriction — the "replace by the leftmost table name"
        # rule of the paper.
        present_tables = [pair.source for pair in joined.schema.var_prob_pairs()]
        local_signature = restrict_signature(signature, present_tables)
        if local_signature is None:
            raise PlanningError(
                f"signature {signature} does not cover any of the pairs {present_tables}"
            )
        reduced_relation, leader = reduce_relation(joined, local_signature)
        return EagerNodeResult(relation=reduced_relation, leader=leader)

    result = evaluate(tree, parent_attributes=())
    result.rows_processed = rows_processed
    return result
