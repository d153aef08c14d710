"""A MystiQ-style baseline evaluator (the state of the art compared against).

MystiQ [5] is a middleware: it rewrites a hierarchical query into nested SQL
queries whose GROUP BY levels implement the independent projects of the safe
plan, and ships them to the host database.  Three characteristics matter for
the comparison in Section VII and are reproduced here:

* it works on probabilistic tables *without* variable columns, so only the
  restrictive safe-plan join order is correct — the unselective deep joins of
  queries 10/18/20/21 cannot be avoided;
* every level of the rewritten query materialises a temporary result and
  eliminates duplicates with sort-based grouping (emulating the nested
  ``SELECT DISTINCT ... GROUP BY`` subqueries the middleware generates);
* the probability of a disjunction is computed as
  ``1 - POWER(10000, SUM(LOG(1.001 - p)))``, which fails at runtime on long
  disjunctions — the reason queries 1, 4, 12 and several Boolean variants
  could not be computed by MystiQ (we surface this as
  :class:`repro.errors.NumericalError`).
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional, Tuple

from repro.errors import NumericalError, UnsafePlanError
from repro.algebra.aggregate import mystiq_log_prob_or, prob_or
from repro.algebra.expressions import TruePredicate
from repro.algebra.joins import HashJoinOp
from repro.algebra.operators import MaterializedOp, Operator, ProjectOp, ScanOp, SelectOp
from repro.prob.pdb import ProbabilisticDatabase
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.fd import chased_query, closure
from repro.query.hierarchy import HierarchyNode, build_hierarchy, is_hierarchical
from repro.sprout.engine import EvaluationResult
from repro.sprout.planner import needed_data_attributes
from repro.storage.relation import sort_key_for
from repro.storage.heapfile import HeapFile
from repro.storage.relation import Relation
from repro.storage.schema import Attribute, ColumnRole, Schema

__all__ = ["MystiqEngine"]


class MystiqEngine:
    """Evaluate hierarchical queries with MystiQ-style safe plans."""

    def __init__(
        self,
        database: ProbabilisticDatabase,
        use_log_aggregation: bool = True,
        materialize_temporaries: bool = True,
    ):
        self.database = database
        self.use_log_aggregation = use_log_aggregation
        self.materialize_temporaries = materialize_temporaries

    # -- public API ---------------------------------------------------------------

    def evaluate(self, query: ConjunctiveQuery, use_fds: bool = True) -> EvaluationResult:
        """Evaluate ``query`` with the safe plan; raises if none exists.

        :class:`repro.errors.UnsafePlanError` signals a #P-hard query;
        :class:`repro.errors.NumericalError` signals the log-aggregation
        runtime failure reported in the paper.
        """
        uncovered = query.uncovered_selections()
        if uncovered:
            raise UnsafePlanError(
                f"query {query.name!r} has selection conditions spanning several tables"
            )
        fds = (
            self.database.catalog.functional_dependencies(query.table_names())
            if use_fds
            else []
        )
        tree = self._hierarchy(query, fds)
        head = frozenset(closure(query.projection, fds)) & frozenset(query.attributes())

        started = perf_counter()
        relation, rows_processed = self._evaluate_tree(query, tree, head)
        elapsed = perf_counter() - started

        return EvaluationResult(
            query_name=query.name,
            plan_style="mystiq",
            relation=relation,
            signature=None,
            join_order=[table for table in tree.tables()],
            tuples_seconds=elapsed,
            prob_seconds=0.0,
            answer_rows=len(relation),
            rows_processed=rows_processed,
            scans_used=0,
        )

    # -- plan construction -----------------------------------------------------------

    def _hierarchy(self, query: ConjunctiveQuery, fds) -> HierarchyNode:
        # The chased query (atoms extended to their closures, projection
        # widened to the head's closure) keeps the physical join attributes
        # while being hierarchical whenever the query is tractable under the
        # FDs, so the resulting tree is directly executable (MystiQ itself
        # uses FDs to decide safety, Remark IV.2).
        chased = chased_query(query, fds) if fds else query
        if fds:
            head = frozenset(closure(query.projection, fds)) & frozenset(chased.attributes())
            chased = chased.with_projection(sorted(head), name=f"plan({query.name})")
        if is_hierarchical(chased):
            return build_hierarchy(chased)
        if is_hierarchical(query):
            return build_hierarchy(query)
        raise UnsafePlanError(
            f"query {query.name!r} admits no safe plan; MystiQ cannot evaluate it"
        )

    # -- evaluation --------------------------------------------------------------------

    def _evaluate_tree(
        self, query: ConjunctiveQuery, tree: HierarchyNode, head: frozenset
    ) -> Tuple[Relation, int]:
        rows_processed = 0

        def keep_columns(schema: Schema, parent_attributes) -> List[str]:
            wanted = set(parent_attributes) | head
            keep = [a.name for a in schema if a.role is ColumnRole.DATA and a.name in wanted]
            keep += [a.name for a in schema if a.role is ColumnRole.PROB]
            return keep

        def evaluate(node: HierarchyNode, parent_attributes) -> Relation:
            nonlocal rows_processed
            if node.is_leaf:
                table = node.atom.table
                relation = self.database.relation(table)
                plan: Operator = ScanOp(relation, alias=table)
                selection = query.selections_on(table)
                if not isinstance(selection, TruePredicate):
                    plan = SelectOp(plan, selection)
                prob_column = self.database.table(table).prob_column
                keep = needed_data_attributes(query, table) + [prob_column]
                plan = ProjectOp(plan, keep)
                materialised = plan.to_relation(table)
                rows_processed += plan.total_rows_processed()
                projected = materialised.project(
                    keep_columns(materialised.schema, parent_attributes)
                )
                return self._independent_project(projected)

            children = [evaluate(child, node.attributes) for child in node.children]
            plan = MaterializedOp(children[0])
            for child in children[1:]:
                plan = HashJoinOp(plan, MaterializedOp(child))
            joined = plan.to_relation(query.name)
            rows_processed += plan.total_rows_processed()
            joined = self._multiply_probabilities(joined)
            joined = joined.project(keep_columns(joined.schema, parent_attributes))
            return self._independent_project(joined)

        result = evaluate(tree, ())
        # Final level: project away the functionally determined companions of
        # the head and group by the true head attributes.
        prob_columns = [a.name for a in result.schema if a.role is ColumnRole.PROB]
        keep = [a for a in query.projection if a in result.schema] + prob_columns
        if keep != list(result.schema.names):
            result = result.project(keep)
        result = self._independent_project(result)
        return self._finalize(result, query), rows_processed

    # -- operators -----------------------------------------------------------------------

    def _aggregate_function(self):
        return mystiq_log_prob_or if self.use_log_aggregation else prob_or

    def _independent_project(self, relation: Relation) -> Relation:
        """``π^ind``: duplicate elimination with probability aggregation.

        Emulates the middleware's nested SQL: sort-based grouping over a
        materialised temporary (written to and read back from a heap file when
        ``materialize_temporaries`` is on).
        """
        schema = relation.schema
        prob_columns = [a.name for a in schema if a.role is ColumnRole.PROB]
        if len(prob_columns) != 1:
            raise UnsafePlanError(
                f"independent project expects exactly one probability column, got {prob_columns}"
            )
        prob_index = schema.index_of(prob_columns[0])
        group_indices = [i for i in range(len(schema)) if i != prob_index]

        if self.materialize_temporaries:
            heap = HeapFile(schema)
            heap.write_rows(relation.rows)
            rows = list(heap.scan())
            heap.close()
        else:
            rows = list(relation.rows)

        rows.sort(key=lambda row: tuple(sort_key_for(row[i]) for i in group_indices))
        aggregate = self._aggregate_function()
        result = Relation(relation.name, schema)
        current_key: Optional[Tuple] = None
        probabilities: List[float] = []
        current_row: Optional[Tuple] = None

        def flush() -> None:
            if current_row is None:
                return
            try:
                combined = aggregate(probabilities)
            except NumericalError:
                raise
            values = list(current_row)
            values[prob_index] = combined
            result.append(tuple(values))

        for row in rows:
            key = tuple(row[i] for i in group_indices)
            if key != current_key:
                flush()
                current_key = key
                current_row = row
                probabilities = []
            probabilities.append(row[prob_index])
        flush()
        return result

    def _multiply_probabilities(self, relation: Relation) -> Relation:
        """A probabilistic join multiplies the probabilities of its inputs."""
        schema = relation.schema
        prob_indices = [i for i, a in enumerate(schema) if a.role is ColumnRole.PROB]
        if len(prob_indices) <= 1:
            return relation
        keep_index = prob_indices[0]
        drop_indices = set(prob_indices[1:])
        attributes = [a for i, a in enumerate(schema) if i not in drop_indices]
        new_schema = Schema(attributes)
        result = Relation(relation.name, new_schema)
        for row in relation:
            probability = 1.0
            for index in prob_indices:
                probability *= row[index]
            values = [v for i, v in enumerate(row) if i not in drop_indices]
            values[new_schema.index_of(schema.names[keep_index])] = probability
            result.append(tuple(values))
        return result

    def _finalize(self, relation: Relation, query: ConjunctiveQuery) -> Relation:
        prob_columns = [a.name for a in relation.schema if a.role is ColumnRole.PROB]
        prob_index = relation.schema.index_of(prob_columns[0])
        data_names = [a.name for a in relation.schema if a.role is ColumnRole.DATA]
        schema = Schema(
            [relation.schema[name] for name in data_names] + [Attribute("conf", "float")]
        )
        result = Relation(query.name, schema)
        data_indices = relation.schema.indices_of(data_names)
        for row in relation:
            result.append(tuple(row[i] for i in data_indices) + (row[prob_index],))
        return result
