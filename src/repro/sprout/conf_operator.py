"""The conf() operator's semantics: a sequence of aggregations and propagations.

Fig. 5 of the paper defines the probability computation operator by a
translation to SQL: a bottom-up traversal of the signature emits

* for ``α*`` an **aggregation** step ``GRP[a; min(V) as V, prob(P) as P]``
  grouping by all other columns, and
* for ``αβ`` a **propagation** step that multiplies β's probability into α's
  probability column and drops β's variable/probability columns.

This module executes that translation literally on a materialised answer
relation (Example V.1 / Fig. 6), recording every step.  It is deliberately the
*straightforward* implementation — each step is an independent pass — and
serves both as the reference semantics the optimised scan-based evaluator is
tested against and as the slow side of the ablation benchmark
(``benchmarks/bench_ablation_onescan.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import QueryError
from repro.algebra.aggregate import AggregateSpec, GroupByOp
from repro.algebra.columnar import ColumnBatch, group_by_columns
from repro.algebra.operators import MaterializedOp
from repro.query.signature import ConcatSig, Signature, StarSig, TableSig
from repro.storage.relation import Relation
from repro.storage.schema import Attribute, ColumnRole, Schema

__all__ = [
    "ConfStep",
    "ConfOperatorResult",
    "apply_semantics",
    "compute_answer_confidences",
    "grp_statements",
    "reduce_relation",
]


@dataclass(frozen=True)
class ConfStep:
    """One constituent step of the operator: an aggregation or a propagation."""

    kind: str  # "aggregate" or "propagate"
    description: str
    signature: str
    rows_in: int = 0
    rows_out: int = 0

    def __str__(self) -> str:
        return f"{self.kind}[{self.signature}]: {self.description}"


@dataclass
class ConfOperatorResult:
    """Distinct answer tuples with confidences, plus the executed steps."""

    relation: Relation
    steps: List[ConfStep] = field(default_factory=list)

    @property
    def aggregation_count(self) -> int:
        return sum(1 for step in self.steps if step.kind == "aggregate")

    @property
    def propagation_count(self) -> int:
        return sum(1 for step in self.steps if step.kind == "propagate")

    def confidences(self) -> Dict[Tuple[object, ...], float]:
        """Mapping from distinct data tuple to its confidence."""
        conf_index = self.relation.schema.index_of("conf")
        data_indices = [
            i
            for i, attribute in enumerate(self.relation.schema)
            if attribute.name != "conf"
        ]
        return {
            tuple(row[i] for i in data_indices): row[conf_index] for row in self.relation
        }


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


def grp_statements(signature: Signature) -> List[str]:
    """The list of GRP / propagation statements the semantics would execute.

    Purely static (no data): useful for explain output and for checking the
    counts of Example V.1 (five aggregations and two propagations for
    ``(Cust*(Ord*Item*)*)*``; three aggregations for ``(Cust(Ord Item*)*)*``).
    """
    statements: List[str] = []

    def translate(node: Signature) -> str:
        if isinstance(node, TableSig):
            return node.table
        if isinstance(node, StarSig):
            leader = translate(node.inner)
            statements.append(f"aggregate[{node.inner}*] on {leader}")
            return leader
        if isinstance(node, ConcatSig):
            # Fig. 5 evaluates the right part of a concatenation first (Fig. 6:
            # Item is aggregated before Ord), then folds into the left leader.
            leaders = [translate(part) for part in reversed(node.parts)]
            leaders.reverse()
            first = leaders[0]
            for other in leaders[1:]:
                statements.append(f"propagate[{first} {other}]")
            return first
        raise QueryError(f"unknown signature node {node!r}")

    translate(signature)
    return statements


def reduce_relation(
    answer: Union[Relation, ColumnBatch],
    signature: Signature,
    steps: Optional[List[ConfStep]] = None,
    execution: str = "row",
) -> Tuple[Union[Relation, ColumnBatch], str]:
    """Run the aggregation/propagation sequence of ``signature`` on ``answer``.

    Returns the reduced relation (data columns plus a single surviving V/P
    pair — the pair of the signature's leftmost table) and that leader table's
    name.  This is the building block shared by the lazy GRP semantics
    (:func:`apply_semantics`) and by the eager/hybrid planners, which apply it
    at intermediate plan nodes with the node's restricted signature
    (Section V.B).  Under ``execution="row"`` ``answer`` and the result are
    relations; under ``execution="batch"`` both are
    :class:`repro.algebra.columnar.ColumnBatch` and every pass runs columnar
    (batch in, batch out: identical values, no row form in between).
    """
    current = answer
    recorded: List[ConfStep] = steps if steps is not None else []
    batch_mode = execution == "batch"

    def aggregate(relation, table: str, signature_text: str):
        """GRP by every column except ``table``'s V/P pair (operator ``[α*]``)."""
        schema = relation.schema
        var_column = _var_column(schema, table)
        prob_column = _prob_column(schema, table)
        group_by = [name for name in schema.names if name not in (var_column, prob_column)]
        aggregates = [
            AggregateSpec("min", var_column, var_column),
            AggregateSpec("prob", prob_column, prob_column),
        ]
        if batch_mode:
            result = group_by_columns(relation, group_by, aggregates)
        else:
            operator = GroupByOp(MaterializedOp(relation), group_by, aggregates)
            result = operator.to_relation(relation.name)
        recorded.append(
            ConfStep(
                kind="aggregate",
                description=f"GRP[{', '.join(group_by)}; min({var_column}), prob({prob_column})]",
                signature=signature_text,
                rows_in=len(relation),
                rows_out=len(result),
            )
        )
        return result

    def propagate(relation, keep_table: str, drop_table: str):
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
        if batch_mode:
            columns = relation.columns
            kept_columns = [columns[i] for i in kept_indices]
            kept_columns[new_schema.index_of(keep_prob)] = [
                keep * drop
                for keep, drop in zip(columns[keep_prob_index], columns[drop_prob_index])
            ]
            result = ColumnBatch(new_schema, kept_columns, relation.length)
        else:
            result = Relation(relation.name, new_schema)
            for row in relation:
                values = list(row[i] for i in kept_indices)
                # position of keep_prob in the kept columns
                values[new_schema.index_of(keep_prob)] = row[keep_prob_index] * row[drop_prob_index]
                result.append(tuple(values))
        recorded.append(
            ConfStep(
                kind="propagate",
                description=(
                    f"{keep_prob} := {keep_prob} * {drop_prob}; drop {drop_var}, {drop_prob}"
                ),
                signature=f"{keep_table} {drop_table}",
                rows_in=len(relation),
                rows_out=len(result),
            )
        )
        return result

    def translate(node: Signature) -> str:
        """Recursive Fig. 5 translation; returns the leader table of the node."""
        nonlocal current
        if isinstance(node, TableSig):
            return node.table
        if isinstance(node, StarSig):
            leader = translate(node.inner)
            current = aggregate(current, leader, f"{node.inner}*")
            return leader
        if isinstance(node, ConcatSig):
            # Right-to-left evaluation, as in Fig. 5/6, then fold probabilities
            # into the leftmost leader's pair.
            leaders = [translate(part) for part in reversed(node.parts)]
            leaders.reverse()
            first = leaders[0]
            for other in leaders[1:]:
                current = propagate(current, first, other)
            return first
        raise QueryError(f"unknown signature node {node!r}")

    leader = translate(signature)
    return current, leader


def compute_answer_confidences(
    answer,
    signature: Signature,
    conf_method: str = "scans",
    execution: str = "row",
    presorted: bool = True,
    name: Optional[str] = None,
):
    """Confidence computation on a materialised (sorted) answer.

    The single dispatch point between the two confidence methods
    (``conf_method="scans"`` — the scan-based operator of Section V.C — or
    ``"semantics"``, the literal Fig. 5 GRP translation) and the two physical
    backends, shared by the engine's lazy operator paths and by the exact
    short-circuit of the top-k/threshold API.  ``answer`` is a
    :class:`repro.storage.relation.Relation` under ``execution="row"`` and a
    :class:`repro.algebra.columnar.ColumnBatch` under ``execution="batch"``.
    Returns ``(relation, scan schedule or None, scans used)``.

    This operator path serves *tractable* queries only and is a small number
    of sequential scans; the d-tree routes (unsafe queries,
    ``confidence="approx"``, top-k/threshold scheduling) are where per-tuple
    confidence work dominates.
    """
    from repro.sprout.scans import apply_scan_schedule, apply_scan_schedule_columns

    if conf_method not in ("scans", "semantics"):
        raise QueryError(
            f"unknown confidence method {conf_method!r}; choose 'scans' or 'semantics'"
        )
    # ColumnBatch carries no name of its own; fall back to the relation's.
    label = name if name is not None else getattr(answer, "name", "answer")
    if conf_method == "semantics":
        relation = answer if execution == "row" else answer.to_relation(label)
        return apply_semantics(relation, signature, execution=execution).relation, None, 0
    if execution == "batch":
        relation, schedule = apply_scan_schedule_columns(
            answer, signature, presorted=presorted, name=label
        )
    else:
        relation, schedule = apply_scan_schedule(answer, signature, presorted=presorted)
    return relation, schedule, schedule.total_scans


def apply_semantics(
    answer: Relation, signature: Signature, execution: str = "row"
) -> ConfOperatorResult:
    """Execute the Fig. 5 translation on ``answer``.

    ``answer`` must contain the data columns of the (projected) query answer
    plus one variable/probability pair per table in ``signature``.  The result
    relation has the data columns plus a ``conf`` column with the exact
    probability of each distinct data tuple.  ``execution="batch"`` transposes
    ``answer`` once at entry and runs every step on a ``ColumnBatch``.
    """
    steps: List[ConfStep] = []
    batch_mode = execution == "batch"
    current = ColumnBatch.from_relation(answer) if batch_mode else answer
    current, leader = reduce_relation(current, signature, steps, execution=execution)
    if batch_mode:
        current = current.to_relation(answer.name)

    # Final projection: keep the data columns and the leader's probability as "conf".
    schema = current.schema
    prob_column = _prob_column(schema, leader)
    data_names = [a.name for a in schema if a.role is ColumnRole.DATA]
    final_schema = Schema(
        [schema[name] for name in data_names] + [Attribute("conf", "float")]
    )
    final = Relation(answer.name, final_schema)
    data_indices = schema.indices_of(data_names)
    prob_index = schema.index_of(prob_column)
    seen = set()
    for row in current:
        data = tuple(row[i] for i in data_indices)
        if data in seen:
            # Cannot happen for correct signatures (the last aggregation groups
            # by exactly the data columns); guard anyway.
            continue
        seen.add(data)
        final.append(data + (row[prob_index],))
    return ConfOperatorResult(relation=final, steps=steps)
