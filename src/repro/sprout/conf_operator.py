"""The conf() operator inside plans: aggregation/propagation and the scan schedule.

Fig. 5 of the paper defines the probability computation operator by a
translation to SQL: a bottom-up traversal of the signature emits

* for ``α*`` an **aggregation** step ``GRP[a; min(V) as V, prob(P) as P]``
  grouping by all other columns, and
* for ``αβ`` a **propagation** step that multiplies β's probability into α's
  probability column and drops β's variable/probability columns.

:func:`reduce_relation` runs that sequence for a (sub-)signature; the
eager/hybrid planners apply it at intermediate plan nodes (Section V.B).
:func:`compute_answer_confidences` is the lazy plans' operator on top: the
scan-based evaluation of Section V.C (:mod:`repro.sprout.scans`).  The
literal, step-by-step Fig. 5 translation both are checked against lives with
the tests (``tests/oracles/semantics.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import QueryError
from repro.algebra.aggregate import AggregateSpec
from repro.algebra.columnar import ColumnBatch, group_by_columns
from repro.query.signature import ConcatSig, Signature, StarSig, TableSig
from repro.sprout.scans import ScanSchedule, apply_scan_schedule_columns
from repro.storage.relation import Relation
from repro.storage.schema import Schema

__all__ = ["compute_answer_confidences", "reduce_relation"]


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


def reduce_relation(answer: ColumnBatch, signature: Signature) -> Tuple[ColumnBatch, str]:
    """Run the aggregation/propagation sequence of ``signature`` on ``answer``.

    Returns the reduced batch (data columns plus a single surviving V/P
    pair — the pair of the signature's leftmost table) and that leader table's
    name.  The eager/hybrid planners apply it at intermediate plan nodes
    with the node's restricted signature (Section V.B).  Every pass runs
    columnar: batch in, batch out, no row form in between.
    """
    current = answer

    def aggregate(relation, table: str):
        """GRP by every column except ``table``'s V/P pair (operator ``[α*]``)."""
        schema = relation.schema
        var_column = _var_column(schema, table)
        prob_column = _prob_column(schema, table)
        group_by = [name for name in schema.names if name not in (var_column, prob_column)]
        aggregates = [
            AggregateSpec("min", var_column, var_column),
            AggregateSpec("prob", prob_column, prob_column),
        ]
        return group_by_columns(relation, group_by, aggregates)

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
        columns = relation.columns
        kept_columns = [columns[i] for i in kept_indices]
        kept_columns[new_schema.index_of(keep_prob)] = [
            keep * drop for keep, drop in zip(columns[keep_prob_index], columns[drop_prob_index])
        ]
        return ColumnBatch(new_schema, kept_columns, relation.length)

    def translate(node: Signature) -> str:
        """Recursive Fig. 5 translation; returns the leader table of the node."""
        nonlocal current
        if isinstance(node, TableSig):
            return node.table
        if isinstance(node, StarSig):
            leader = translate(node.inner)
            current = aggregate(current, leader)
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
    answer: ColumnBatch,
    signature: Signature,
    name: Optional[str] = None,
) -> Tuple[Relation, ScanSchedule, int]:
    """The scan-based conf() operator (Section V.C) on a materialised answer.

    ``answer`` (a :class:`repro.algebra.columnar.ColumnBatch`) must already
    be sorted in the operator's required order
    (:func:`repro.sprout.onescan.sort_column_order`); the lazy plans produce
    that order while materialising it.  ``name`` names the result relation
    (default ``"answer"``).  Returns ``(relation, scan schedule, scans used)``.

    This operator path serves *tractable* queries only and is a small number
    of sequential scans; the d-tree routes (unsafe queries,
    ``confidence="approx"``, top-k/threshold scheduling) are where per-tuple
    confidence work dominates.
    """
    relation, schedule = apply_scan_schedule_columns(
        answer, signature, presorted=True, name=name if name is not None else "answer"
    )
    return relation, schedule, schedule.total_scans
