"""Scan scheduling for the confidence operator (Proposition V.10).

A signature with the 1scan property is handled by a single scan of the sorted
answer.  Otherwise the operator first runs *pre-aggregation* scans: each scan
evaluates a constituent sub-operator (e.g. ``[Ord*]``) with one GRP pass,
rewriting the signature (``Ord* -> Ord``), until the remaining signature has
the 1scan property; a final scan then computes the confidences.  Example V.11:
``[(Cust*(Ord*Item*)*)*]`` needs three scans — ``[Ord*]``, ``[Cust*]``, and
the final scan over ``(Cust(Ord Item*)*)*``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import QueryError
from repro.algebra.aggregate import AggregateSpec
from repro.query.signature import (
    ConcatSig,
    Signature,
    StarSig,
    TableSig,
    has_one_scan_property,
)
from repro.sprout.onescan import ColumnMap, compile_bag_probability, one_scan_operator_columns
from repro.storage.relation import Relation

__all__ = [
    "ScanStep",
    "ScanSchedule",
    "schedule_scans",
    "apply_scan_schedule_columns",
]


@dataclass(frozen=True)
class ScanStep:
    """One pre-aggregation scan: evaluate ``[subsignature]`` and simplify."""

    sub_signature: Signature
    aggregated_table: str  # representative (leftmost) table of the sub-signature
    signature_before: Signature
    signature_after: Signature

    def __str__(self) -> str:
        return (
            f"scan [{self.sub_signature}] : {self.signature_before} -> {self.signature_after}"
        )


@dataclass
class ScanSchedule:
    """The full scan schedule of an operator invocation."""

    original_signature: Signature
    pre_aggregations: List[ScanStep] = field(default_factory=list)
    final_signature: Signature = None

    @property
    def total_scans(self) -> int:
        """Pre-aggregation scans plus the final confidence scan."""
        return len(self.pre_aggregations) + 1

    def describe(self) -> str:
        lines = [f"signature: {self.original_signature}"]
        for step in self.pre_aggregations:
            lines.append(f"  {step}")
        lines.append(f"  final scan over {self.final_signature}")
        return "\n".join(lines)


def _innermost_failing_star(signature: Signature) -> Optional[StarSig]:
    """The deepest starred subexpression lacking the 1scan property."""
    failing = [
        sub
        for sub in signature.subexpressions()
        if isinstance(sub, StarSig) and not has_one_scan_property(sub)
    ]
    if not failing:
        return None
    # subexpressions() is preorder; the innermost failing star is the one with
    # no failing descendant.
    for candidate in failing:
        descendants = candidate.inner.subexpressions()
        if not any(
            isinstance(d, StarSig) and not has_one_scan_property(d) for d in descendants
        ):
            return candidate
    return failing[-1]


def _pick_pre_aggregation(failing: StarSig) -> Signature:
    """Choose the part of a failing starred composite to aggregate first.

    Prefer a starred table (``T*`` — one plain GRP), otherwise any part that
    itself has the 1scan property (a composite sub-operator).
    """
    parts = failing.inner.top_level_parts()
    for part in parts:
        if isinstance(part, StarSig) and isinstance(part.inner, TableSig):
            return part
    for part in parts:
        if has_one_scan_property(part):
            return part
    raise QueryError(
        f"cannot schedule scans for signature {failing}: no aggregatable part"
    )


def _replace(signature: Signature, target: Signature, replacement: Signature) -> Signature:
    """Replace the first structural occurrence of ``target`` by ``replacement``."""
    if signature == target:
        return replacement
    if isinstance(signature, TableSig):
        return signature
    if isinstance(signature, StarSig):
        return StarSig(_replace(signature.inner, target, replacement))
    if isinstance(signature, ConcatSig):
        replaced = False
        parts: List[Signature] = []
        for part in signature.parts:
            if not replaced:
                new_part = _replace(part, target, replacement)
                if new_part is not part and new_part != part:
                    replaced = True
                parts.append(new_part)
            else:
                parts.append(part)
        return ConcatSig(parts)
    raise QueryError(f"unknown signature node {signature!r}")


def schedule_scans(signature: Signature) -> ScanSchedule:
    """Plan the pre-aggregation scans needed before the final 1scan pass."""
    schedule = ScanSchedule(original_signature=signature)
    current = signature
    while not has_one_scan_property(current):
        failing = _innermost_failing_star(current)
        if failing is None:
            break
        part = _pick_pre_aggregation(failing)
        representative = part.tables()[0]
        after = _replace(current, part, TableSig(representative))
        schedule.pre_aggregations.append(
            ScanStep(
                sub_signature=part,
                aggregated_table=representative,
                signature_before=current,
                signature_after=after,
            )
        )
        current = after
    schedule.final_signature = current
    return schedule


def _run_pre_aggregation(batch, step: ScanStep):
    """Execute one pre-aggregation scan as a GRP pass over a ColumnBatch.

    The sub-operator ``[part]`` groups by every column except the V/P columns
    of the part's tables (groups in first-occurrence order), computes the
    part's probability per group (for a plain ``T*`` this is ``prob(T.P)``),
    stores it in the representative table's probability column with ``min``
    of its variable column as the representative variable, and drops the
    other tables' columns.
    """
    from repro.algebra.columnar import ColumnBatch, build_group_buckets, group_by_columns

    part = step.sub_signature
    tables = part.tables()
    representative = step.aggregated_table
    columns = ColumnMap(batch.schema)
    part_columns = set()
    for table in tables:
        part_columns.add(batch.schema.names[columns.var_index[table]])
        part_columns.add(batch.schema.names[columns.prob_index[table]])
    group_by = [name for name in batch.schema.names if name not in part_columns]

    var_column = batch.schema.names[columns.var_index[representative]]
    prob_column = batch.schema.names[columns.prob_index[representative]]

    if isinstance(part, StarSig) and isinstance(part.inner, TableSig):
        # Plain [T*]: a single GRP statement suffices.
        return group_by_columns(
            batch,
            group_by,
            [
                AggregateSpec("min", var_column, var_column),
                AggregateSpec("prob", prob_column, prob_column),
            ],
        )

    # Composite sub-operator: evaluate its factorisation per group.
    group_indices = batch.schema.indices_of(group_by)
    kept_names = group_by + [var_column, prob_column]
    kept_schema = batch.schema.project(kept_names)

    group_columns, first_rows, buckets = build_group_buckets(batch, group_indices)
    var_columns = {table: batch.columns[i] for table, i in columns.var_index.items()}
    prob_columns = {table: batch.columns[i] for table, i in columns.prob_index.items()}
    representative_var = var_columns[representative]
    out_columns = [[column[i] for i in first_rows] for column in group_columns]
    out_columns.append([min(representative_var[i] for i in bucket) for bucket in buckets])
    bag_probability = compile_bag_probability(part, var_columns, prob_columns)
    out_columns.append([bag_probability(bucket) for bucket in buckets])
    return ColumnBatch(kept_schema, out_columns, len(buckets))


def apply_scan_schedule_columns(
    batch,
    signature: Signature,
    presorted: bool = False,
    name: str = "result",
) -> Tuple[Relation, ScanSchedule]:
    """Run the full multi-scan confidence computation on a ColumnBatch.

    Returns the relation of distinct data tuples with their ``conf`` values
    and the schedule that was executed.  The number of scans equals
    ``schedule.total_scans`` and matches Proposition V.10 for the signatures
    arising from hierarchical queries.
    """
    schedule = schedule_scans(signature)
    current = batch
    for step in schedule.pre_aggregations:
        current = _run_pre_aggregation(current, step)
    result = one_scan_operator_columns(
        current, schedule.final_signature, presorted=presorted, name=name
    )
    return result, schedule
