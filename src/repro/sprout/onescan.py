"""The scan-based confidence operator (Section V.C, Fig. 8).

Given an answer sorted by its data columns followed by the variable columns
in 1scanTree preorder, the operator computes the exact confidence of every
distinct data tuple in a single sequential scan: bags of duplicates are
contiguous, and inside one bag the factorisation prescribed by the (1scan)
signature is evaluated by grouping on variable columns from the leader table
outwards.

The answer is one :class:`repro.algebra.columnar.ColumnBatch`; a bag is a
range of row indices into its columns, and :func:`compile_bag_probability`
compiles the signature into closures once per batch.  The row-at-a-time
evaluator it is checked against, bit for bit (``group_probability``, and the
streaming ``OneScanState`` of Fig. 8), lives with the tests
(``tests/oracles/rows.py``).
"""

from __future__ import annotations

from math import prod
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ProbabilityError, QueryError
from repro.query.signature import ConcatSig, Signature, StarSig, TableSig, sort_table_order
from repro.storage.relation import Relation
from repro.storage.schema import Attribute, ColumnRole, Schema

__all__ = [
    "ColumnMap",
    "sort_column_order",
    "compile_bag_probability",
    "columnar_lineage",
    "columnar_scan_confidences",
    "one_scan_operator_columns",
]


class ColumnMap:
    """Positions of the data columns and of each table's V/P pair."""

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


def _check_single(table: str, found: int) -> None:
    if found != 1:
        raise ProbabilityError(
            f"signature promises a single {table} variable per group but found "
            f"{found}; the signature (or its FD refinement) is too precise for this data"
        )


def sort_column_order(schema: Schema, signature: Signature) -> List[str]:
    """Sort key for the operator's input: data columns, then variable columns
    in 1scanTree preorder (Example V.12), then the probability columns."""
    columns = ColumnMap(schema)
    order = [schema.names[i] for i in columns.data_indices]
    for table in sort_table_order(signature):
        if table in columns.var_index:
            order.append(schema.names[columns.var_index[table]])
    return order


# ---------------------------------------------------------------------------
# Factorised evaluation of one bag of duplicates, over columns
# ---------------------------------------------------------------------------
#
# Bags and partitions are ranges/lists of *row indices* into the shared column
# lists, so no row tuples are ever built, and the signature is compiled into
# closures once per batch, so a bag pays for its arithmetic only.  The
# arithmetic (and its order) is that of the row oracle's ``group_probability``,
# which makes the two bit-identical.


def compile_bag_probability(
    signature: Signature,
    var_columns: Dict[str, Sequence[object]],
    prob_columns: Dict[str, Sequence[float]],
) -> Callable[[Sequence[int]], float]:
    """Compile ``signature`` once per batch into ``bag_probability(indices)``.

    Concatenation parts are independent factors evaluated over the rows
    distinct on their variable columns; a starred composite partitions its
    rows by the leader table's variable.  Node kinds, columns, leaders and
    distinct keys are resolved here, so a bag pays for its arithmetic only."""
    evaluate = _compile_node(signature, var_columns, prob_columns)

    def bag_probability(indices: Sequence[int]) -> float:
        if not indices:
            raise ProbabilityError("cannot compute the probability of an empty bag")
        return evaluate(indices)

    return bag_probability


def _variable_column(var_columns: Dict[str, Sequence[object]], table: str) -> Sequence[object]:
    try:
        return var_columns[table]
    except KeyError:
        raise QueryError(f"no variable column for table {table!r}") from None


def _compile_node(signature, var_columns, prob_columns) -> Callable[[Sequence[int]], float]:
    """One signature node as a closure over its columns (non-empty bags only)."""
    if isinstance(signature, TableSig):
        table = signature.table
        variables = _variable_column(var_columns, table)
        probabilities = prob_columns[table]

        def single(indices):
            _check_single(table, len({variables[i] for i in indices}))
            return probabilities[indices[0]]

        return single
    if isinstance(signature, ConcatSig):
        factors = [_compile_factor(part, var_columns, prob_columns) for part in signature.parts]
        return lambda indices: prod((factor(indices) for factor in factors), start=1.0)
    if not isinstance(signature, StarSig):
        raise QueryError(f"unknown signature node {signature!r}")
    inner = signature.inner
    if isinstance(inner, TableSig):
        variables = _variable_column(var_columns, inner.table)
        probabilities = prob_columns[inner.table]

        def any_distinct(indices):
            none_true = 1.0
            seen = set()
            for i in indices:
                variable = variables[i]
                if variable not in seen:
                    seen.add(variable)
                    none_true *= 1.0 - probabilities[i]
            return 1.0 - none_true

        return any_distinct
    parts = inner.top_level_parts()
    leader = next((p for p in parts if isinstance(p, TableSig)), None)
    if leader is None:
        raise QueryError(
            f"signature {signature} lacks the 1scan property; "
            "pre-aggregate with repro.sprout.scans first"
        )
    leader_column = _variable_column(var_columns, leader.table)
    leader_probabilities = prob_columns[leader.table]
    # A partition holds one leader variable by construction: read its marginal.
    factors = [
        (lambda partition: leader_probabilities[partition[0]])
        if part is leader
        else _compile_factor(part, var_columns, prob_columns)
        for part in parts
    ]

    def partitioned(indices):
        # Partitions are the leader's variables, in first-occurrence order.
        partitions: Dict[object, List[int]] = {}
        for i in indices:
            partitions.setdefault(leader_column[i], []).append(i)
        none_true = 1.0
        for partition in partitions.values():
            probability = 1.0
            for factor in factors:
                probability *= factor(partition)
            none_true *= 1.0 - probability
        return 1.0 - none_true

    return partitioned


def _compile_factor(part, var_columns, prob_columns) -> Callable[[Sequence[int]], float]:
    """``part`` over the indices distinct on its variable columns, first
    occurrence first; ``T`` and ``T*`` de-duplicate
    on their one column themselves, same first index, so they skip it."""
    evaluate = _compile_node(part, var_columns, prob_columns)
    if isinstance(part, TableSig) or (
        isinstance(part, StarSig) and isinstance(part.inner, TableSig)
    ):
        return evaluate
    columns = [var_columns[table] for table in part.tables()]  # all checked above

    def distinct(indices):
        first: Dict[object, int] = {}
        for key, i in zip(zip(*[map(column.__getitem__, indices) for column in columns]), indices):
            first.setdefault(key, i)
        return evaluate(list(first.values()))

    return distinct


def columnar_scan_confidences(
    batch: "ColumnBatch",
    signature: Signature,
) -> Iterator[Tuple[Tuple[object, ...], float]]:
    """Yield ``(data_tuple, confidence)`` per bag of a sorted column batch.

    The batch must be sorted by the data columns first and by the variable
    columns in signature order within each bag (see :func:`sort_column_order`).
    """
    columns = ColumnMap(batch.schema)
    var_columns = {table: batch.columns[i] for table, i in columns.var_index.items()}
    prob_columns = {table: batch.columns[i] for table, i in columns.prob_index.items()}
    data_columns = [batch.columns[i] for i in columns.data_indices]
    total = len(batch)
    if total == 0:
        return
    bag_probability = compile_bag_probability(signature, var_columns, prob_columns)
    if data_columns:
        if len(data_columns) == 1:
            keys: Sequence[Tuple[object, ...]] = [(v,) for v in data_columns[0]]
        else:
            keys = list(zip(*data_columns))
    else:
        # Boolean query: every row belongs to the single empty data tuple.
        keys = [()] * total
    start = 0
    for position in range(1, total):
        if keys[position] != keys[start]:
            yield keys[start], bag_probability(range(start, position))
            start = position
    yield keys[start], bag_probability(range(start, total))


def one_scan_operator_columns(
    batch: "ColumnBatch",
    signature: Signature,
    presorted: bool = False,
    name: Optional[str] = None,
) -> Relation:
    """The operator over a :class:`ColumnBatch`: one row per distinct data
    tuple, its data columns plus ``conf``.  Sorts the batch first unless
    ``presorted``."""
    from repro.algebra.columnar import sort_batch

    if not presorted:
        batch = sort_batch(batch, sort_column_order(batch.schema, signature))
    columns = ColumnMap(batch.schema)
    data_attributes = [batch.schema[batch.schema.names[i]] for i in columns.data_indices]
    result_schema = Schema(list(data_attributes) + [Attribute("conf", "float")])
    result = Relation(name or "result", result_schema)
    rows = result.rows
    for data, confidence in columnar_scan_confidences(batch, signature):
        rows.append(data + (confidence,))
    return result


# ---------------------------------------------------------------------------
# Lineage extraction (the answer pipeline's hand-off to the d-tree paths)
# ---------------------------------------------------------------------------


def columnar_lineage(
    batch, interner=None
) -> Tuple[Dict[Tuple[object, ...], set], Dict[int, float]]:
    """Extract per-tuple DNF lineage and the variable→probability map from a
    :class:`repro.algebra.columnar.ColumnBatch` without materialising rows.

    The answer batch stays in column form (one zip across the VAR columns per
    clause); the clause *sets* and probability floats equal those the row
    oracle (``lineage_by_tuple`` and ``probabilities_from_answer`` in
    ``tests/oracles/rows.py``) builds.  Used by every d-tree route.  Returns
    ``(data tuple → set of clause frozensets, variable → probability)``.

    With ``interner`` (a :class:`repro.prob.sharedag.ClauseInterner`) the
    emitted clauses are interned ids-and-objects directly: every recurrence
    of a clause — the same supplier/partsupp pair under many answer tuples —
    is the *same* frozenset object registered once in the shared-lineage
    store, so downstream hash-consing starts from pre-deduplicated parts.
    """
    from repro.prob.lineage import split_answer_columns

    data_indices, var_indices, prob_indices = split_answer_columns(batch.schema)
    if len(var_indices) != len(prob_indices):
        raise ProbabilityError("answer batch has unpaired variable/probability columns")
    columns = batch.columns
    data_columns = [columns[i] for i in data_indices]
    clauses: Dict[Tuple[object, ...], set] = {}
    probabilities: Dict[int, float] = {}
    var_columns = [columns[i] for i in var_indices]
    prob_columns = [columns[i] for i in prob_indices]
    data_rows = zip(*data_columns) if data_columns else (() for _ in range(len(batch)))
    var_rows = zip(*var_columns) if var_columns else (() for _ in range(len(batch)))
    prob_rows = zip(*prob_columns) if prob_columns else (() for _ in range(len(batch)))
    for data, variables, probs in zip(data_rows, var_rows, prob_rows):
        clause = []
        for variable, probability in zip(variables, probs):
            if variable is None:
                raise ProbabilityError("answer row has a NULL variable column")
            variable = int(variable)
            clause.append(variable)
            existing = probabilities.get(variable)
            if existing is not None and abs(existing - probability) > 1e-12:
                raise ProbabilityError(
                    f"variable {variable} carries two different probabilities "
                    f"({existing} vs {probability})"
                )
            probabilities[variable] = float(probability)
        interned = frozenset(clause) if interner is None else interner.intern(clause)
        clauses.setdefault(tuple(data), set()).add(interned)
    return clauses, probabilities
