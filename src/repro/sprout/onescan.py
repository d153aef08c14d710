"""The scan-based confidence operator (Section V.C, Fig. 8).

Given an answer relation sorted by its data columns followed by the variable
columns in 1scanTree preorder, the operator computes the exact confidence of
every distinct data tuple in a single sequential scan: bags of duplicates are
contiguous, and inside one bag the factorisation prescribed by the (1scan)
signature is evaluated by grouping on variable columns from the leader table
outwards.

Two evaluators are provided:

* :func:`group_probability` — the recursive, signature-driven factorised
  evaluator.  It consumes one bag of duplicates at a time; memory is bounded
  by the bag size (not the answer size), and the answer is consumed in one
  sequential pass.
* :class:`OneScanState` — a streaming evaluator in the spirit of Fig. 8 that
  keeps only running probabilities (``crtP``/``allP``) per 1scanTree node.  It
  supports the common TPC-H case in which every starred composite has a
  star-free leader and the tree is a single path/branching tree; it is checked
  against :func:`group_probability` in the tests.
"""

from __future__ import annotations

from itertools import groupby
from math import prod
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ProbabilityError, QueryError
from repro.query.signature import (
    ConcatSig,
    Signature,
    StarSig,
    TableSig,
    has_one_scan_property,
    one_scan_tree,
    sort_table_order,
)

from repro.storage.relation import Relation
from repro.storage.schema import Attribute, ColumnRole, Schema

__all__ = [
    "ColumnMap",
    "column_map_for",
    "sort_column_order",
    "group_probability",
    "scan_confidences",
    "one_scan_operator",
    "OneScanState",
    "streaming_scan_confidences",
    "columnar_bag_probability",
    "compile_bag_probability",
    "columnar_lineage",
    "columnar_scan_confidences",
    "one_scan_operator_columns",
]

Row = Tuple[object, ...]


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


def column_map_for(relation: Relation) -> ColumnMap:
    """Column map of a materialised answer relation."""
    return ColumnMap(relation.schema)


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
# Columnar (batch) evaluation: the same factorised semantics over columns
# ---------------------------------------------------------------------------
#
# The batch execution backend hands the operator one ColumnBatch of the sorted
# answer instead of row tuples.  Bags and partitions are then ranges/lists of
# *row indices* into the shared column lists, so no row tuples are ever built,
# and the signature is compiled into closures once per batch, so a bag pays
# for its arithmetic only.  The arithmetic (and its order) is identical to
# ``group_probability``, which makes the two paths bit-identical.


def compile_bag_probability(
    signature: Signature,
    var_columns: Dict[str, Sequence[object]],
    prob_columns: Dict[str, Sequence[float]],
) -> Callable[[Sequence[int]], float]:
    """Compile ``signature`` once per batch into ``bag_probability(indices)``:
    :func:`group_probability`'s arithmetic in its order, with node kinds,
    columns, leaders and distinct keys (and the row path's errors) resolved here."""
    evaluate = _compile_node(signature, var_columns, prob_columns)

    def bag_probability(indices: Sequence[int]) -> float:
        if not indices:
            raise ProbabilityError("cannot compute the probability of an empty bag")
        return evaluate(indices)

    return bag_probability


def columnar_bag_probability(signature, indices, var_columns, prob_columns) -> float:
    """Probability of one bag of duplicates given as row indices into columns."""
    return compile_bag_probability(signature, var_columns, prob_columns)(indices)


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
    occurrence first (:func:`_distinct_for`); ``T`` and ``T*`` de-duplicate
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
    """Columnar form of :func:`one_scan_operator` over a :class:`ColumnBatch`."""
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
# Columnar lineage extraction (the batch pipeline's hand-off to the d-tree
# and parallel-confidence paths)
# ---------------------------------------------------------------------------


def columnar_lineage(
    batch, interner=None
) -> Tuple[Dict[Tuple[object, ...], set], Dict[int, float]]:
    """Extract per-tuple DNF lineage and the variable→probability map from a
    :class:`repro.algebra.columnar.ColumnBatch` without materialising rows.

    The columnar twin of :func:`repro.prob.lineage.lineage_by_tuple` plus
    :func:`repro.prob.lineage.probabilities_from_answer`: the answer batch
    stays in column form (one zip across the VAR columns per clause) and the
    result is bit-identical to the row path — the clause *sets* and
    probability floats are the same objects the row extraction would build.
    Used by the d-tree and parallel-confidence routes under
    ``execution="batch"``.  Returns ``(data tuple → set of clause frozensets,
    variable → probability)``.

    With ``interner`` (a :class:`repro.prob.sharedag.ClauseInterner`) the
    emitted clauses are interned ids-and-objects directly: every recurrence
    of a clause — the same supplier/partsupp pair under many answer tuples —
    is the *same* frozenset object registered once in the shared-lineage
    store, so downstream hash-consing starts from pre-deduplicated parts.
    """
    from repro.errors import ProbabilityError
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
