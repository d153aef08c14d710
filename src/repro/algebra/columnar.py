"""Columnar batch execution: the physical operators the engine runs.

Iterator-model operators (:mod:`repro.algebra.operators`) process one Python
tuple at a time; every row travels through a chain of generator frames and is
rebuilt by each projection, and at TPC-H scale the interpreter overhead of
that per-row choreography dominates the runtime.  The operators here process
one whole :class:`ColumnBatch` at a time instead: a batch is a list of column
lists, scans share the stored table's cached columns, selections hand the ids
of the surviving rows from conjunct to conjunct and gather each column once,
and joins/projections gather values per column instead of per-row tuple surgery.

Semantics are those of the row operators — same output order, same ``None``
handling in predicates and join keys, same insertion-ordered grouping — and
the tests hold the two bit-identical (``tests/oracles/rows.py`` is the row
reference pipeline; ``tests/test_batch_execution.py`` compares them).
"""

from __future__ import annotations

import abc
from itertools import compress, filterfalse
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.algebra.aggregate import AGGREGATE_FUNCTIONS, AggregateSpec, aggregate_output_schema
from repro.algebra.expressions import (
    AttributeComparison,
    Comparison,
    Conjunction,
    Disjunction,
    Negation,
    Predicate,
    TruePredicate,
)
from repro.algebra.joins import natural_join_attributes
from repro.storage.relation import sort_key_for
from repro.storage.relation import Relation
from repro.storage.schema import Schema

__all__ = [
    "ColumnBatch",
    "BatchOperator",
    "BatchScanOp",
    "BatchMaterializedOp",
    "BatchSelectOp",
    "BatchProjectOp",
    "BatchHashJoinOp",
    "build_group_buckets",
    "compile_selection",
    "group_by_columns",
    "sort_batch",
]

Column = List[object]


class ColumnBatch:
    """A bag of rows stored column-wise: one Python list per attribute.

    Column lists are shared, read-only: a scan's batch holds the stored
    relation's :meth:`Relation.columns_cached` lists themselves, and
    projections, all-pass selections and identity gathers pass them on.
    Operators build new lists, never edit an input column in place
    (``tests/test_batch_execution.py`` guards the base tables).  ``length`` is
    explicit so zero-column batches (Boolean answers) keep their row count.
    """

    __slots__ = ("schema", "columns", "length")

    def __init__(self, schema: Schema, columns: Sequence[Column], length: Optional[int] = None):
        if len(columns) != len(schema):
            raise SchemaError(
                f"batch has {len(columns)} columns for a schema of arity {len(schema)}"
            )
        self.schema = schema
        self.columns = list(columns)
        if length is None:
            length = len(self.columns[0]) if self.columns else 0
        if any(len(column) != length for column in self.columns):
            raise SchemaError(
                f"ragged batch: column lengths {[len(c) for c in self.columns]} "
                f"do not all equal {length}"
            )
        self.length = length

    # -- construction ---------------------------------------------------------

    @classmethod
    def empty(cls, schema: Schema) -> "ColumnBatch":
        return cls(schema, [[] for _ in schema], 0)

    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[Sequence[object]]) -> "ColumnBatch":
        """Transpose a chunk of row tuples into a batch (C-speed via ``zip``)."""
        if not rows:
            return cls.empty(schema)
        return cls(schema, [list(column) for column in zip(*rows)], len(rows))

    @classmethod
    def from_relation(cls, relation: Relation) -> "ColumnBatch":
        return cls.from_rows(relation.schema, relation.rows)

    # -- basic protocol -------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"ColumnBatch({self.length} rows, {len(self.schema)} cols)"

    # -- access ---------------------------------------------------------------

    def column(self, name: str) -> Column:
        return self.columns[self.schema.index_of(name)]

    def rows(self) -> Iterator[Tuple[object, ...]]:
        """Iterate the batch row-wise (transposes via ``zip``)."""
        if not self.columns:
            return iter([()] * self.length)
        return zip(*self.columns)

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """Gather the rows at ``indices`` (in the given order)."""
        return ColumnBatch(self.schema, _gather(self.columns, indices), len(indices))

    def project(self, names: Sequence[str]) -> "ColumnBatch":
        """Bag projection onto ``names``: re-references the kept column lists."""
        indices = self.schema.indices_of(names)
        return ColumnBatch(
            self.schema.project(names), [self.columns[i] for i in indices], self.length
        )

    def to_relation(self, name: str = "result") -> Relation:
        return Relation.from_columns(name, self.schema, self.columns, length=self.length)


def _row_keys(columns: Sequence[Column], length: int) -> Sequence[object]:
    """One hashable key per row over ``columns`` (join and grouping keys)."""
    if len(columns) == 1:
        return columns[0]  # single-attribute keys skip tuple packing
    if not columns:
        # Zero attributes (cross join, global group): every row has the empty
        # key, like the row operators (zip of zero columns would yield none).
        return [()] * length
    return list(zip(*columns))


def _naturally_ordered(column: Column) -> bool:
    """True when Python's own ``<`` orders ``column`` exactly as ``sort_key_for`` does.

    That holds when the exact value types are within ``{int, float}`` (the key
    is ``(1, value)``) or are all ``str`` (the key is ``(2, value)``); ``bool``,
    ``None`` and mixed columns need the key function.
    """
    types = set(map(type, column))
    return types <= {int, float} or types == {str}


# ---------------------------------------------------------------------------
# Columnar predicate compilation
# ---------------------------------------------------------------------------


def compile_selection(predicate: Predicate, schema: Schema) -> Callable[..., Sequence[int]]:
    """Compile ``predicate`` to ``rows(batch, candidates)``: the ascending surviving row ids.

    ``candidates`` are ascending row ids (``range(batch.length)``: every row).
    A comparison is one comprehension over them; a conjunction hands each part
    the rows its predecessors kept, a disjunction the rows no earlier part
    accepted, a negation keeps what its part rejected — the row engine's
    short-circuiting ``all``/``any``.  ``None`` never satisfies a comparison,
    as in :meth:`Predicate.bind`, which unknown predicate classes fall back to.
    """
    if isinstance(predicate, TruePredicate):
        return lambda batch, candidates: candidates
    if isinstance(predicate, Comparison):
        index = schema.index_of(predicate.attribute)
        fn, value = predicate._fn, predicate.value
        if predicate.op == "=" and value is not None:
            # `None == constant` is already False: no None guard, one comparison per row.
            def equal_rows(batch, candidates):
                column = batch.columns[index]
                return [i for i in candidates if column[i] == value]

            return equal_rows

        def comparison_rows(batch, candidates):
            column = batch.columns[index]
            return [i for i in candidates if (v := column[i]) is not None and fn(v, value)]

        return comparison_rows
    if isinstance(predicate, AttributeComparison):
        left = schema.index_of(predicate.left)
        right = schema.index_of(predicate.right)
        fn = predicate._fn

        def attribute_rows(batch, candidates):
            lefts, rights = batch.columns[left], batch.columns[right]
            return [
                i
                for i in candidates
                if (a := lefts[i]) is not None and (b := rights[i]) is not None and fn(a, b)
            ]

        return attribute_rows
    if isinstance(predicate, Conjunction):
        conjuncts = [compile_selection(part, schema) for part in predicate.parts]

        def conjunction_rows(batch, candidates):
            for part in conjuncts:
                candidates = part(batch, candidates)
            return candidates

        return conjunction_rows
    if isinstance(predicate, Disjunction):
        if not predicate.parts:
            return lambda batch, candidates: []
        *leading, last = [compile_selection(part, schema) for part in predicate.parts]

        def disjunction_rows(batch, candidates):
            kept: List[int] = []
            for part in leading:
                hits = part(batch, candidates)
                if hits:
                    kept += hits
                    candidates = _without(candidates, hits)
            kept += last(batch, candidates)
            return sorted(kept)  # disjoint ascending runs: a linear merge

        return disjunction_rows
    if isinstance(predicate, Negation):
        inner = compile_selection(predicate.part, schema)
        return lambda batch, candidates: _without(candidates, inner(batch, candidates))
    # Unknown predicate class: row-at-a-time fallback with identical semantics.
    bound = predicate.bind(schema)
    return lambda batch, candidates: [
        i for i in candidates if bound(tuple([column[i] for column in batch.columns]))
    ]


def _without(candidates: Sequence[int], hits: Sequence[int]) -> List[int]:
    return list(filterfalse(set(hits).__contains__, candidates))


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


class BatchOperator(abc.ABC):
    """Base class of the columnar plan operators.

    Mirrors :class:`repro.algebra.operators.Operator`: ``schema``,
    ``children``, a ``rows_out`` work counter (comparable with the row
    engine's), and materialisation helpers.  An operator's whole output is
    one batch; there is no chunked or streaming form.
    """

    def __init__(self) -> None:
        self.rows_out = 0

    @property
    @abc.abstractmethod
    def schema(self) -> Schema:
        """Output schema of this operator."""

    @property
    def children(self) -> List["BatchOperator"]:
        return []

    @abc.abstractmethod
    def _execute(self) -> ColumnBatch:
        """Compute the output batch.  Subclasses implement this, not ``_run``."""

    def _run(self) -> ColumnBatch:
        # Children run through here, so a plan enters (traceable) ``to_batch`` once.
        batch = self._execute()
        self.rows_out = batch.length
        return batch

    # -- execution helpers ----------------------------------------------------

    def to_batch(self, name: str = "result") -> ColumnBatch:
        """Run the operator and return its output batch."""
        return self._run()

    def to_relation(self, name: str = "result") -> Relation:
        return self.to_batch(name).to_relation(name)

    def total_rows_processed(self) -> int:
        """Total rows emitted by this operator and all descendants (last run)."""
        return self.rows_out + sum(child.total_rows_processed() for child in self.children)

    # -- presentation ---------------------------------------------------------

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<{self.label()}>"


class BatchScanOp(BatchOperator):
    """Scan of a stored relation: its cached columns, whole and by reference.

    ``names`` prunes the scan to those attributes, in the order given (default:
    every column).  Nothing is copied: the batch shares the lists that
    :meth:`Relation.columns_cached` transposed once.
    """

    def __init__(
        self,
        relation: Relation,
        alias: Optional[str] = None,
        names: Optional[Sequence[str]] = None,
    ):
        super().__init__()
        self.relation = relation
        self.alias = alias or relation.name
        if names is None:
            names = relation.schema.names
        self._schema = relation.schema.project(names)
        self._indices = relation.schema.indices_of(names)

    @property
    def schema(self) -> Schema:
        return self._schema

    def _execute(self) -> ColumnBatch:
        columns = self.relation.columns_cached()
        return ColumnBatch(
            self._schema, [columns[i] for i in self._indices], len(self.relation)
        )

    def label(self) -> str:
        return f"BatchScan({self.alias}, {len(self.relation)} rows)"


class BatchMaterializedOp(BatchOperator):
    """Wrap an already-materialised batch as a plan leaf.

    A stored :class:`Relation` enters a columnar plan through
    :class:`BatchScanOp`, which reads its cached column view.
    """

    def __init__(self, source: ColumnBatch, label: str = "BatchMaterialized"):
        super().__init__()
        self.source = source
        self._label = label

    @property
    def schema(self) -> Schema:
        return self.source.schema

    def _execute(self) -> ColumnBatch:
        return self.source

    def label(self) -> str:
        return f"{self._label}({len(self.source)} rows)"


class BatchSelectOp(BatchOperator):
    """Filter the child's batch by a predicate compiled to surviving row ids."""

    def __init__(self, child: BatchOperator, predicate: Predicate):
        super().__init__()
        self.child = child
        self.predicate = predicate

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> List[BatchOperator]:
        return [self.child]

    def _execute(self) -> ColumnBatch:
        batch = self.child._run()
        kept = compile_selection(self.predicate, batch.schema)(batch, range(batch.length))
        if len(kept) == batch.length:
            return batch
        return batch.take(kept)

    def label(self) -> str:
        return f"BatchSelect({self.predicate})"


class BatchProjectOp(BatchOperator):
    """Bag projection: the batch just re-references the kept column lists."""

    def __init__(self, child: BatchOperator, names: Sequence[str]):
        super().__init__()
        self.child = child
        self.names = list(names)
        self._schema = child.schema.project(self.names)
        self._indices = child.schema.indices_of(self.names)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def children(self) -> List[BatchOperator]:
        return [self.child]

    def _execute(self) -> ColumnBatch:
        batch = self.child._run()
        return ColumnBatch(
            self._schema, [batch.columns[i] for i in self._indices], batch.length
        )

    def label(self) -> str:
        return f"BatchProject({', '.join(self.names)})"


def _match_keys(
    build_keys: Sequence[object], probe_keys: Sequence[object], composite: bool
) -> Tuple[Sequence[int], Sequence[int]]:
    """Hash ``build_keys``, stream ``probe_keys`` through: ``(probe, build)`` index pairs.

    Pairs come in probe row order and, within one probe row, in build row
    order.  A key that is ``None`` (``composite``: contains ``None``) matches
    nothing.  When every build key is distinct the probe is one C-speed
    ``map`` plus a ``None`` filter, and the probe indices are a ``range`` if
    every probe row matched — the caller then reuses columns, not gathers.
    """
    table: Dict[object, object] = dict(zip(build_keys, range(len(build_keys))))
    distinct = len(table) == len(build_keys)
    if not distinct:
        first_rows, buckets = _bucket_rows(build_keys)
        table = dict(zip(map(build_keys.__getitem__, first_rows), buckets))
    if composite:
        for key in [key for key in table if any(value is None for value in key)]:
            del table[key]
    else:
        table.pop(None, None)
    hits = list(map(table.get, probe_keys))
    if distinct:
        if None not in hits:
            return range(len(hits)), hits
        matched = [hit is not None for hit in hits]
        return list(compress(range(len(hits)), matched)), list(compress(hits, matched))
    probe_indices: List[int] = []
    build_indices: List[int] = []
    for position, bucket in enumerate(hits):
        if bucket is not None:
            probe_indices.extend([position] * len(bucket))
            build_indices.extend(bucket)
    return probe_indices, build_indices


def _gather(columns: Sequence[Column], indices: Sequence[int]) -> List[Column]:
    """The rows at ``indices`` of each column; the identity range re-references them."""
    if columns and indices == range(len(columns[0])):
        return list(columns)
    return [[column[i] for i in indices] for column in columns]


class BatchHashJoinOp(BatchOperator):
    """Build/probe natural hash join over batches; hashes the smaller input.

    Matches :class:`repro.algebra.joins.HashJoinOp` exactly: the same default
    join attributes, rows with a ``None`` join key are dropped on both sides,
    the output keeps the left columns followed by the right columns minus the
    join attributes, and the output order is (left row order) x (right
    insertion order within a key bucket).

    The build side is chosen by size alone (``left.length < right.length``
    hashes the left).  Probing the left through a right-side table yields
    that order directly; probing the right through a left-side table yields
    (right order) x (left order), and a stable sort of the matched pairs by
    left index restores the documented order, because the right indices of
    one left row already ascend.
    """

    def __init__(
        self,
        left: BatchOperator,
        right: BatchOperator,
        on: Optional[Sequence[str]] = None,
    ):
        super().__init__()
        self.left = left
        self.right = right
        if on is None:
            on = natural_join_attributes(left.schema, right.schema)
        self.on = list(on)
        for name in self.on:
            left.schema.index_of(name)
            right.schema.index_of(name)
        self._left_key_indices = left.schema.indices_of(self.on)
        self._right_key_indices = right.schema.indices_of(self.on)
        self._right_keep_indices = [
            i for i, attribute in enumerate(right.schema) if attribute.name not in self.on
        ]
        self._schema = Schema(
            tuple(left.schema.attributes)
            + tuple(right.schema.attributes[i] for i in self._right_keep_indices)
        )

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def children(self) -> List[BatchOperator]:
        return [self.left, self.right]

    def label(self) -> str:
        condition = ", ".join(self.on) if self.on else "cross"
        return f"BatchHashJoin({condition})"

    def _execute(self) -> ColumnBatch:
        left = self.left._run()
        right = self.right._run()
        composite = len(self.on) != 1
        left_keys = _row_keys([left.columns[i] for i in self._left_key_indices], left.length)
        right_keys = _row_keys([right.columns[i] for i in self._right_key_indices], right.length)
        if left.length < right.length:
            right_indices, left_indices = _match_keys(left_keys, right_keys, composite)
            order = sorted(range(len(left_indices)), key=left_indices.__getitem__)
            left_indices = [left_indices[i] for i in order]
            right_indices = [right_indices[i] for i in order]
        else:
            left_indices, right_indices = _match_keys(right_keys, left_keys, composite)
        columns = _gather(left.columns, left_indices)
        columns += _gather([right.columns[i] for i in self._right_keep_indices], right_indices)
        return ColumnBatch(self._schema, columns, len(left_indices))


def _bucket_rows(keys: Sequence[object]) -> Tuple[List[int], List[List[int]]]:
    """Insertion-ordered groups of equal ``keys``: ``(first_rows, buckets)``.

    The single definition of the grouping order every columnar aggregation
    shares — first occurrence first, the order of the row oracle's
    ``GroupByOp`` (``tests/oracles/rows.py``).
    """
    positions: Dict[object, int] = {}
    buckets: List[List[int]] = []
    first_rows: List[int] = []
    for row, key in enumerate(keys):
        slot = positions.get(key)
        if slot is None:
            positions[key] = len(buckets)
            buckets.append([row])
            first_rows.append(row)
        else:
            buckets[slot].append(row)
    return first_rows, buckets


def build_group_buckets(
    batch: ColumnBatch, group_indices: Sequence[int]
) -> Tuple[List[Column], List[int], List[List[int]]]:
    """Hash rows into insertion-ordered groups by the columns at ``group_indices``.

    Returns ``(group_columns, first_rows, buckets)``: the grouping columns,
    the row index of each group's first occurrence, and each group's row
    indices in row order.
    """
    group_columns = [batch.columns[i] for i in group_indices]
    first_rows, buckets = _bucket_rows(_row_keys(group_columns, batch.length))
    return group_columns, first_rows, buckets


def group_by_columns(
    batch: ColumnBatch,
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    schema: Optional[Schema] = None,
) -> ColumnBatch:
    """Hash-grouped aggregation of one batch (insertion-ordered groups).

    Behaves exactly like the row oracle's ``GroupByOp``: the output
    schema is the grouping attributes followed by one column per aggregate
    (same dtype/role inheritance), groups appear in first-occurrence order, and
    each aggregate sees its group's values in row order.

    The keys are checked for distinctness first (``len(set(keys)) == length``).
    Eager aggregation over a keyed base table finds every row already its own
    group — the paper's point that such aggregations are useless — and then no
    bucket is built: the grouping columns pass through, ``min``/``max`` of a
    single value is the value, and every other aggregate maps over the column.
    ``prob`` is ``1.0 - (1.0 - p)`` there, never ``p``: that is the arithmetic
    ``prob_or([p])`` performs, and the two differ in the last bit for many
    ``p``.

    Otherwise, when every aggregate is ``prob`` or a ``min`` over a column
    that is :func:`_naturally_ordered` — the ``[leader*]`` shape, the only one
    the plans issue — one hash pass maps each row to its group's first row and
    the aggregates fold into accumulators indexed by that row, in row order:
    ``prob_or``'s multiplications in ``prob_or``'s order, and ``min``'s strict
    ``<`` with its first-wins ties.  Any other shape is bucketed and handed to
    ``AGGREGATE_FUNCTIONS`` group by group, which is the fold's oracle.
    """
    child_schema = batch.schema
    if schema is None:
        schema = aggregate_output_schema(child_schema, group_by, aggregates)
    group_columns = [batch.columns[i] for i in child_schema.indices_of(group_by)]
    inputs = [batch.columns[child_schema.index_of(s.input_attribute)] for s in aggregates]
    keys = _row_keys(group_columns, batch.length)
    if len(set(keys)) == batch.length:
        out_columns: List[Column] = list(group_columns)
        for spec, column in zip(aggregates, inputs):
            if spec.function in ("min", "max"):
                out_columns.append(column)
            elif spec.function == "prob":
                out_columns.append([1.0 - (1.0 - p) for p in column])
            else:
                function = AGGREGATE_FUNCTIONS[spec.function]
                out_columns.append([function([value]) for value in column])
        return ColumnBatch(schema, out_columns, batch.length)
    if all(
        spec.function == "prob" or (spec.function == "min" and _naturally_ordered(column))
        for spec, column in zip(aggregates, inputs)
    ):
        first_row_of: Dict[object, int] = {}
        group_of = list(map(first_row_of.setdefault, keys, range(batch.length)))
        first_rows = list(first_row_of.values())
        out_columns = _gather(group_columns, first_rows)
        for spec, column in zip(aggregates, inputs):
            if spec.function == "prob":
                complements = [1.0] * batch.length
                for group, p in zip(group_of, column):
                    complements[group] *= 1.0 - p
                out_columns.append([1.0 - complements[row] for row in first_rows])
            else:
                minima = list(column)
                for group, value in zip(group_of, column):
                    if value < minima[group]:
                        minima[group] = value
                out_columns.append([minima[row] for row in first_rows])
        return ColumnBatch(schema, out_columns, len(first_rows))
    first_rows, buckets = _bucket_rows(keys)
    out_columns = _gather(group_columns, first_rows)
    for spec, column in zip(aggregates, inputs):
        function = AGGREGATE_FUNCTIONS[spec.function]
        out_columns.append([function([column[i] for i in bucket]) for bucket in buckets])
    return ColumnBatch(schema, out_columns, len(buckets))


def sort_batch(batch: ColumnBatch, names: Sequence[str]) -> ColumnBatch:
    """Stable sort of a batch by the named columns.

    Uses the same per-value total order as :meth:`Relation.sorted_by`
    (``sort_key_for``), so the resulting permutation is identical to a row
    sort.  A key column that is :func:`_naturally_ordered`
    (homogeneously numeric or ``str``) is its own sort key; only ``None``,
    ``bool`` and mixed columns are mapped through ``sort_key_for``.
    """
    key_indices = batch.schema.indices_of(names)
    if not key_indices or batch.length <= 1:
        return batch
    key_columns = [
        column if _naturally_ordered(column) else list(map(sort_key_for, column))
        for column in map(batch.columns.__getitem__, key_indices)
    ]
    keys = _row_keys(key_columns, batch.length)
    order = sorted(range(batch.length), key=keys.__getitem__)
    if order == list(range(batch.length)):
        return batch
    return batch.take(order)
