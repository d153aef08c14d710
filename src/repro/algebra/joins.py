"""Join operators: hash join, sort-merge join, and nested-loop join.

All three implement *natural equi-joins*: the join attributes are either given
explicitly or default to the data attributes shared by both inputs (the paper
assumes join attributes carry the same name in the joined tables).  The output
schema keeps the left input's columns and appends the right input's columns
minus the join attributes — variable/probability columns of both sides are
always preserved, which is what lets the confidence operator be placed
anywhere above.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.algebra.operators import Operator, Row
from repro.storage.relation import sort_key_for
from repro.storage.schema import ColumnRole, Schema

__all__ = ["JoinOp", "HashJoinOp", "MergeJoinOp", "NestedLoopJoinOp", "natural_join_attributes"]


def natural_join_attributes(left: Schema, right: Schema) -> List[str]:
    """Shared DATA attribute names of the two schemas, in left-schema order."""
    right_names = {a.name for a in right if a.role is ColumnRole.DATA}
    return [a.name for a in left if a.role is ColumnRole.DATA and a.name in right_names]


class JoinOp(Operator):
    """Common machinery of the concrete join operators."""

    join_kind = "Join"

    def __init__(
        self,
        left: Operator,
        right: Operator,
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
        # Right columns that are kept: everything except the join attributes
        # (they are equal to the left copies anyway).
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
    def children(self) -> List[Operator]:
        return [self.left, self.right]

    def label(self) -> str:
        condition = ", ".join(self.on) if self.on else "cross"
        return f"{self.join_kind}({condition})"

    # -- helpers ---------------------------------------------------------------

    def _combine(self, left_row: Row, right_row: Row) -> Row:
        return left_row + tuple(right_row[i] for i in self._right_keep_indices)

    def _left_key(self, row: Row) -> Tuple[object, ...]:
        return tuple(row[i] for i in self._left_key_indices)

    def _right_key(self, row: Row) -> Tuple[object, ...]:
        return tuple(row[i] for i in self._right_key_indices)


class HashJoinOp(JoinOp):
    """Classic build/probe hash join (builds on the right input)."""

    join_kind = "HashJoin"

    def _execute(self) -> Iterator[Row]:
        table: Dict[Tuple[object, ...], List[Row]] = {}
        for right_row in self.right:
            key = self._right_key(right_row)
            if any(value is None for value in key):
                continue
            table.setdefault(key, []).append(right_row)
        for left_row in self.left:
            key = self._left_key(left_row)
            if any(value is None for value in key):
                continue
            for right_row in table.get(key, ()):
                yield self._combine(left_row, right_row)


class NestedLoopJoinOp(JoinOp):
    """Nested-loop join; with an empty ``on`` list this is a cross product."""

    join_kind = "NestedLoopJoin"

    def _execute(self) -> Iterator[Row]:
        right_rows = list(self.right)
        for left_row in self.left:
            left_key = self._left_key(left_row)
            if any(value is None for value in left_key):
                continue
            for right_row in right_rows:
                if left_key == self._right_key(right_row):
                    yield self._combine(left_row, right_row)


class MergeJoinOp(JoinOp):
    """Sort-merge join; sorts both inputs on the join key, then merges."""

    join_kind = "MergeJoin"

    def __init__(self, left: Operator, right: Operator, on: Optional[Sequence[str]] = None):
        super().__init__(left, right, on)
        if not self.on:
            raise QueryError("merge join requires at least one join attribute")

    def _execute(self) -> Iterator[Row]:
        def sort_rows(rows, key_indices):
            return sorted(
                (row for row in rows if all(row[i] is not None for i in key_indices)),
                key=lambda row: tuple(sort_key_for(row[i]) for i in key_indices),
            )

        left_rows = sort_rows(self.left, self._left_key_indices)
        right_rows = sort_rows(self.right, self._right_key_indices)
        left_position = right_position = 0
        while left_position < len(left_rows) and right_position < len(right_rows):
            left_key = self._left_key(left_rows[left_position])
            right_key = self._right_key(right_rows[right_position])
            left_sort = tuple(sort_key_for(v) for v in left_key)
            right_sort = tuple(sort_key_for(v) for v in right_key)
            if left_sort < right_sort:
                left_position += 1
            elif left_sort > right_sort:
                right_position += 1
            else:
                # Collect the group of equal keys on both sides and emit the product.
                left_end = left_position
                while (
                    left_end < len(left_rows)
                    and self._left_key(left_rows[left_end]) == left_key
                ):
                    left_end += 1
                right_end = right_position
                while (
                    right_end < len(right_rows)
                    and self._right_key(right_rows[right_end]) == right_key
                ):
                    right_end += 1
                for i in range(left_position, left_end):
                    for j in range(right_position, right_end):
                        yield self._combine(left_rows[i], right_rows[j])
                left_position, right_position = left_end, right_end
