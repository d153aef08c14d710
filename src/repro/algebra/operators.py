"""Iterator-model plan operators: base class, scan, selection, projection.

The engine runs the columnar operators (:mod:`repro.algebra.columnar`).
These row operators, with the hash join of :mod:`repro.algebra.joins`, serve
the emulated MystiQ baseline (:mod:`repro.safeplans.mystiq`), and the tests
build their row-at-a-time reference pipeline from them.

Every operator exposes

* ``schema`` — the output schema,
* ``children`` — input operators (empty for leaves),
* ``__iter__`` — a generator of output rows (tuples in schema order),
* ``rows_out`` — how many rows the operator emitted during the last execution,

plus an ``explain`` label.  ``rows_out`` is the work metric used by the
benchmarks in addition to wall-clock time: an eager plan that aggregates a
large table early emits (and therefore processes) many more intermediate rows
than a lazy plan, which is exactly the effect Figures 9-12 measure.
"""

from __future__ import annotations

import abc
from typing import Iterator, List, Optional, Sequence, Tuple


from repro.algebra.expressions import Predicate
from repro.storage.relation import Relation
from repro.storage.schema import Schema

__all__ = ["Operator", "ScanOp", "SelectOp", "ProjectOp", "MaterializedOp"]

Row = Tuple[object, ...]


class Operator(abc.ABC):
    """Base class of all plan operators."""

    def __init__(self) -> None:
        self.rows_out = 0

    @property
    @abc.abstractmethod
    def schema(self) -> Schema:
        """Output schema of this operator."""

    @property
    def children(self) -> List["Operator"]:
        """Input operators (empty for leaf operators)."""
        return []

    @abc.abstractmethod
    def _execute(self) -> Iterator[Row]:
        """Yield output rows.  Subclasses implement this, not ``__iter__``."""

    def __iter__(self) -> Iterator[Row]:
        self.rows_out = 0
        for row in self._execute():
            self.rows_out += 1
            yield row

    # -- execution helpers -----------------------------------------------------

    def to_relation(self, name: str = "result") -> Relation:
        """Materialise the operator's output into a relation."""
        relation = Relation(name, self.schema)
        relation.extend(self)
        return relation

    def total_rows_processed(self) -> int:
        """Total rows emitted by this operator and all descendants (last run)."""
        return self.rows_out + sum(child.total_rows_processed() for child in self.children)

    # -- presentation ----------------------------------------------------------

    def label(self) -> str:
        """Short one-line description used by ``explain``."""
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        """Render the plan rooted at this operator as an indented tree."""
        lines = ["  " * indent + self.label()]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<{self.label()}>"


class ScanOp(Operator):
    """Sequential scan of a stored relation."""

    def __init__(self, relation: Relation, alias: Optional[str] = None):
        super().__init__()
        self.relation = relation
        self.alias = alias or relation.name

    @property
    def schema(self) -> Schema:
        return self.relation.schema

    def _execute(self) -> Iterator[Row]:
        yield from self.relation

    def label(self) -> str:
        return f"Scan({self.alias}, {len(self.relation)} rows)"


class MaterializedOp(Operator):
    """Wrap an already-materialised relation as a plan leaf.

    Used by hybrid plans and by the confidence operator when an intermediate
    result has been written to a temporary table (or heap file).
    """

    def __init__(self, relation: Relation, label: str = "Materialized"):
        super().__init__()
        self.relation = relation
        self._label = label

    @property
    def schema(self) -> Schema:
        return self.relation.schema

    def _execute(self) -> Iterator[Row]:
        yield from self.relation

    def label(self) -> str:
        return f"{self._label}({len(self.relation)} rows)"


class SelectOp(Operator):
    """Filter rows by a predicate."""

    def __init__(self, child: Operator, predicate: Predicate):
        super().__init__()
        self.child = child
        self.predicate = predicate

    @property
    def schema(self) -> Schema:
        return self.child.schema

    @property
    def children(self) -> List[Operator]:
        return [self.child]

    def _execute(self) -> Iterator[Row]:
        bound = self.predicate.bind(self.child.schema)
        for row in self.child:
            if bound(row):
                yield row

    def label(self) -> str:
        return f"Select({self.predicate})"


class ProjectOp(Operator):
    """Bag projection onto a list of attribute names (no duplicate removal).

    Variable/probability columns survive a projection only if listed; the
    planner takes care of always carrying along the pairs that the confidence
    operator still needs (Section V.B: a probability computation operator is
    preceded by a projection on the selection attributes and the join
    attributes of joins still above it, plus the V/P pairs).
    """

    def __init__(self, child: Operator, names: Sequence[str]):
        super().__init__()
        self.child = child
        self.names = list(names)
        self._schema = child.schema.project(self.names)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def children(self) -> List[Operator]:
        return [self.child]

    def _execute(self) -> Iterator[Row]:
        indices = self.child.schema.indices_of(self.names)
        for row in self.child:
            yield tuple(row[i] for i in indices)

    def label(self) -> str:
        return f"Project({', '.join(self.names)})"
