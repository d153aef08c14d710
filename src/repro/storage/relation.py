"""In-memory relations (tables) over typed schemas.

A :class:`Relation` is the unit of data exchanged between plan operators and
the unit stored in the catalog.  Rows are plain Python tuples in schema order.
The class offers a handful of convenience transformations (project, filter,
sort, distinct) used by tests and examples; the full iterator-model algebra
lives in :mod:`repro.algebra`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.storage.schema import Schema

__all__ = ["Relation"]

Row = Tuple[object, ...]


class Relation:
    """A named bag of rows conforming to a :class:`Schema`.

    Relations are bags (duplicates allowed), matching SQL semantics and the
    paper's treatment of answer relations before duplicate elimination.
    """

    __slots__ = ("name", "schema", "_rows", "_columns_cache")

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Optional[Iterable[Sequence[object]]] = None,
        validate: bool = False,
    ):
        self.name = name
        self.schema = schema
        self._rows: List[Row] = []
        self._columns_cache: Optional[Tuple[int, List[List[object]]]] = None
        if rows is not None:
            self.extend(rows, validate=validate)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dicts(
        cls, name: str, schema: Schema, dicts: Iterable[Dict[str, object]]
    ) -> "Relation":
        """Build a relation from dictionaries keyed by attribute name."""
        names = schema.names
        rows = [tuple(d.get(n) for n in names) for d in dicts]
        return cls(name, schema, rows)

    @classmethod
    def from_columns(
        cls,
        name: str,
        schema: Schema,
        columns: Sequence[Sequence[object]],
        length: Optional[int] = None,
    ) -> "Relation":
        """Build a relation from parallel columns (the columnar backend's exit).

        ``zip`` transposes at C speed, so this is much cheaper than appending
        row by row.  ``length`` must be given for zero-column schemas, where
        the row count cannot be recovered from the columns.
        """
        if len(columns) != len(schema):
            raise SchemaError(
                f"column count {len(columns)} does not match schema arity {len(schema)}"
            )
        lengths = {len(column) for column in columns}
        if len(lengths) > 1:
            raise SchemaError(
                f"ragged columns: lengths {sorted(lengths)} differ "
                "(zip would silently truncate)"
            )
        out = cls(name, schema)
        if columns:
            out._rows = list(zip(*columns))
        else:
            out._rows = [()] * (length or 0)
        return out

    def to_columns(self) -> List[List[object]]:
        """Transpose the rows into one list per column (schema order)."""
        if not self._rows:
            return [[] for _ in self.schema]
        return [list(column) for column in zip(*self._rows)]

    def columns_cached(self) -> List[List[object]]:
        """Column view of the relation, cached between calls.

        The columnar scan operator reads base tables through this so that a
        table is transposed at most once, like a column store would keep it.
        The cache is keyed on the row count: appends invalidate it, and no
        code path replaces rows without changing the count.  The returned
        lists are shared, read-only: batch plans carry these very objects.
        """
        cached = self._columns_cache
        if cached is not None and cached[0] == len(self._rows):
            return cached[1]
        columns = self.to_columns()
        self._columns_cache = (len(self._rows), columns)
        return columns

    def empty_like(self, name: Optional[str] = None) -> "Relation":
        """Return an empty relation with the same schema."""
        return Relation(name or self.name, self.schema)

    # -- mutation --------------------------------------------------------------

    def append(self, row: Sequence[object], validate: bool = False) -> None:
        """Append a single row (converted to a tuple)."""
        row = tuple(row)
        if validate:
            self.schema.validate_row(row)
        elif len(row) != len(self.schema):
            raise SchemaError(
                f"row arity {len(row)} does not match schema arity {len(self.schema)}"
            )
        self._rows.append(row)

    def extend(self, rows: Iterable[Sequence[object]], validate: bool = False) -> None:
        """Append many rows."""
        for row in rows:
            self.append(row, validate=validate)

    # -- basic protocol --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema == other.schema and sorted(
            self._rows, key=repr
        ) == sorted(other._rows, key=repr)

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {len(self._rows)} rows, {len(self.schema)} cols)"

    @property
    def rows(self) -> List[Row]:
        """The underlying row list (treat as read-only)."""
        return self._rows

    # -- access helpers --------------------------------------------------------

    def column(self, name: str) -> List[object]:
        """Return all values of the named column, in row order."""
        index = self.schema.index_of(name)
        return [row[index] for row in self._rows]

    def to_dicts(self) -> List[Dict[str, object]]:
        """Return rows as dictionaries keyed by attribute name."""
        names = self.schema.names
        return [dict(zip(names, row)) for row in self._rows]

    def row_dict(self, row: Row) -> Dict[str, object]:
        """Convert one row of this relation to a dict."""
        return dict(zip(self.schema.names, row))

    # -- simple transformations (convenience; the algebra operators are richer)

    def project(self, names: Sequence[str], name: Optional[str] = None) -> "Relation":
        """Bag projection onto ``names`` (no duplicate elimination)."""
        indices = self.schema.indices_of(names)
        out = Relation(name or self.name, self.schema.project(names))
        out._rows = [tuple(row[i] for i in indices) for row in self._rows]
        return out

    def filter(
        self, predicate: Callable[[Dict[str, object]], bool], name: Optional[str] = None
    ) -> "Relation":
        """Keep rows for which ``predicate(row_as_dict)`` is true."""
        names = self.schema.names
        out = Relation(name or self.name, self.schema)
        out._rows = [
            row for row in self._rows if predicate(dict(zip(names, row)))
        ]
        return out

    def sorted_by(self, names: Sequence[str], name: Optional[str] = None) -> "Relation":
        """Return a copy sorted lexicographically by the given columns."""
        indices = self.schema.indices_of(names)
        out = Relation(name or self.name, self.schema)
        out._rows = sorted(self._rows, key=lambda row: tuple(sort_key_for(row[i]) for i in indices))
        return out

    def distinct(self, name: Optional[str] = None) -> "Relation":
        """Return a copy with duplicate rows removed (first occurrence kept)."""
        seen = set()
        out = Relation(name or self.name, self.schema)
        for row in self._rows:
            if row not in seen:
                seen.add(row)
                out._rows.append(row)
        return out

    def renamed(self, mapping: Dict[str, str], name: Optional[str] = None) -> "Relation":
        """Return a copy with attributes renamed according to ``mapping``."""
        out = Relation(name or self.name, self.schema.rename(mapping))
        out._rows = list(self._rows)
        return out

    # -- presentation ----------------------------------------------------------

    def head(self, n: int = 10) -> "Relation":
        """Return the first ``n`` rows as a new relation."""
        out = Relation(self.name, self.schema)
        out._rows = self._rows[:n]
        return out

    def pretty(self, limit: int = 20) -> str:
        """Render the relation as a fixed-width text table (for examples/docs)."""
        names = list(self.schema.names)
        shown = self._rows[:limit]
        cells = [[_fmt(v) for v in row] for row in shown]
        widths = [len(n) for n in names]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        separator = "-+-".join("-" * w for w in widths)
        lines = [header, separator]
        for row in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if len(self._rows) > limit:
            lines.append(f"... ({len(self._rows) - limit} more rows)")
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def sort_key_for(value: object) -> Tuple[int, object]:
    """Total order over heterogeneous, possibly-None column values.

    None sorts first, then booleans/numbers, then everything else by string;
    every sort and ``min``/``max`` over column values orders by it.
    """
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))
