"""A small SQL-ish parser for conjunctive queries with ``conf()``.

SPROUT extends PostgreSQL's SQL with a ``conf()`` aggregate that requests
exact probability computation for the distinct tuples of a query answer.  The
examples in this repository accept the analogous subset:

.. code-block:: sql

    SELECT odate, conf()
    FROM cust, ord, item
    WHERE cname = 'Joe' AND discount > 0

Restrictions (matching the paper's query class): conjunctive conditions only,
equality joins expressed implicitly through shared attribute names (or
explicitly as ``r.a = s.a`` with the same attribute name on both sides), no
aggregations other than ``conf()``, no self-joins.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.errors import QueryError
from repro.algebra.expressions import Comparison, Predicate, conjunction_of
from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation

__all__ = ["ParsedQuery", "parse_query"]

_SELECT_RE = re.compile(
    r"^\s*select\s+(?P<select>.*?)\s+from\s+(?P<from>.*?)(?:\s+where\s+(?P<where>.*?))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)

_CONDITION_RE = re.compile(
    r"^\s*(?P<left>[\w.]+)\s*(?P<op><=|>=|!=|<>|=|<|>)\s*(?P<right>.+?)\s*$"
)


@dataclass(frozen=True)
class ParsedQuery:
    """Result of parsing: the conjunctive query plus the conf() flag."""

    query: ConjunctiveQuery
    wants_confidence: bool
    distinct: bool


def parse_query(sql: str, catalog: Catalog, name: str = "query") -> ParsedQuery:
    """Parse ``sql`` against ``catalog`` into a :class:`ConjunctiveQuery`.

    The catalog supplies each table's attribute list (atoms use the full data
    schema, as the paper's TPC-H atoms do).  Attribute references may be
    qualified (``ord.odate``); the qualifier is validated and dropped because
    the query model identifies join attributes by name.
    """
    match = _SELECT_RE.match(sql)
    if match is None:
        raise QueryError(f"cannot parse query: {sql!r}")

    select_clause = match.group("select").strip()
    from_clause = match.group("from").strip()
    where_clause = (match.group("where") or "").strip()

    distinct = False
    if select_clause.lower().startswith("distinct "):
        distinct = True
        select_clause = select_clause[len("distinct ") :].strip()

    tables = [t.strip() for t in from_clause.split(",") if t.strip()]
    if not tables:
        raise QueryError("FROM clause lists no tables")
    atoms = []
    table_lookup: Dict[str, str] = {}
    for table in tables:
        resolved = _resolve_table(table, catalog)
        table_lookup[table.lower()] = resolved
        atoms.append(Atom(resolved, catalog.table(resolved).schema.data_names()))

    known_attributes = {attr for atom in atoms for attr in atom.attributes}
    owners = {attr: atom.table for atom in atoms for attr in atom.attributes}

    wants_confidence = False
    projection: List[str] = []
    for item in _split_commas(select_clause):
        item = item.strip()
        if not item:
            continue
        if item.lower() in ("conf()", "conf ( )"):
            wants_confidence = True
            continue
        if item == "*":
            raise QueryError("SELECT * is not supported; list attributes explicitly")
        projection.append(_resolve_attribute(item, known_attributes, table_lookup))

    selections: List[Predicate] = []
    if where_clause:
        for condition in re.split(r"\s+and\s+", where_clause, flags=re.IGNORECASE):
            predicate = _parse_condition(condition, known_attributes, table_lookup)
            if predicate is not None:
                _check_orderable(predicate, catalog.table(owners[predicate.attribute]).relation)
                selections.append(predicate)

    query = ConjunctiveQuery(
        name,
        atoms,
        projection=projection,
        selections=conjunction_of(selections),
    )
    return ParsedQuery(query=query, wants_confidence=wants_confidence, distinct=distinct)


def _split_commas(text: str) -> List[str]:
    """Split on commas that are not inside parentheses."""
    parts: List[str] = []
    depth = 0
    current = ""
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth = max(0, depth - 1)
        if char == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += char
    parts.append(current)
    return parts


def _resolve_table(name: str, catalog: Catalog) -> str:
    if catalog.has_table(name):
        return name
    for candidate in catalog.table_names():
        if candidate.lower() == name.lower():
            return candidate
    raise QueryError(f"unknown table {name!r}; catalog has {catalog.table_names()}")


def _resolve_attribute(
    reference: str, known_attributes: Iterable[str], table_lookup: Dict[str, str]
) -> str:
    reference = reference.strip()
    if "." in reference:
        qualifier, _, attribute = reference.partition(".")
        if qualifier.lower() not in table_lookup:
            raise QueryError(f"unknown table qualifier {qualifier!r} in {reference!r}")
    else:
        attribute = reference
    matches = [a for a in known_attributes if a.lower() == attribute.lower()]
    if not matches:
        raise QueryError(f"unknown attribute {reference!r}")
    return matches[0]


def _parse_literal(text: str) -> object:
    text = text.strip()
    if (text.startswith("'") and text.endswith("'")) or (
        text.startswith('"') and text.endswith('"')
    ):
        return text[1:-1]
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    raise QueryError(f"cannot parse literal {text!r} (strings need quotes)")


def _check_orderable(predicate: Comparison, relation: Optional[Relation]) -> None:
    """Refuse ``<``/``<=``/``>``/``>=`` whose literal the stored column cannot order against.

    The stored values decide, not the declared dtype: ``Schema.of`` defaults to
    ``str`` and rows are not validated against it.  The literal is compared
    with the column's first non-``None`` value, so only a column that mixes
    mutually unorderable types can still fail when the query runs.
    """
    if predicate.op in ("=", "!=") or relation is None:
        return
    index = relation.schema.index_of(predicate.attribute)
    sample = next((row[index] for row in relation if row[index] is not None), None)
    if sample is None:
        return
    try:
        predicate._fn(sample, predicate.value)
    except TypeError:
        raise QueryError(
            f"cannot order attribute {predicate.attribute!r} "
            f"({type(sample).__name__} values) against {predicate.value!r}"
        ) from None


def _parse_condition(
    condition: str, known_attributes: Iterable[str], table_lookup: Dict[str, str]
) -> Optional[Predicate]:
    match = _CONDITION_RE.match(condition)
    if match is None:
        raise QueryError(f"cannot parse condition {condition!r}")
    left = match.group("left")
    op = match.group("op")
    right = match.group("right").strip()

    left_attribute = _resolve_attribute(left, known_attributes, table_lookup)
    right_is_attribute = bool(re.fullmatch(r"[\w.]+", right)) and not re.fullmatch(
        r"[-+]?\d+(\.\d+)?", right
    ) and not (right.lower() in ("true", "false"))
    if right_is_attribute and not (right.startswith("'") or right.startswith('"')):
        try:
            right_attribute = _resolve_attribute(right, known_attributes, table_lookup)
        except QueryError:
            right_attribute = None
        if right_attribute is not None:
            if op != "=":
                raise QueryError(
                    f"inequality joins are not supported (condition {condition!r})"
                )
            if right_attribute != left_attribute:
                raise QueryError(
                    "join conditions must equate identically named attributes "
                    f"(got {left_attribute!r} = {right_attribute!r}); rename columns "
                    "in the schema so join attributes share a name"
                )
            # A join condition on a shared attribute name is implicit in the
            # conjunctive-query model — nothing to add.
            return None
    return Comparison(left_attribute, op, _parse_literal(right))
