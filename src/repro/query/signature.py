"""Query signatures (Section III) and their static properties (Section V.C).

A signature describes the nesting structure of the 1OF factorisation of the
lineage of a hierarchical query: ``R`` (one tuple/variable of table R per
group), ``α*`` (several independent groups factored according to α), and
concatenation ``αβ`` (a pair of independent sub-formulas).  Signatures drive
everything the confidence operator does statically:

* how many scans are needed (:func:`num_scans`, Definition V.8 and
  Proposition V.10),
* the sort order of the operator's input (preorder of the 1scanTree),
* which aggregations can be pushed past joins (minimal covers,
  Definition III.3).

Signatures are derived from the hierarchy tree with the rules of Fig. 4,
refined by functional dependencies: a node loses its ``*`` when the attributes
of its parent (together with the projection attributes, which are constant
within a bag of duplicates) functionally determine it.
"""

from __future__ import annotations

import abc
from typing import FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set

from repro.errors import QueryError
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.fd import closure
from repro.query.hierarchy import HierarchyNode, build_hierarchy
from repro.storage.catalog import FunctionalDependency

__all__ = [
    "Signature",
    "TableSig",
    "StarSig",
    "ConcatSig",
    "parse_signature",
    "signature_of_query",
    "signature_from_tree",
    "has_one_scan_property",
    "num_scans",
    "fully_starred",
    "sort_table_order",
    "OneScanTreeNode",
    "one_scan_tree",
    "restrict_signature",
]


class Signature(abc.ABC):
    """Abstract base of the three signature forms of Definition III.1."""

    @abc.abstractmethod
    def tables(self) -> List[str]:
        """Tables mentioned, in left-to-right order."""

    @abc.abstractmethod
    def __str__(self) -> str:
        ...

    def __repr__(self) -> str:
        return f"Signature[{self}]"

    def __eq__(self, other) -> bool:
        return isinstance(other, Signature) and str(self) == str(other)

    def __hash__(self) -> int:
        return hash(str(self))

    def table_set(self) -> FrozenSet[str]:
        return frozenset(self.tables())

    def top_level_parts(self) -> List["Signature"]:
        """The concatenation parts at the top level (a single part for non-concat)."""
        return [self]

    def subexpressions(self) -> List["Signature"]:
        """All subexpressions including self (preorder)."""
        return [self]


class TableSig(Signature):
    """A table name: exactly one tuple (variable) of this table per group."""

    __slots__ = ("table",)

    def __init__(self, table: str):
        self.table = table

    def tables(self) -> List[str]:
        return [self.table]

    def __str__(self) -> str:
        return self.table


class StarSig(Signature):
    """``α*``: several independent groups, each factored according to ``α``.

    Nested stars collapse: ``(α*)*`` is equivalent to ``α*`` (Section III), so
    the constructor never wraps a StarSig in another StarSig.
    """

    __slots__ = ("inner",)

    def __new__(cls, inner: Signature):
        if isinstance(inner, StarSig):
            return inner
        instance = super().__new__(cls)
        return instance

    def __init__(self, inner: Signature):
        if isinstance(inner, StarSig):
            return  # __new__ returned the existing instance
        self.inner = inner

    def tables(self) -> List[str]:
        return self.inner.tables()

    def __str__(self) -> str:
        inner = str(self.inner)
        if isinstance(self.inner, TableSig):
            return f"{inner}*"
        return f"({inner})*"

    def top_level_parts(self) -> List[Signature]:
        return [self]

    def subexpressions(self) -> List[Signature]:
        return [self] + self.inner.subexpressions()


class ConcatSig(Signature):
    """Concatenation ``α1 α2 ... αn``: independent sub-formulas combined by AND."""

    __slots__ = ("parts",)

    def __new__(cls, parts: Iterable[Signature]):
        flattened: List[Signature] = []
        for part in parts:
            if isinstance(part, ConcatSig):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        if len(flattened) == 1:
            return flattened[0]
        instance = super().__new__(cls)
        instance.parts = tuple(flattened)
        return instance

    def __init__(self, parts: Iterable[Signature]):
        # parts already set in __new__ (unless __new__ returned a single part).
        if not hasattr(self, "parts"):
            return
        if not self.parts:
            raise QueryError("empty signature concatenation")

    def tables(self) -> List[str]:
        result: List[str] = []
        for part in self.parts:
            result.extend(part.tables())
        return result

    def __str__(self) -> str:
        rendered = []
        for part in self.parts:
            text = str(part)
            if isinstance(part, ConcatSig):
                text = f"({text})"
            rendered.append(text)
        return " ".join(rendered)

    def top_level_parts(self) -> List[Signature]:
        return list(self.parts)

    def subexpressions(self) -> List[Signature]:
        result: List[Signature] = [self]
        for part in self.parts:
            result.extend(part.subexpressions())
        return result


# ---------------------------------------------------------------------------
# Parsing (used by tests and the CLI-style examples)
# ---------------------------------------------------------------------------


def parse_signature(text: str) -> Signature:
    """Parse the paper's signature notation, e.g. ``(Cust(Ord Item*)*)*``.

    Table names are alphanumeric (plus ``_`` and ``.``); whitespace separates
    concatenated parts; ``*`` binds to the preceding table or parenthesised
    group.
    """
    tokens = _tokenize(text)
    position = 0

    def parse_concat() -> Signature:
        nonlocal position
        parts: List[Signature] = []
        while position < len(tokens) and tokens[position] not in (")",):
            parts.append(parse_item())
        if not parts:
            raise QueryError(f"empty signature group in {text!r}")
        return ConcatSig(parts) if len(parts) > 1 else parts[0]

    def parse_item() -> Signature:
        nonlocal position
        token = tokens[position]
        if token == "(":
            position += 1
            inner = parse_concat()
            if position >= len(tokens) or tokens[position] != ")":
                raise QueryError(f"unbalanced parentheses in signature {text!r}")
            position += 1
            result: Signature = inner
        elif token == "*" or token == ")":
            raise QueryError(f"unexpected {token!r} in signature {text!r}")
        else:
            position += 1
            result = TableSig(token)
        while position < len(tokens) and tokens[position] == "*":
            position += 1
            result = StarSig(result)
        return result

    result = parse_concat()
    if position != len(tokens):
        raise QueryError(f"trailing tokens in signature {text!r}")
    return result


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    current = ""
    for char in text:
        if char.isalnum() or char in "_.":
            current += char
            continue
        if current:
            tokens.append(current)
            current = ""
        if char in "()*":
            tokens.append(char)
        elif char.isspace():
            continue
        else:
            raise QueryError(f"unexpected character {char!r} in signature {text!r}")
    if current:
        tokens.append(current)
    return tokens


# ---------------------------------------------------------------------------
# Derivation from hierarchical queries (Fig. 4 + FD refinement)
# ---------------------------------------------------------------------------


def signature_of_query(
    query: ConjunctiveQuery,
    fds: Sequence[FunctionalDependency] = (),
    table_attributes: Optional[Mapping[str, Iterable[str]]] = None,
) -> Signature:
    """Signature of a hierarchical query, refined by the given FDs.

    ``table_attributes`` optionally maps each table to its *full* attribute
    set (from the catalog); without it the atom's attribute list is used.  The
    full set matters for dropping a leaf's star soundly: a leaf ``R`` loses its
    ``*`` only if the parent attributes (plus the projection attributes, which
    are constant within a bag of duplicates) functionally determine every
    attribute of ``R`` — i.e. they form a superkey, so at most one R-tuple can
    appear per group.
    """
    tree = build_hierarchy(query)
    return signature_from_tree(
        tree,
        head_attributes=query.head_attributes(),
        fds=fds,
        table_attributes=table_attributes,
        atom_attributes={atom.table: atom.attribute_set for atom in query.atoms},
    )


def signature_from_tree(
    tree: HierarchyNode,
    head_attributes: FrozenSet[str] = frozenset(),
    fds: Sequence[FunctionalDependency] = (),
    table_attributes: Optional[Mapping[str, Iterable[str]]] = None,
    atom_attributes: Optional[Mapping[str, FrozenSet[str]]] = None,
) -> Signature:
    """Apply the Fig. 4 rules (with FD refinement) to a hierarchy tree."""

    def determined(target: Iterable[str], parent: FrozenSet[str]) -> bool:
        known = closure(set(parent) | set(head_attributes), fds)
        return set(target) <= known

    def derive(node: HierarchyNode, parent_attributes: FrozenSet[str]) -> Signature:
        if node.is_leaf:
            table = node.atom.table
            if table_attributes is not None and table in table_attributes:
                full_attributes = set(table_attributes[table])
            elif atom_attributes is not None and table in atom_attributes:
                full_attributes = set(atom_attributes[table])
            else:
                full_attributes = set(node.atom.attribute_set)
            base: Signature = TableSig(table)
            if determined(full_attributes, parent_attributes):
                return base
            return StarSig(base)
        children = ConcatSig([derive(child, node.attributes) for child in node.children])
        if determined(node.attributes, parent_attributes):
            return children
        return StarSig(children)

    return derive(tree, frozenset())


# ---------------------------------------------------------------------------
# Static properties: 1scan, #scans, minimal covers, sort orders
# ---------------------------------------------------------------------------


def has_one_scan_property(signature: Signature) -> bool:
    """Definition V.8: every starred subexpression contains a star-free table
    at its top level and recursively has the 1scan property."""
    if isinstance(signature, TableSig):
        return True
    if isinstance(signature, StarSig):
        parts = signature.inner.top_level_parts()
        has_plain_table = any(isinstance(part, TableSig) for part in parts)
        return has_plain_table and all(has_one_scan_property(part) for part in parts)
    if isinstance(signature, ConcatSig):
        return all(has_one_scan_property(part) for part in signature.parts)
    raise QueryError(f"unknown signature node {signature!r}")


def num_scans(signature: Signature) -> int:
    """Proposition V.10: one scan plus one per starred subexpression without
    the 1scan property (including the signature itself)."""
    failing = 0
    for sub in signature.subexpressions():
        if isinstance(sub, StarSig) and not has_one_scan_property(sub):
            failing += 1
    return 1 + failing


def fully_starred(signature: Signature) -> Signature:
    """The signature with every table occurrence starred.

    This is the signature one obtains without any key/FD knowledge (every
    relationship is assumed many-to-many); it is always sound for the same
    query but generally needs more scans (Fig. 13's "operator without FDs").
    """
    if isinstance(signature, TableSig):
        return StarSig(signature)
    if isinstance(signature, StarSig):
        return StarSig(fully_starred(signature.inner))
    if isinstance(signature, ConcatSig):
        return ConcatSig([fully_starred(part) for part in signature.parts])
    raise QueryError(f"unknown signature node {signature!r}")


def restrict_signature(signature: Signature, tables: Iterable[str]) -> Optional[Signature]:
    """Drop every table not in ``tables`` from the signature (Section V.B).

    Returns ``None`` if nothing remains.  Empty groups disappear; stars are
    preserved on what remains.
    """
    wanted = set(tables)

    def restrict(node: Signature) -> Optional[Signature]:
        if isinstance(node, TableSig):
            return node if node.table in wanted else None
        if isinstance(node, StarSig):
            inner = restrict(node.inner)
            return StarSig(inner) if inner is not None else None
        if isinstance(node, ConcatSig):
            parts = [restrict(part) for part in node.parts]
            parts = [part for part in parts if part is not None]
            if not parts:
                return None
            return ConcatSig(parts)
        raise QueryError(f"unknown signature node {node!r}")

    return restrict(signature)


# ---------------------------------------------------------------------------
# 1scanTree and sort orders
# ---------------------------------------------------------------------------


class OneScanTreeNode:
    """A node of the 1scanTree (Section V.C): one variable column per node.

    The tree is obtained from the signature by replacing every starred
    composite with its leading star-free table; the other parts become child
    subtrees.  The preorder of the tree gives the sort order of the variable
    columns expected by the one-scan algorithm.
    """

    __slots__ = ("table", "children")

    def __init__(self, table: str, children: Sequence["OneScanTreeNode"] = ()):
        self.table = table
        self.children = tuple(children)

    def preorder(self) -> List[str]:
        result = [self.table]
        for child in self.children:
            result.extend(child.preorder())
        return result

    def __str__(self) -> str:
        if not self.children:
            return self.table
        return f"{self.table}({', '.join(str(child) for child in self.children)})"

    def __repr__(self) -> str:
        return f"OneScanTreeNode[{self}]"


def one_scan_tree(signature: Signature) -> List[OneScanTreeNode]:
    """Build the 1scanTree (a forest for top-level concatenations).

    Requires the 1scan property; raises :class:`QueryError` otherwise.
    """
    if not has_one_scan_property(signature):
        raise QueryError(
            f"signature {signature} does not have the 1scan property; "
            "schedule aggregation scans first (see repro.sprout.scans)"
        )

    def forest_of(node: Signature) -> List[OneScanTreeNode]:
        if isinstance(node, TableSig):
            return [OneScanTreeNode(node.table)]
        if isinstance(node, ConcatSig):
            result: List[OneScanTreeNode] = []
            for part in node.parts:
                result.extend(forest_of(part))
            return result
        if isinstance(node, StarSig):
            parts = node.inner.top_level_parts()
            leader_index = next(
                (i for i, part in enumerate(parts) if isinstance(part, TableSig)), None
            )
            if leader_index is None:
                # Only reachable for a bare ``R*`` via the TableSig branch above,
                # so a missing leader here means the 1scan check was bypassed.
                raise QueryError(f"starred signature {node} has no star-free leader table")
            leader = parts[leader_index]
            children: List[OneScanTreeNode] = []
            for i, part in enumerate(parts):
                if i == leader_index:
                    continue
                children.extend(forest_of(part))
            return [OneScanTreeNode(leader.table, children)]
        raise QueryError(f"unknown signature node {node!r}")

    def forest_of_top(node: Signature) -> List[OneScanTreeNode]:
        if isinstance(node, StarSig) and isinstance(node.inner, TableSig):
            return [OneScanTreeNode(node.inner.table)]
        return forest_of(node)

    return forest_of_top(signature)


def sort_table_order(signature: Signature) -> List[str]:
    """Order of the variable columns in the operator's sort key.

    Example V.12: for ``(Cust(Ord Item*)*)*`` the order is Cust, Ord, Item.
    Signatures without the 1scan property are ordered by their left-to-right
    table occurrence (the pre-aggregation scans use the same order).
    """
    if has_one_scan_property(signature):
        result: List[str] = []
        for root in one_scan_tree(signature):
            result.extend(root.preorder())
        return result
    seen: Set[str] = set()
    ordered: List[str] = []
    for table in signature.tables():
        if table not in seen:
            seen.add(table)
            ordered.append(table)
    return ordered
