"""Conjunctive queries without self-joins.

The paper considers queries of the form ``π_A σ_φ (R1 ⋈ ... ⋈ Rn)`` where

* ``A`` is the projection (selection-attribute) list,
* ``φ`` is a conjunction of comparisons between attributes and constants, and
* joins are natural equi-joins — join attributes carry the same name in the
  joined tables.

:class:`ConjunctiveQuery` is the static description of such a query; it knows
nothing about data.  The hierarchy test, signature derivation, FD-reduct, and
the planners all consume this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import QueryError, UnsupportedQueryError
from repro.algebra.expressions import Conjunction, Predicate, TruePredicate, conjunction_of

__all__ = ["Atom", "ConjunctiveQuery"]


@dataclass(frozen=True)
class Atom:
    """One relation occurrence ``R(A)`` in the join query."""

    table: str
    attributes: Tuple[str, ...]

    def __init__(self, table: str, attributes: Iterable[str]):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "attributes", tuple(attributes))
        if len(set(self.attributes)) != len(self.attributes):
            raise QueryError(f"atom {table!r} lists a duplicate attribute")

    @property
    def attribute_set(self) -> FrozenSet[str]:
        return frozenset(self.attributes)

    def with_attributes(self, attributes: Iterable[str]) -> "Atom":
        return Atom(self.table, attributes)

    def __str__(self) -> str:
        return f"{self.table}({', '.join(self.attributes)})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query without self-joins.

    Parameters
    ----------
    name:
        Identifier used in experiment reports (e.g. ``"Q18"`` or ``"B17"``).
    atoms:
        The relation occurrences.  Relation names must be distinct (no
        self-joins).  For the mutually exclusive case of Section IV, name
        renamed copies registered with
        :meth:`repro.prob.pdb.ProbabilisticDatabase.add_alias`, as TPC-H
        query 7 does with ``nation_s`` and ``nation_c``.
    projection:
        The selection-attribute list ``A``.  Empty means a Boolean query.
    selections:
        Conjunction of unary predicates (attribute–constant comparisons).
    """

    name: str
    atoms: Tuple[Atom, ...]
    projection: Tuple[str, ...] = ()
    selections: Predicate = field(default_factory=TruePredicate)

    def __init__(
        self,
        name: str,
        atoms: Iterable[Atom],
        projection: Iterable[str] = (),
        selections: Optional[Predicate] = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "atoms", tuple(atoms))
        object.__setattr__(self, "projection", tuple(projection))
        object.__setattr__(self, "selections", selections or TruePredicate())
        if not self.atoms:
            raise QueryError(f"query {name!r} has no atoms")
        tables = [atom.table for atom in self.atoms]
        if len(set(tables)) != len(tables):
            raise UnsupportedQueryError(
                f"query {name!r} contains a self-join; when its branches select "
                "mutually exclusive tuples, register a renamed copy of the table "
                "with ProbabilisticDatabase.add_alias and name the copy instead"
            )
        all_attributes = self.attributes()
        for attribute in self.projection:
            if attribute not in all_attributes:
                raise QueryError(
                    f"projection attribute {attribute!r} does not occur in any atom"
                )
        for attribute in self.selections.attributes():
            if attribute not in all_attributes:
                raise QueryError(
                    f"selection attribute {attribute!r} does not occur in any atom"
                )

    # -- basic accessors ---------------------------------------------------------

    def table_names(self) -> List[str]:
        return [atom.table for atom in self.atoms]

    def atom_of(self, table: str) -> Atom:
        for atom in self.atoms:
            if atom.table == table:
                return atom
        raise QueryError(f"query {self.name!r} has no atom for table {table!r}")

    def attributes(self) -> Set[str]:
        """All attributes occurring in the query."""
        result: Set[str] = set()
        for atom in self.atoms:
            result |= atom.attribute_set
        return result

    def attributes_of(self, table: str) -> FrozenSet[str]:
        return self.atom_of(table).attribute_set

    def is_boolean(self) -> bool:
        """True if the projection list is empty (``π_∅``)."""
        return not self.projection

    def join_attributes(self) -> Set[str]:
        """Attributes occurring in at least two atoms (the join attributes)."""
        counts: Dict[str, int] = {}
        for atom in self.atoms:
            for attribute in atom.attribute_set:
                counts[attribute] = counts.get(attribute, 0) + 1
        return {attribute for attribute, count in counts.items() if count >= 2}

    def atoms_with(self, attribute: str) -> List[Atom]:
        """Atoms whose schema contains ``attribute`` (the paper's ``sg``)."""
        return [atom for atom in self.atoms if attribute in atom.attribute_set]

    def head_attributes(self) -> FrozenSet[str]:
        """Projection attributes (the paper's ``A0``)."""
        return frozenset(self.projection)

    def selection_predicates(self) -> List[Predicate]:
        """The individual conjuncts of the selection condition."""
        if isinstance(self.selections, TruePredicate):
            return []
        if isinstance(self.selections, Conjunction):
            return list(self.selections.parts)
        return [self.selections]

    def selections_on(self, table: str) -> Predicate:
        """The conjuncts of the selection condition that refer only to ``table``."""
        attributes = self.attributes_of(table)
        parts = [
            predicate
            for predicate in self.selection_predicates()
            if predicate.attributes() <= attributes
        ]
        return conjunction_of(parts)

    def uncovered_selections(self) -> List[Predicate]:
        """Selection conjuncts that do not fit within a single atom.

        The paper's query class only has unary (per-table) selection
        predicates; conjuncts spanning several tables cannot be pushed to a
        base table and are rejected by the engines rather than silently
        dropped.
        """
        return [
            predicate
            for predicate in self.selection_predicates()
            if not any(
                predicate.attributes() <= atom.attribute_set for atom in self.atoms
            )
        ]

    # -- derived queries -----------------------------------------------------------

    def boolean_version(self, name: Optional[str] = None) -> "ConjunctiveQuery":
        """The Boolean query obtained by dropping the projection list."""
        return ConjunctiveQuery(
            name or f"B({self.name})",
            self.atoms,
            projection=(),
            selections=self.selections,
        )

    def with_projection(
        self, projection: Iterable[str], name: Optional[str] = None
    ) -> "ConjunctiveQuery":
        return ConjunctiveQuery(
            name or self.name, self.atoms, projection=projection, selections=self.selections
        )

    def with_atoms(self, atoms: Iterable[Atom], name: Optional[str] = None) -> "ConjunctiveQuery":
        return ConjunctiveQuery(
            name or self.name, atoms, projection=self.projection, selections=self.selections
        )

    # -- presentation -----------------------------------------------------------------

    def __str__(self) -> str:
        head = ", ".join(self.projection) if self.projection else "∅"
        body = " ⋈ ".join(str(atom) for atom in self.atoms)
        selection = str(self.selections)
        if selection == "true":
            return f"π[{head}]({body})"
        return f"π[{head}] σ[{selection}]({body})"
