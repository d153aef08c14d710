"""Functional dependencies: closure, chase, and FD-reducts (Section IV).

In a tuple-independent probabilistic database an FD holds if and only if it
holds in every possible world, so the classical notions apply unchanged.  The
paper uses FDs in two ways:

* to rewrite (possibly non-hierarchical, non-Boolean) queries into Boolean
  hierarchical **FD-reducts** whose signatures can process the original query
  (Definition IV.1, Proposition IV.5), and
* to refine signatures — attributes functionally determined by a parent node
  turn many-to-many ``*`` relationships into one-to-many ones, reducing the
  number of scans the confidence operator needs (Fig. 13).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Sequence, Set

from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.storage.catalog import FunctionalDependency

__all__ = [
    "closure",
    "chased_query",
    "fd_reduct",
]


def closure(attributes: Iterable[str], fds: Sequence[FunctionalDependency]) -> FrozenSet[str]:
    """Attribute closure under a set of FDs (the standard fixpoint chase).

    FDs are applied regardless of their table of origin: per Definition IV.1
    the closure extends an atom's attribute set with attributes functionally
    implied through join attributes (e.g. the FD ``Ord: okey -> ckey`` extends
    ``Item(okey, discount)`` with ``ckey`` because the shared ``okey`` value
    determines the same ``ckey`` in every world).
    """
    result: Set[str] = set(attributes)
    changed = True
    while changed:
        changed = False
        for fd in fds:
            if fd.determinant <= result and not fd.dependent <= result:
                result |= fd.dependent
                changed = True
    return frozenset(result)


def fd_reduct(
    query: ConjunctiveQuery,
    fds: Sequence[FunctionalDependency],
    name: str = None,
) -> ConjunctiveQuery:
    """The FD-reduct of ``query`` under ``fds`` (Definition IV.1).

    The reduct is the Boolean query whose atoms carry the attribute closures
    minus the closure of the projection list: fixing the projection values
    (equal within a bag of duplicates of the original query) makes attributes
    functionally implied by them constant, so they are discarded to obtain a
    simpler, more precise signature (Example IV.4).
    """
    head_closure = closure(query.projection, fds)
    atoms = []
    for atom in query.atoms:
        extended = closure(atom.attributes, fds) - head_closure
        # Keep a deterministic attribute order: original attributes first,
        # then the attributes added by the closure, alphabetically.
        original = [a for a in atom.attributes if a in extended]
        added = sorted(extended - set(original))
        atoms.append(Atom(atom.table, tuple(original + added)))
    # The reduct is only used for its structure (hierarchy test, signature);
    # selection conjuncts whose attributes were discarded with the head closure
    # are dropped — they cannot influence either.
    remaining_attributes = set()
    for atom in atoms:
        remaining_attributes |= atom.attribute_set
    from repro.algebra.expressions import conjunction_of

    kept_selections = conjunction_of(
        [
            predicate
            for predicate in query.selection_predicates()
            if predicate.attributes() <= remaining_attributes
        ]
    )
    return ConjunctiveQuery(
        name or f"fd-reduct({query.name})",
        atoms,
        projection=(),
        selections=kept_selections,
    )


def chased_query(
    query: ConjunctiveQuery,
    fds: Sequence[FunctionalDependency],
    name: str = None,
) -> ConjunctiveQuery:
    """The query with every atom extended to its attribute closure.

    Unlike the FD-reduct, the projection list is kept and the head closure is
    *not* subtracted, so the chased query still mentions every physical join
    attribute.  It has the same answers as the original query in every
    possible world (the added attributes are functionally determined through
    shared join attributes) and, by Proposition IV.5, it is hierarchical
    whenever any sequence of chase steps can make the query hierarchical.
    The eager/hybrid planners build their join trees from this query: the tree
    reflects the tractable structure while remaining physically executable.
    """
    atoms = []
    for atom in query.atoms:
        extended = closure(atom.attributes, fds)
        original = [a for a in atom.attributes]
        added = sorted(extended - set(original))
        atoms.append(Atom(atom.table, tuple(original + added)))
    return ConjunctiveQuery(
        name or f"chase({query.name})",
        atoms,
        projection=query.projection,
        selections=query.selections,
    )
