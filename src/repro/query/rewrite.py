"""Query rewritings (Section IV): FD-reducts, effective signatures, tractability.

The planner never works on the user's query directly when functional
dependencies are available: it derives the query's *effective signature* from
the hierarchical FD-reduct and uses that signature to process the answer of
the original query.  This module bundles those rewriting entry points.

Self-joins whose branches select mutually exclusive tuples (the end of
Section IV) are not a rewrite: the database registers renamed copies of the
table that share its variables (:meth:`repro.prob.pdb.ProbabilisticDatabase.add_alias`),
as TPC-H query 7 does with its two ``nation`` copies, and the query names
the copies as distinct tables.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.errors import NonHierarchicalQueryError
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.fd import fd_reduct
from repro.query.hierarchy import build_hierarchy, is_hierarchical
from repro.query.signature import Signature, signature_from_tree, signature_of_query
from repro.storage.catalog import Catalog, FunctionalDependency

__all__ = [
    "effective_signature",
    "effective_boolean_query",
    "is_tractable",
]


def effective_boolean_query(
    query: ConjunctiveQuery, fds: Sequence[FunctionalDependency]
) -> ConjunctiveQuery:
    """The Boolean hierarchical query whose signature processes ``query``.

    With FDs this is the FD-reduct (Definition IV.1); without FDs it is simply
    the Boolean version of the query.  The result is *not* guaranteed to be
    hierarchical — callers check with :func:`repro.query.hierarchy.is_hierarchical`.
    """
    if fds:
        return fd_reduct(query, fds)
    return query.boolean_version()


def is_tractable(query: ConjunctiveQuery, fds: Sequence[FunctionalDependency] = ()) -> bool:
    """Whether exact confidence computation is known to be in PTIME for ``query``.

    True if the query itself is hierarchical (head attributes excluded), or if
    its FD-reduct under ``fds`` is hierarchical.
    """
    if is_hierarchical(query):
        return True
    if fds and is_hierarchical(fd_reduct(query, fds)):
        return True
    return False


def effective_signature(
    query: ConjunctiveQuery,
    fds: Sequence[FunctionalDependency] = (),
    table_attributes: Optional[Mapping[str, Iterable[str]]] = None,
) -> Signature:
    """Signature used by the confidence operator to process ``query``.

    With FDs, the signature is derived from the hierarchical FD-reduct but the
    original projection attributes still count as "fixed" when deciding where
    a ``*`` can be dropped (within one bag of duplicates the projection values
    are constant, and anything they functionally determine is constant too).
    Raises :class:`NonHierarchicalQueryError` if neither the query nor its
    FD-reduct is hierarchical.
    """
    reduct = effective_boolean_query(query, fds)
    if is_hierarchical(reduct):
        tree = build_hierarchy(reduct)
        return signature_from_tree(
            tree,
            head_attributes=query.head_attributes(),
            fds=fds,
            table_attributes=table_attributes,
            atom_attributes={atom.table: atom.attribute_set for atom in reduct.atoms},
        )
    if is_hierarchical(query):
        # The reduct should never be "less hierarchical" than the query
        # (Proposition IV.5); fall back defensively to the plain signature.
        return signature_of_query(query, fds=fds, table_attributes=table_attributes)
    raise NonHierarchicalQueryError(
        f"query {query.name!r} is not hierarchical and its FD-reduct is not either; "
        "exact confidence computation is #P-hard for this query in general"
    )


def catalog_table_attributes(catalog: Catalog, tables: Iterable[str]) -> Dict[str, List[str]]:
    """Full data-attribute sets of the given tables as recorded in the catalog."""
    result: Dict[str, List[str]] = {}
    for table in tables:
        if catalog.has_table(table):
            result[table] = catalog.table(table).schema.data_names()
    return result
