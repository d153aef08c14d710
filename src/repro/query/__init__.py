"""Query model: conjunctive queries, hierarchy, signatures, FDs, rewritings.

The static-analysis layer of the reproduction (Sections III–IV of the
paper).  Submodules:

* :mod:`repro.query.conjunctive` — the query class: conjunctive queries
  without self-joins (:class:`Atom`, :class:`ConjunctiveQuery`), plus a
  textual :mod:`repro.query.parser`.
* :mod:`repro.query.hierarchy` — the hierarchical-query test and the
  hierarchy tree that safe/eager plans are shaped by.
* :mod:`repro.query.signature` — query signatures (``Cust(Ord Item*)*``
  -style expressions) that drive the confidence operator, and the 1scan
  property that decides how many sequential scans it needs.
* :mod:`repro.query.fd` / :mod:`repro.query.rewrite` — functional
  dependencies, the chase, and the FD-reduct rewriting that makes more
  queries tractable (Section IV); :func:`repro.query.rewrite.is_tractable`
  is the router between the exact operator paths and the d-tree engine.

See ``docs/architecture.md`` for how this layer feeds the planners.
"""

from repro.query.conjunctive import Atom, ConjunctiveQuery
from repro.query.fd import closure, fd_reduct
from repro.query.hierarchy import (
    HierarchyNode,
    build_hierarchy,
    is_hierarchical,
    relevant_join_attributes,
    witness_non_hierarchical,
)
from repro.query.parser import ParsedQuery, parse_query
from repro.query.rewrite import (
    catalog_table_attributes,
    effective_boolean_query,
    effective_signature,
    is_tractable,
)
from repro.query.signature import (
    ConcatSig,
    OneScanTreeNode,
    Signature,
    StarSig,
    TableSig,
    has_one_scan_property,
    num_scans,
    one_scan_tree,
    parse_signature,
    restrict_signature,
    signature_from_tree,
    signature_of_query,
    sort_table_order,
)

__all__ = [
    "Atom",
    "ConcatSig",
    "ConjunctiveQuery",
    "HierarchyNode",
    "OneScanTreeNode",
    "ParsedQuery",
    "Signature",
    "StarSig",
    "TableSig",
    "build_hierarchy",
    "catalog_table_attributes",
    "closure",
    "effective_boolean_query",
    "effective_signature",
    "fd_reduct",
    "has_one_scan_property",
    "is_hierarchical",
    "is_tractable",
    "num_scans",
    "one_scan_tree",
    "parse_query",
    "parse_signature",
    "relevant_join_attributes",
    "restrict_signature",
    "signature_from_tree",
    "signature_of_query",
    "sort_table_order",
    "witness_non_hierarchical",
]
