"""Storage substrate: schemas, relations, heap files, catalog.

The bottom layer everything else stands on:

* :mod:`repro.storage.schema` — attributes with *column roles*
  (:class:`repro.storage.schema.ColumnRole`): ordinary ``DATA`` columns vs.
  the ``VAR``/``PROB`` pairs that carry each tuple's Boolean variable and
  its marginal probability through query plans.
* :mod:`repro.storage.relation` — in-memory relations with both row and
  column access (``from_columns``/``to_columns`` back the columnar engine),
  and ``sort_key_for``, the total order every sort uses.
* :mod:`repro.storage.heapfile` — page-based secondary storage, used by the
  MystiQ baseline's materialised temporaries.
* :mod:`repro.storage.catalog` — tables, primary keys, and the functional
  dependencies the FD-aware rewriting (Section IV) consumes.

See ``docs/architecture.md`` for the full layer map.
"""

from repro.storage.catalog import Catalog, FunctionalDependency, TableInfo
from repro.storage.heapfile import HeapFile, PageStats
from repro.storage.relation import Relation, sort_key_for
from repro.storage.schema import Attribute, ColumnRole, Schema, VarProbPair

__all__ = [
    "Attribute",
    "Catalog",
    "ColumnRole",
    "FunctionalDependency",
    "HeapFile",
    "PageStats",
    "Relation",
    "Schema",
    "TableInfo",
    "VarProbPair",
    "sort_key_for",
]
