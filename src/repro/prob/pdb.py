"""Tuple-independent probabilistic databases.

A probabilistic database is a set of tuple-independent probabilistic tables
plus the schema-level knowledge (keys, functional dependencies) the planner
uses.  Conceptually it represents exponentially many possible worlds — one per
truth assignment of the Boolean variables.  Enumerating them, the semantic
ground truth every query evaluator is tested against, is test code
(``tests/oracles/worlds.py``).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.errors import CatalogError
from repro.prob.ptable import ProbabilisticTable, ProbabilitySpec, make_tuple_independent
from repro.prob.variables import VariableRegistry
from repro.storage.catalog import Catalog, FunctionalDependency
from repro.storage.relation import Relation
from repro.storage.schema import Schema

__all__ = ["ProbabilisticDatabase"]


class ProbabilisticDatabase:
    """A collection of tuple-independent tables with keys and FDs."""

    def __init__(self, name: str = "pdb", seed: int = 0):
        self.name = name
        self.catalog = Catalog()
        self.registry = VariableRegistry()
        self._tables: Dict[str, ProbabilisticTable] = {}
        self._rng = random.Random(seed)

    # -- construction ------------------------------------------------------------

    def add_table(
        self,
        relation: Relation,
        probabilities: ProbabilitySpec = None,
        primary_key: Optional[Sequence[str]] = None,
        candidate_keys: Optional[Iterable[Sequence[str]]] = None,
        name: Optional[str] = None,
    ) -> ProbabilisticTable:
        """Convert ``relation`` into a tuple-independent table and register it."""
        source = name or relation.name
        if source in self._tables:
            raise CatalogError(f"probabilistic table {source!r} already exists")
        table = make_tuple_independent(
            relation, self.registry, probabilities, rng=self._rng, source=source
        )
        self._tables[source] = table
        self.catalog.register_table(
            source,
            table.schema,
            relation=table.relation,
            primary_key=primary_key,
            candidate_keys=candidate_keys,
        )
        return table

    def add_fd(self, fd: FunctionalDependency) -> None:
        """Declare a functional dependency (holds in every possible world)."""
        self.catalog.add_fd(fd)

    def add_alias(
        self,
        base_table: str,
        alias: str,
        primary_key: Optional[Sequence[str]] = None,
        rename: Optional[Mapping[str, str]] = None,
    ) -> ProbabilisticTable:
        """Register a renamed copy of an existing table that *shares* its variables.

        Used for self-joins whose branches select mutually exclusive tuples
        (Section IV): the two copies of e.g. ``Nation`` in TPC-H query 7 are
        treated as different relations.  Sharing variable ids is sound exactly
        because the branches never contribute the same tuple to one answer row.
        ``rename`` optionally maps data-column names of the base table to the
        names the alias should expose (e.g. ``nationkey -> s_nationkey`` so the
        copy naturally joins with ``supplier``).
        """
        if alias in self._tables:
            raise CatalogError(f"probabilistic table {alias!r} already exists")
        base = self.table(base_table)
        renaming = dict(rename or {})
        renaming[base.var_column] = f"{alias}.V"
        renaming[base.prob_column] = f"{alias}.P"
        if primary_key is None and self.catalog.has_table(base_table):
            base_key = self.catalog.table(base_table).primary_key
            if base_key is not None:
                primary_key = tuple(renaming.get(a, a) for a in base_key)
        schema = Schema(
            tuple(
                a.renamed(renaming.get(a.name, a.name)).with_source(alias)
                for a in base.schema
            )
        )
        relation = Relation(alias, schema, list(base.relation))
        data_schema = Schema(
            a.renamed(renaming.get(a.name, a.name)).with_source(alias)
            for a in base.data_schema
        )
        table = ProbabilisticTable(alias, relation, data_schema)
        self._tables[alias] = table
        self.catalog.register_table(
            alias,
            schema,
            relation=relation,
            primary_key=primary_key,
        )
        return table

    # -- lookups -------------------------------------------------------------------

    def table(self, name: str) -> ProbabilisticTable:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(
                f"unknown probabilistic table {name!r}; known: {sorted(self._tables)}"
            ) from None

    def relation(self, name: str) -> Relation:
        """The stored relation (data + V/P columns) of a probabilistic table."""
        return self.table(name).relation

    def table_names(self) -> List[str]:
        return list(self._tables)

    def tables(self) -> List[ProbabilisticTable]:
        return list(self._tables.values())

    def probabilities(self) -> Dict[int, float]:
        """Mapping from every registered variable to its marginal probability."""
        return self.registry.probabilities()

    def variable_count(self) -> int:
        return len(self.registry)

    def functional_dependencies(self) -> List[FunctionalDependency]:
        return self.catalog.functional_dependencies()

    def __repr__(self) -> str:
        return (
            f"ProbabilisticDatabase({self.name!r}, tables={self.table_names()}, "
            f"variables={self.variable_count()})"
        )
