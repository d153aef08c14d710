"""Table statistics and selectivity estimation for the planner.

SPROUT delegates join ordering to the host engine's cost-based optimizer
(Section V.B: "Cost-based decisions can be made using the host relational
database engine").  Our substrate plays that role with textbook System-R style
estimates: per-table row counts, per-column distinct counts, and the usual
selectivity formulas for equality/range predicates and attribute equalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.algebra.expressions import (
    AttributeComparison,
    Comparison,
    Conjunction,
    Disjunction,
    Negation,
    Predicate,
    TruePredicate,
)
from repro.storage.relation import Relation

__all__ = ["TableStatistics", "StatisticsCatalog", "estimate_selectivity"]

#: Fallback selectivities when no statistics are available (System-R defaults).
DEFAULT_EQUALITY_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 0.3


@dataclass
class TableStatistics:
    """Row count and per-column distinct-value counts of one table."""

    table: str
    row_count: int
    distinct_counts: Dict[str, int] = field(default_factory=dict)
    min_values: Dict[str, object] = field(default_factory=dict)
    max_values: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_relation(cls, relation: Relation) -> "TableStatistics":
        """Collect statistics by a single scan of ``relation``."""
        distinct: Dict[str, set] = {name: set() for name in relation.schema.names}
        minimums: Dict[str, object] = {}
        maximums: Dict[str, object] = {}
        for row in relation:
            for name, value in zip(relation.schema.names, row):
                if value is None:
                    continue
                distinct[name].add(value)
                try:
                    if name not in minimums or value < minimums[name]:
                        minimums[name] = value
                    if name not in maximums or value > maximums[name]:
                        maximums[name] = value
                except TypeError:
                    pass
        return cls(
            table=relation.name,
            row_count=len(relation),
            distinct_counts={name: len(values) for name, values in distinct.items()},
            min_values=minimums,
            max_values=maximums,
        )

    def distinct(self, attribute: str) -> int:
        """Distinct-value count of ``attribute`` (at least 1)."""
        return max(1, self.distinct_counts.get(attribute, max(1, self.row_count)))


class StatisticsCatalog:
    """Statistics for a set of tables, computed lazily from their relations.

    A table is scanned when its statistics are first asked for, and again
    once ``len(relation)`` has changed (the :meth:`Relation.columns_cached`
    staleness rule); never if no query touches it.  Collection is idempotent,
    so threads racing on a first use store equal statistics.
    """

    def __init__(self) -> None:
        self._relations: Dict[str, Relation] = {}
        self._stats: Dict[str, TableStatistics] = {}

    def register(self, relation: Relation, name: Optional[str] = None) -> None:
        name = name or relation.name
        self._relations[name] = relation
        self._stats.pop(name, None)

    def get(self, table: str) -> Optional[TableStatistics]:
        relation = self._relations.get(table)
        if relation is None:
            return None
        stats = self._stats.get(table)
        if stats is None or stats.row_count != len(relation):
            stats = TableStatistics.from_relation(relation)
            stats.table = table
            self._stats[table] = stats
        return stats

    def row_count(self, table: str, default: int = 1000) -> int:
        stats = self.get(table)
        return stats.row_count if stats is not None else default


def estimate_selectivity(predicate: Predicate, stats: Optional[TableStatistics]) -> float:
    """Estimate the fraction of rows satisfying ``predicate``."""
    if isinstance(predicate, TruePredicate):
        return 1.0
    if isinstance(predicate, Conjunction):
        result = 1.0
        for part in predicate.parts:
            result *= estimate_selectivity(part, stats)
        return result
    if isinstance(predicate, Disjunction):
        result = 1.0
        for part in predicate.parts:
            result *= 1.0 - estimate_selectivity(part, stats)
        return 1.0 - result
    if isinstance(predicate, Negation):
        return max(0.0, 1.0 - estimate_selectivity(predicate.part, stats))
    if isinstance(predicate, Comparison):
        if predicate.op in ("=",):
            if stats is not None:
                return 1.0 / stats.distinct(predicate.attribute)
            return DEFAULT_EQUALITY_SELECTIVITY
        if predicate.op in ("!=",):
            if stats is not None:
                return 1.0 - 1.0 / stats.distinct(predicate.attribute)
            return 1.0 - DEFAULT_EQUALITY_SELECTIVITY
        return _range_selectivity(predicate, stats)
    if isinstance(predicate, AttributeComparison):
        if predicate.op == "=" and stats is not None:
            distinct = max(stats.distinct(predicate.left), stats.distinct(predicate.right))
            return 1.0 / distinct
        return DEFAULT_RANGE_SELECTIVITY
    return DEFAULT_RANGE_SELECTIVITY


def _range_selectivity(predicate: Comparison, stats: Optional[TableStatistics]) -> float:
    """Interpolate selectivity of a range predicate from min/max statistics."""
    if stats is None:
        return DEFAULT_RANGE_SELECTIVITY
    low = stats.min_values.get(predicate.attribute)
    high = stats.max_values.get(predicate.attribute)
    value = predicate.value
    if (
        low is None
        or high is None
        or not isinstance(value, (int, float))
        or not isinstance(low, (int, float))
        or not isinstance(high, (int, float))
        or high <= low
    ):
        return DEFAULT_RANGE_SELECTIVITY
    fraction = (value - low) / (high - low)
    fraction = min(1.0, max(0.0, fraction))
    if predicate.op in ("<", "<="):
        return fraction
    if predicate.op in (">", ">="):
        return 1.0 - fraction
    return DEFAULT_RANGE_SELECTIVITY
