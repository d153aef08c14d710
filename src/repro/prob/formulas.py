"""Propositional formulas over Boolean random variables: DNF lineage.

The answer to a conjunctive query on a tuple-independent database associates
each distinct answer tuple with a DNF formula over the input variables (one
clause per derivation, one literal per contributing input tuple).  This module
provides:

* a :class:`DNF` container for positive-clause DNF lineage;
* the independent-component grouping of a clause set that the lineage
  compiler (:mod:`repro.prob.sharedag`) decomposes by.

Exact model counting by memoised Shannon expansion and by enumeration — the
ground truth the compiler is checked against — lives with the tests
(``tests/oracles/lineage.py``).
"""

from __future__ import annotations

from typing import (
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = ["DNF"]

Clause = FrozenSet[int]


class DNF:
    """A DNF of positive clauses — the relational lineage encoding.

    Clauses are frozensets of variable ids; the empty DNF is false and a DNF
    containing the empty clause is true.  Subsumed clauses are *not* removed
    automatically (query evaluation never produces them for queries without
    self-joins), but :meth:`minimised` is available.

    ``_canonical`` caches the order-canonical serialisation computed by
    :func:`repro.prob.dtree.canonical_clauses`, so the sort is paid once per
    DNF object.
    """

    __slots__ = ("clauses", "_canonical")

    def __init__(self, clauses: Iterable[Iterable[int]] = ()):
        # Frozen element by element, in ``clauses`` order (_component_groups).
        self.clauses: FrozenSet[Clause] = frozenset(map(frozenset, clauses))
        self._canonical: Optional[Tuple[Tuple[int, ...], ...]] = None

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "DNF":
        """Build a DNF with one clause per row of variable ids."""
        return cls(frozenset(row) for row in rows)

    def variables(self) -> FrozenSet[int]:
        return frozenset().union(*self.clauses)

    def is_false(self) -> bool:
        return not self.clauses

    def is_true(self) -> bool:
        return frozenset() in self.clauses

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __eq__(self, other) -> bool:
        return isinstance(other, DNF) and self.clauses == other.clauses

    def __hash__(self) -> int:
        return hash(self.clauses)

    def __str__(self) -> str:
        if self.is_false():
            return "false"
        parts = []
        for clause in sorted(self.clauses, key=lambda c: sorted(c)):
            if not clause:
                parts.append("true")
            else:
                parts.append("".join(f"x{v}" for v in sorted(clause)))
        return " ∨ ".join(parts)

    def __or__(self, other: "DNF") -> "DNF":
        return DNF(self.clauses | other.clauses)

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Truth value under a total assignment."""
        return any(all(assignment[v] for v in clause) for clause in self.clauses)

    def condition(self, variable: int, value: bool) -> "DNF":
        """Shannon cofactor: the DNF with ``variable`` fixed to ``value``."""
        clauses: Set[Clause] = set()
        for clause in self.clauses:
            if variable in clause:
                if value:
                    clauses.add(clause - {variable})
                # a positive literal under value=False removes the clause
            else:
                clauses.add(clause)
        return DNF(clauses)

    def minimised(self) -> "DNF":
        """Remove subsumed clauses (a clause containing another clause).

        Clauses of one length (all lineage of self-join-free queries) cannot
        contain each other, so the quadratic sweep is skipped for them.  The
        result is *rebuilt* either way, in ``self.clauses`` iteration order
        (the length sort is stable): ``return self`` would keep a set layout
        the rebuild need not reproduce, and a different order downstream.
        """
        if len(set(map(len, self.clauses))) <= 1:
            return DNF(self.clauses)
        clauses = sorted(self.clauses, key=len)
        kept: List[Clause] = []
        for clause in clauses:
            if not any(other <= clause for other in kept):
                kept.append(clause)
        return DNF(kept)


# ---------------------------------------------------------------------------
# Independent components
# ---------------------------------------------------------------------------


def _component_groups(clauses: Collection[Clause]) -> List[Set[Clause]]:
    """Partition ``clauses`` into groups over pairwise disjoint variable sets.

    The one grouping primitive of the compile kernel
    (``SharedLineageStore.build``) and of the tests' exact model counter: a clause
    takes the label of an already-labelled variable, and a union-find over
    the few *labels* merges those a later clause bridges.

    **Order contract** — every float the d-tree engines produce folds in an
    order derived from here.  Groups come in first-occurrence order of one
    iteration of ``clauses``; each is a fresh ``set`` filled by ``add`` in
    that same order, so ``DNF(group)``, which freezes element by element,
    lands on one layout per input (never ``frozenset(group)``: copying a set
    re-sizes its table and can permute colliding entries); the constant-true
    group — the empty clause — comes last.  ``clauses`` must iterate the
    same way twice (an unmutated ``frozenset``, a list).
    """
    if len(clauses) == 2:
        first, second = clauses
        if first and second:
            disjoint = first.isdisjoint(second)
            return [{first}, {second}] if disjoint else [{first, second}]
    label_of: Dict[int, int] = {}
    parent: List[int] = []
    labels: List[int] = []
    for clause in clauses:
        root = -1
        for variable in clause:
            label = label_of.get(variable)
            if label is None:
                continue
            while parent[label] != label:
                parent[label] = label = parent[parent[label]]
            if root == -1:
                root = label
            elif label != root:
                parent[label] = root
        if root == -1 and clause:
            root = len(parent)
            parent.append(root)
        for variable in clause:
            label_of[variable] = root
        labels.append(root)

    groups: Dict[int, Set[Clause]] = {}
    constant: List[Set[Clause]] = []
    for clause, label in zip(clauses, labels):
        if label == -1:
            constant = [{clause}]
            continue
        while parent[label] != label:
            label = parent[label]
        group = groups.get(label)
        if group is None:
            group = groups[label] = set()
        group.add(clause)
    return list(groups.values()) + constant
