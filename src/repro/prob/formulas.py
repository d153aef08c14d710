"""Propositional formulas over Boolean random variables: DNF lineage and 1OF.

The answer to a conjunctive query on a tuple-independent database associates
each distinct answer tuple with a DNF formula over the input variables (one
clause per derivation, one literal per contributing input tuple).  This module
provides:

* a small formula algebra (:class:`Var`, :class:`And`, :class:`Or`,
  :class:`Top`, :class:`Bottom`) used to represent factored *one-occurrence
  form* (1OF) formulas, whose probability is computable in linear time because
  sub-formulas over disjoint variable sets are independent;
* a :class:`DNF` container for positive-clause DNF lineage;
* exact probability computation for arbitrary DNFs via Shannon expansion with
  memoisation and independent-component decomposition (used as ground truth in
  tests and as the fallback for intractable queries);
* a brute-force enumeration evaluator used to validate everything else.
"""

from __future__ import annotations

import abc

from itertools import product as cartesian_product
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

from repro.errors import ProbabilityError

__all__ = [
    "Formula",
    "Var",
    "And",
    "Or",
    "Top",
    "Bottom",
    "DNF",
    "dnf_probability",
    "dnf_probability_enumeration",
    "is_read_once",
]

Clause = FrozenSet[int]


class Formula(abc.ABC):
    """A positive propositional formula over integer variables."""

    @abc.abstractmethod
    def variables(self) -> FrozenSet[int]:
        """Set of variables occurring in the formula."""

    @abc.abstractmethod
    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        """Truth value under a (total) assignment."""

    @abc.abstractmethod
    def probability(self, probabilities: Mapping[int, float]) -> float:
        """Probability assuming the formula is in one-occurrence form.

        Correct whenever sibling sub-formulas use disjoint variable sets (the
        defining property of 1OF); raises :class:`ProbabilityError` if a
        variable occurs more than once anywhere in the tree.
        """

    @abc.abstractmethod
    def occurrence_count(self) -> Dict[int, int]:
        """Number of occurrences of each variable in the syntax tree."""

    def is_one_occurrence_form(self) -> bool:
        """True if every variable occurs at most once in the syntax tree."""
        return all(count <= 1 for count in self.occurrence_count().values())

    def to_dnf(self) -> "DNF":
        """Expand to DNF (exponential in the worst case; used in tests only)."""
        return DNF(self._dnf_clauses())

    @abc.abstractmethod
    def _dnf_clauses(self) -> Set[Clause]:
        ...


class Top(Formula):
    """The constant true formula (lineage of a tuple present in all worlds)."""

    def variables(self) -> FrozenSet[int]:
        return frozenset()

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return True

    def probability(self, probabilities: Mapping[int, float]) -> float:
        return 1.0

    def occurrence_count(self) -> Dict[int, int]:
        return {}

    def _dnf_clauses(self) -> Set[Clause]:
        return {frozenset()}

    def __str__(self) -> str:
        return "true"

    def __eq__(self, other) -> bool:
        return isinstance(other, Top)

    def __hash__(self) -> int:
        return hash("Top")


class Bottom(Formula):
    """The constant false formula (empty lineage)."""

    def variables(self) -> FrozenSet[int]:
        return frozenset()

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return False

    def probability(self, probabilities: Mapping[int, float]) -> float:
        return 0.0

    def occurrence_count(self) -> Dict[int, int]:
        return {}

    def _dnf_clauses(self) -> Set[Clause]:
        return set()

    def __str__(self) -> str:
        return "false"

    def __eq__(self, other) -> bool:
        return isinstance(other, Bottom)

    def __hash__(self) -> int:
        return hash("Bottom")


class Var(Formula):
    """A single positive literal."""

    __slots__ = ("variable",)

    def __init__(self, variable: int):
        self.variable = variable

    def variables(self) -> FrozenSet[int]:
        return frozenset({self.variable})

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return bool(assignment[self.variable])

    def probability(self, probabilities: Mapping[int, float]) -> float:
        try:
            return probabilities[self.variable]
        except KeyError:
            raise ProbabilityError(f"no probability for variable {self.variable}") from None

    def occurrence_count(self) -> Dict[int, int]:
        return {self.variable: 1}

    def _dnf_clauses(self) -> Set[Clause]:
        return {frozenset({self.variable})}

    def __str__(self) -> str:
        return f"x{self.variable}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Var) and self.variable == other.variable

    def __hash__(self) -> int:
        return hash(("Var", self.variable))


class _Nary(Formula):
    """Shared behaviour of AND/OR nodes."""

    symbol = "?"

    def __init__(self, children: Iterable[Formula]):
        self.children: Tuple[Formula, ...] = tuple(children)
        if not self.children:
            raise ProbabilityError(f"{type(self).__name__} needs at least one child")

    def variables(self) -> FrozenSet[int]:
        result: FrozenSet[int] = frozenset()
        for child in self.children:
            result |= child.variables()
        return result

    def occurrence_count(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for child in self.children:
            for variable, count in child.occurrence_count().items():
                counts[variable] = counts.get(variable, 0) + count
        return counts

    def _check_disjoint(self) -> None:
        counts = self.occurrence_count()
        repeated = sorted(v for v, count in counts.items() if count > 1)
        if repeated:
            raise ProbabilityError(
                "formula is not in one-occurrence form; repeated variables "
                f"{repeated[:5]}{'...' if len(repeated) > 5 else ''}"
            )

    def __str__(self) -> str:
        return "(" + f" {self.symbol} ".join(str(child) for child in self.children) + ")"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.children == other.children

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.children))


class And(_Nary):
    """Conjunction; probability is the product of independent children."""

    symbol = "∧"

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return all(child.evaluate(assignment) for child in self.children)

    def probability(self, probabilities: Mapping[int, float]) -> float:
        self._check_disjoint()
        result = 1.0
        for child in self.children:
            result *= child.probability(probabilities)
        return result

    def _dnf_clauses(self) -> Set[Clause]:
        clause_sets = [child._dnf_clauses() for child in self.children]
        result: Set[Clause] = {frozenset()}
        for clauses in clause_sets:
            result = {
                existing | addition for existing in result for addition in clauses
            }
        return result


class Or(_Nary):
    """Disjunction; probability is ``1 - prod(1 - p)`` over independent children."""

    symbol = "∨"

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return any(child.evaluate(assignment) for child in self.children)

    def probability(self, probabilities: Mapping[int, float]) -> float:
        self._check_disjoint()
        result = 1.0
        for child in self.children:
            result *= 1.0 - child.probability(probabilities)
        return 1.0 - result

    def _dnf_clauses(self) -> Set[Clause]:
        result: Set[Clause] = set()
        for child in self.children:
            result |= child._dnf_clauses()
        return result


def is_read_once(formula: Formula) -> bool:
    """Alias for :meth:`Formula.is_one_occurrence_form` (paper terminology: 1OF)."""
    return formula.is_one_occurrence_form()


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

    def to_formula(self) -> Formula:
        """Convert to the formula algebra (not factored; variables may repeat)."""
        if self.is_false():
            return Bottom()
        if self.is_true():
            return Top()
        disjuncts: List[Formula] = []
        for clause in sorted(self.clauses, key=lambda c: sorted(c)):
            literals = [Var(v) for v in sorted(clause)]
            disjuncts.append(literals[0] if len(literals) == 1 else And(literals))
        return disjuncts[0] if len(disjuncts) == 1 else Or(disjuncts)


# ---------------------------------------------------------------------------
# Exact probability of arbitrary DNFs
# ---------------------------------------------------------------------------


def dnf_probability_enumeration(dnf: DNF, probabilities: Mapping[int, float]) -> float:
    """Probability by enumerating all assignments of the DNF's variables.

    Exponential; used only to validate the other evaluators on small inputs.
    """
    variables = sorted(dnf.variables())
    if not variables:
        return 1.0 if dnf.is_true() else 0.0
    total = 0.0
    for values in cartesian_product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if dnf.evaluate(assignment):
            weight = 1.0
            for variable, value in assignment.items():
                p = probabilities[variable]
                weight *= p if value else 1.0 - p
            total += weight
    return total


def _component_groups(clauses: Collection[Clause]) -> List[Set[Clause]]:
    """Partition ``clauses`` into groups over pairwise disjoint variable sets.

    The one grouping primitive of the compile kernel
    (``SharedLineageStore.build``) and of :func:`dnf_probability`: a clause
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


def _connected_components(dnf: DNF) -> List[DNF]:
    """Split a DNF into sub-DNFs over disjoint variable sets (independent factors)."""
    return [DNF(group) for group in _component_groups(dnf.clauses)]


def dnf_probability(dnf: DNF, probabilities: Mapping[int, float]) -> float:
    """Exact probability of a positive DNF via Shannon expansion.

    The computation decomposes the DNF into independent components (disjoint
    variable sets), memoises cofactors, and picks the most frequent variable
    to branch on.  Worst-case exponential (confidence computation is
    #P-complete in general) but fast for the lineage of hierarchical queries
    and adequate as ground truth for the TPC-H workloads at test scale.
    """
    memo: Dict[FrozenSet[Clause], float] = {}

    def solve(current: DNF) -> float:
        if current.is_true():
            return 1.0
        if current.is_false():
            return 0.0
        key = current.clauses
        cached = memo.get(key)
        if cached is not None:
            return cached

        components = _connected_components(current)
        if len(components) > 1:
            # Components use disjoint variables, hence are independent:
            # P(or of components) = 1 - prod(1 - P(component)).
            none_true = 1.0
            for component in components:
                none_true *= 1.0 - solve(component)
            result = 1.0 - none_true
        else:
            result = _shannon(current)
        memo[key] = result
        return result

    def _shannon(current: DNF) -> float:
        counts: Dict[int, int] = {}
        for clause in current.clauses:
            for variable in clause:
                counts[variable] = counts.get(variable, 0) + 1
        branch_variable = max(sorted(counts), key=lambda v: counts[v])
        p = probabilities[branch_variable]
        positive = solve(current.condition(branch_variable, True))
        negative = solve(current.condition(branch_variable, False))
        return p * positive + (1.0 - p) * negative

    return solve(dnf.minimised())
