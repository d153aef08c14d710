"""Decomposition trees: anytime confidence computation for arbitrary DNF lineage.

Exact confidence computation is #P-hard for non-hierarchical (unsafe) queries,
so SPROUT's follow-on line of work compiles the lineage of each answer tuple
into a *decomposition tree* (d-tree) whose node types all admit trivial
probability computation:

* **independent-and** (⊗) — the children use disjoint variable sets and are
  conjoined: ``P = prod P_i`` (created when every clause shares a common
  variable prefix that can be factored out);
* **independent-or** (⊕) — the children use disjoint variable sets and are
  disjoined: ``P = 1 - prod (1 - P_i)`` (created by splitting a DNF into its
  connected components);
* **deterministic-or** (⊙) — the children are mutually exclusive, so
  ``P = sum w_i * P_i``; created by *Shannon variable cobranching*: picking a
  variable ``x`` and rewriting ``F`` as the exclusive disjunction of
  ``x ∧ F|x=1`` and ``¬x ∧ F|x=0`` with weights ``p(x)`` and ``1 - p(x)``.

Compilation interleaves the cheap decomposition steps (factoring, component
splitting) with Shannon cobranching until every leaf is a literal or constant,
at which point the evaluation is **exact**.  Because full compilation is
worst-case exponential, the engine also runs in an **anytime** mode: every
open (not yet compiled) leaf carries cheap lower/upper bounds on its
probability, the bounds propagate through the d-tree node types to bracket the
root probability, and compilation repeatedly expands the open leaf with the
largest influence on the root gap until the caller's absolute or relative
error budget ``epsilon`` is met.  The bounds are sound at every step: each
expansion replaces one leaf's bracket by a bracket that still contains that
leaf's probability, so stopping early always yields a sound root interval,
and at closure it is exact.  They are not monotone on both sides.  The upper
bound does not rise (``prod (1 - p * c_i)`` is convex in ``p``, so a Shannon
step can only lower the independent-or estimate; the property tests assert
it), but the lower bound may drop for a step: the greedy disjoint pick of the
two cofactors can be worse than the parent's pick.  For
``{0 1 5, 0 3, 1 2, 4 5}`` with ``p(5) = 0.75`` and the rest ``0.5`` the root
bracket goes ``[0.6484, 0.7144] -> [0.6094, 0.6924] -> 0.671875``.

Open-leaf bounds for a positive DNF with clause probabilities ``c_i``:

* lower — greedily pick a subset of pairwise variable-disjoint clauses and
  combine them as independent events (``1 - prod (1 - c_i)`` over the subset);
  the sub-DNF implies the full DNF, so this is a valid lower bound that is at
  least ``max c_i``;
* upper — ``1 - prod (1 - c_i)`` over *all* clauses: positive clauses are
  positively correlated (FKG), so treating them as independent overestimates
  the probability of the disjunction.

A Karp–Luby-style Monte Carlo estimator (:func:`karp_luby_probability`) is
provided as a cross-check and as a last-resort fallback for adversarial
lineage on which the d-tree frontier converges too slowly.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import ApproximationBudgetError, ProbabilityError
from repro.prob.formulas import DNF, _component_groups

__all__ = [
    "ApproxResult",
    "MonteCarloResult",
    "DTree",
    "DTreeCache",
    "CanonicalClauses",
    "canonical_clauses",
    "dnf_from_canonical",
    "dtree_probability",
    "karp_luby_probability",
    "refine_to_budget",
]

Clause = FrozenSet[int]

#: The picklable, order-canonical form of a DNF's clause set: clauses as
#: sorted tuples of variable ids, sorted among each other.  This is the wire
#: format of the parallel executor's work units (:mod:`repro.sprout.parallel`)
#: — ``frozenset`` iteration order is salted per process, so anything derived
#: from it (seeds, partition assignment) must go through this form instead.
CanonicalClauses = Tuple[Tuple[int, ...], ...]

#: Default cap on the number of leaf expansions before an anytime run gives up
#: (raising :class:`ApproximationBudgetError`).  ``None`` disables the cap.
DEFAULT_MAX_STEPS: Optional[int] = 200_000


def canonical_clauses(dnf: DNF) -> CanonicalClauses:
    """The order-canonical, picklable form of ``dnf``'s clause set.

    Two DNFs over the same clauses map to the same value in every process,
    which makes it usable as a cross-process cache key and as seed material
    for per-tuple Monte Carlo derivation (see
    :func:`repro.sprout.parallel.derive_task_seed`).  The serialisation is
    cached on the DNF object: the parallel executor re-canonicalises the
    same lineage on every task build, so repeated calls are O(1).
    """
    cached = dnf._canonical
    if cached is None:
        cached = tuple(sorted(tuple(sorted(clause)) for clause in dnf.clauses))
        dnf._canonical = cached
    return cached


def dnf_from_canonical(clauses: CanonicalClauses) -> DNF:
    """Rebuild a :class:`DNF` from its canonical clause form (the inverse of
    :func:`canonical_clauses` up to clause order, which a DNF does not keep).
    ``clauses`` must actually be canonical (it is pre-seeded as the cache)."""
    dnf = DNF(clauses)
    dnf._canonical = tuple(clauses)
    return dnf

#: The frontier's influence weights are recomputed from scratch on a geometric
#: schedule (next rebuild at ``steps * _REFRESH_FACTOR + _REFRESH_BASE``) so
#: heap staleness stays bounded while total rebuild cost stays near-linear.
_REFRESH_BASE = 128
_REFRESH_FACTOR = 1.5


@dataclass(frozen=True)
class ApproxResult:
    """Outcome of a d-tree confidence computation.

    ``probability`` is the interval midpoint; when ``exact`` is true the
    interval is degenerate (``lower == upper``) and the value is the exact
    probability of the lineage.
    """

    probability: float
    lower: float
    upper: float
    steps: int
    exact: bool

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    def __str__(self) -> str:
        kind = "exact" if self.exact else "approx"
        return (
            f"{kind} p={self.probability:.6f} in [{self.lower:.6f}, {self.upper:.6f}] "
            f"after {self.steps} step(s)"
        )


@dataclass(frozen=True)
class MonteCarloResult:
    """A Karp–Luby estimate with a 95% normal-approximation confidence interval."""

    estimate: float
    half_width: float
    samples: int

    @property
    def lower(self) -> float:
        return max(0.0, self.estimate - self.half_width)

    @property
    def upper(self) -> float:
        return min(1.0, self.estimate + self.half_width)


# ---------------------------------------------------------------------------
# d-tree nodes
# ---------------------------------------------------------------------------

_IND_AND = "ind_and"
_IND_OR = "ind_or"
_DET_OR = "det_or"


# The bound arithmetic and the branch-variable rule are shared, as module
# functions, with the shared-lineage DAG (:mod:`repro.prob.sharedag`): both
# engines promise *bit-identical* exact probabilities for the same clause
# set, and one implementation is the only way that contract cannot drift.


def combine_bounds(kind, children, weights) -> Tuple[float, float]:
    """Interval combination for an ⊗ / ⊕ / ⊙ node over child bounds."""
    if kind == _IND_AND:
        lower = upper = 1.0
        for child in children:
            lower *= child.lower
            upper *= child.upper
    elif kind == _IND_OR:
        lower = upper = 1.0
        for child in children:
            lower *= 1.0 - child.lower
            upper *= 1.0 - child.upper
        lower, upper = 1.0 - lower, 1.0 - upper
    else:  # deterministic-or
        lower = upper = 0.0
        for weight, child in zip(weights, children):
            lower += weight * child.lower
            upper += weight * child.upper
    return lower, min(1.0, upper)


def influence_weight(kind, children, weights, slot: int) -> float:
    """Midpoint-linearised derivative of a node w.r.t. child ``slot``."""
    if kind == _DET_OR:
        return weights[slot]
    factor = 1.0
    for index, child in enumerate(children):
        if index == slot:
            continue
        mid = 0.5 * (child.lower + child.upper)
        factor *= mid if kind == _IND_AND else 1.0 - mid
    return factor


def leaf_bounds(dnf: DNF, probabilities: Mapping[int, float]) -> Tuple[float, float]:
    """Construction bounds of an open leaf (FKG upper, greedy-disjoint lower)."""
    ordered = []
    for clause in dnf.clauses:
        weight = 1.0
        for variable in clause:
            weight *= probabilities[variable]
        ordered.append((weight, sorted(clause), clause))
    ordered.sort(key=lambda item: (-item[0], item[1]))
    # Upper: independent-or over all clauses (FKG upper bound).
    none_true = 1.0
    for weight, _, _ in ordered:
        none_true *= 1.0 - weight
    # Lower: independent-or over a greedy variable-disjoint clause subset
    # (the sub-DNF implies the full DNF and its clauses are independent).
    used: set = set()
    none_picked = 1.0
    for weight, _, clause in ordered:
        if used.isdisjoint(clause):
            used.update(clause)
            none_picked *= 1.0 - weight
    return 1.0 - none_picked, 1.0 - none_true


def branch_variable(dnf: DNF) -> int:
    """Shannon cobranch choice: most frequent variable, smallest id on ties
    — deterministic, and aiming at maximal simplification of both cofactors."""
    counts: Dict[int, int] = {}
    for clause in dnf.clauses:
        for variable in clause:
            counts[variable] = counts.get(variable, 0) + 1
    return min(counts, key=lambda v: (-counts[v], v))


class _Node:
    """Shared fields: bounds plus the link to the parent slot holding us."""

    __slots__ = ("lower", "upper", "parent", "slot")

    def __init__(self) -> None:
        self.lower = 0.0
        self.upper = 1.0
        self.parent: Optional["_Inner"] = None
        self.slot = 0


class _Closed(_Node):
    """A fully compiled subtree, reduced to its exact probability."""

    __slots__ = ()

    def __init__(self, value: float):
        super().__init__()
        self.lower = self.upper = value


class _Leaf(_Node):
    """An open leaf: a DNF not yet decomposed, with cheap probability bounds."""

    __slots__ = ("dnf", "expanded", "heap_gen")

    def __init__(self, dnf: DNF, probabilities: Mapping[int, float]):
        super().__init__()
        self.dnf = dnf
        self.expanded = False
        self.heap_gen = -1
        self.lower, self.upper = leaf_bounds(dnf, probabilities)


class _Inner(_Node):
    """An ⊗ / ⊕ / ⊙ node over already constructed children."""

    __slots__ = ("kind", "children", "weights", "origin")

    def __init__(
        self,
        kind: str,
        children: List[_Node],
        weights: Optional[Sequence[float]] = None,
        origin: Optional[FrozenSet[Clause]] = None,
    ):
        super().__init__()
        self.kind = kind
        self.children = children
        self.weights = list(weights) if weights is not None else None
        self.origin = origin  # clause set this subtree computes, for memoisation
        for slot, child in enumerate(children):
            child.parent = self
            child.slot = slot
        self.refresh_bounds()

    def refresh_bounds(self) -> None:
        self.lower, self.upper = combine_bounds(self.kind, self.children, self.weights)

    def child_weight(self, slot: int) -> float:
        """Midpoint-linearised derivative of this node w.r.t. child ``slot``."""
        return influence_weight(self.kind, self.children, self.weights, slot)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


def _cofactor_true(dnf: DNF, variable: int) -> DNF:
    """Shannon cofactor ``dnf | variable=true``, minimised incrementally.

    Assumes ``dnf`` is already subsumption-free.  Then only the clauses that
    lose ``variable`` can newly subsume others, and only the untouched clauses
    can be subsumed — so one shrunk-vs-untouched sweep suffices instead of the
    full quadratic :meth:`DNF.minimised`.
    """
    shrunk: List[Clause] = []
    untouched: List[Clause] = []
    for clause in dnf.clauses:
        if variable in clause:
            shrunk.append(clause - {variable})
        else:
            untouched.append(clause)
    kept = [u for u in untouched if not any(s <= u for s in shrunk)]
    return DNF(shrunk + kept)


class DTree:
    """An incrementally compiled decomposition tree for one DNF.

    Construction applies the cheap decomposition steps eagerly;
    :meth:`expand_once` performs one Shannon cobranching step on the open leaf
    with the largest estimated influence on the root bounds; :meth:`bounds`
    returns the current root interval.  :func:`dtree_probability` drives the
    loop — use it unless you need step-by-step control.

    Bounds are maintained incrementally: an expansion splices the replacement
    subtree into the leaf's parent slot and recomputes bounds along the path
    to the root only (stopping early when nothing changes).  The frontier is a
    lazy max-heap of (influence, leaf) entries whose influence weights are
    recomputed globally on a geometric schedule (:data:`_REFRESH_BASE`,
    :data:`_REFRESH_FACTOR`), so a single step costs O(path length) rather
    than O(tree size).

    The tree is *resumable*: :meth:`refine` performs a bounded number of
    expansions and may be called again later to tighten the bounds further —
    the multi-tuple top-k/threshold scheduler relies on this to interleave
    refinement across candidate tuples.  Expansion order is deterministic,
    which :meth:`refine_to_target` turns into a cross-process protocol: the
    bounds after ``T`` cumulative expansions are a pure function of the
    lineage, so the parallel executor can hand the same tuple to different
    workers across rounds and still merge identical brackets.  ``memo`` may
    be a dictionary shared between several trees over the same variable
    space (see :class:`DTreeCache`) so that closed subformulas compiled for
    one tuple's lineage are reused verbatim by every other tuple that
    contains them.
    """

    def __init__(
        self,
        dnf: DNF,
        probabilities: Mapping[int, float],
        memo: Optional[Dict[FrozenSet[Clause], float]] = None,
    ):
        self.probabilities = probabilities
        self.memo: Dict[FrozenSet[Clause], float] = {} if memo is None else memo
        for variable in dnf.variables():
            if variable not in probabilities:
                raise ProbabilityError(f"no probability for variable {variable}")
        self.steps = 0
        #: Number of tree nodes ever constructed — the memory-proportional
        #: size measure :class:`DTreeCache` evicts by (splice replacements
        #: are not discounted, so this slightly over-approximates the live
        #: tree, which is the safe direction for an eviction bound).
        self.node_count = 0
        self._heap: List[Tuple[float, int, _Leaf]] = []
        self._heap_gen = 0
        self._counter = 0
        self._next_rebuild = _REFRESH_BASE
        self.root = self._build(dnf.minimised())
        self._rebuild_frontier()

    # -- structural decomposition (independent partition steps) ---------------

    def _product(self, variables: Iterable[int]) -> float:
        """Product of the marginals, folded in ``variables`` iteration order."""
        weight = 1.0
        for variable in variables:
            weight *= self.probabilities[variable]
        return weight

    def _build(self, dnf: DNF, connected: bool = False) -> _Node:
        """Decompose ``dnf``: constant, memo hit, single clause, ⊗ factoring of
        the common variables, ⊕ split into components, else an open leaf.

        ⊕ children follow :func:`~repro.prob.formulas._component_groups`
        order, and a multi-clause group is rebuilt as ``DNF(group)`` so that
        its clause order — which leaf bounds and every later fold follow — is
        the one the group was filled in.  ``connected`` marks a component
        that was just split off: it goes common factor → leaf without a
        second component pass; only the ``rest`` under a ⊗ can fall apart
        again and is split afresh.
        """
        self.node_count += 1
        if dnf.is_true():
            return _Closed(1.0)
        if dnf.is_false():
            return _Closed(0.0)
        cached = self.memo.get(dnf.clauses)
        if cached is not None:
            return _Closed(cached)
        clauses = list(dnf.clauses)
        if len(clauses) == 1:
            return _Closed(self._product(clauses[0]))
        # Independent-and: factor out variables common to every clause.
        common = frozenset.intersection(*clauses)
        if common:
            rest = DNF(clause - common for clause in clauses)
            self.node_count += 1  # the factored-out constant child
            children = [_Closed(self._product(common)), self._build(rest)]
            return _Inner(_IND_AND, children, origin=dnf.clauses)
        # Independent-or: split into connected components.
        if not connected:
            groups = _component_groups(clauses)
            if len(groups) > 1:
                children = [self._build_group(group) for group in groups]
                return _Inner(_IND_OR, children, origin=dnf.clauses)
        return _Leaf(dnf, self.probabilities)

    def _build_group(self, group: Set[Clause]) -> _Node:
        """One component's subtree.  A single clause closes in place — node
        count, constant test before memo probe, and fold order as in
        ``_build`` of its one-clause DNF; larger groups recurse as connected."""
        if len(group) > 1:
            return self._build(DNF(group), True)
        self.node_count += 1
        (clause,) = group
        if not clause:
            return _Closed(1.0)
        cached = self.memo.get(frozenset((clause,)))
        return _Closed(self._product(clause) if cached is None else cached)

    # -- Shannon variable cobranching -----------------------------------------

    def _expand_leaf(self, leaf: _Leaf) -> None:
        branch = branch_variable(leaf.dnf)
        p = self.probabilities[branch]
        positive = _cofactor_true(leaf.dnf, branch)
        negative = leaf.dnf.condition(branch, False)
        self.node_count += 1  # the ⊙ node itself; children count via _build
        replacement = _Inner(
            _DET_OR,
            [self._build(positive), self._build(negative)],
            weights=[p, 1.0 - p],
            origin=leaf.dnf.clauses,
        )
        leaf.expanded = True
        self.steps += 1
        self._splice(leaf, replacement)
        self._enqueue_subtree(replacement, self._path_weight(replacement))

    # -- bound propagation and frontier management ----------------------------

    def _splice(self, old: _Node, new: _Node) -> None:
        """Replace ``old`` with ``new`` and propagate bounds up to the root."""
        parent = old.parent
        if parent is None:
            self.root = new
            new.parent = None
            return
        new.parent = parent
        new.slot = old.slot
        parent.children[old.slot] = new
        node: Optional[_Inner] = parent
        while node is not None:
            before = (node.lower, node.upper)
            node.refresh_bounds()
            if all(isinstance(child, _Closed) for child in node.children):
                if node.origin is not None:
                    self.memo[node.origin] = node.lower
                closed = _Closed(node.lower)
                grand = node.parent
                if grand is None:
                    self.root = closed
                    return
                closed.parent = grand
                closed.slot = node.slot
                grand.children[node.slot] = closed
                node = grand
                continue
            if (node.lower, node.upper) == before:
                return
            node = node.parent

    def _path_weight(self, node: _Node) -> float:
        weight = 1.0
        while node.parent is not None:
            weight *= node.parent.child_weight(node.slot)
            node = node.parent
        return weight

    def _enqueue_subtree(self, node: _Node, weight: float) -> None:
        """Push every open leaf under ``node`` with its influence estimate."""
        if isinstance(node, _Closed):
            return
        if isinstance(node, _Leaf):
            if not node.expanded:
                node.heap_gen = self._heap_gen
                self._counter += 1
                heappush(
                    self._heap,
                    (-(weight * (node.upper - node.lower)), self._counter, node),
                )
            return
        assert isinstance(node, _Inner)
        for slot, child in enumerate(node.children):
            # A closed child holds no leaf and its weight is never read.
            # (Kind-closed only: a leaf with a degenerate bracket is pushed.)
            if not isinstance(child, _Closed):
                self._enqueue_subtree(child, weight * node.child_weight(slot))

    def _rebuild_frontier(self) -> None:
        """Recompute all influence weights from scratch (heals heap staleness)."""
        self._heap = []
        self._heap_gen += 1
        self._counter = 0
        self._enqueue_subtree(self.root, 1.0)

    def bounds(self) -> Tuple[float, float]:
        return self.root.lower, self.root.upper

    @property
    def lower(self) -> float:
        """Current root lower bound (the tree-level surface schedulers use,
        shared with :class:`repro.prob.sharedag.SharedDTree`, whose root is
        a table nid rather than a node object)."""
        return self.root.lower

    @property
    def upper(self) -> float:
        return self.root.upper

    @property
    def is_exact(self) -> bool:
        return isinstance(self.root, _Closed)

    @property
    def gap(self) -> float:
        return self.root.upper - self.root.lower

    def expand_once(self) -> bool:
        """Expand the most influential open leaf; False if the tree is closed."""
        if self.steps >= self._next_rebuild:
            self._rebuild_frontier()
            self._next_rebuild = int(self.steps * _REFRESH_FACTOR) + _REFRESH_BASE
        while self._heap:
            _, _, leaf = heappop(self._heap)
            if leaf.expanded or leaf.heap_gen != self._heap_gen:
                continue
            cached = self.memo.get(leaf.dnf.clauses)
            if cached is not None:
                leaf.expanded = True
                self._splice(leaf, _Closed(cached))
                continue
            self._expand_leaf(leaf)
            return True
        return False

    def refine(
        self,
        steps: Optional[int] = None,
        *,
        epsilon: float = 0.0,
        relative: bool = False,
    ) -> int:
        """Perform up to ``steps`` leaf expansions; return how many were done.

        Stops early as soon as the tree closes (exact value reached) or the
        root interval meets the ``epsilon`` budget.  ``steps=None`` removes
        the per-call cap, so ``refine(epsilon=0.0)`` compiles to exactness.
        The method is resumable: successive calls continue tightening the
        same monotone bracket, which is what lets a multi-tuple scheduler
        hand out refinement quanta to whichever tuple needs them most.
        """
        performed = 0
        while steps is None or performed < steps:
            if self.is_exact or _budget_met(
                self.root.lower, self.root.upper, epsilon, relative
            ):
                break
            if not self.expand_once():
                break
            performed += 1
        return performed

    def refine_to_target(self, target_steps: int) -> int:
        """Refine until the tree's *cumulative* step count reaches ``target_steps``.

        The unit of work of the round-based parallel top-k/threshold
        scheduler: because leaf expansion order is deterministic, a tree
        refined to a given cumulative step count has the same bounds no
        matter which process performed which portion of the expansions — a
        worker holding a warm tree pays only the difference, a worker
        rebuilding from scratch pays the full count, and both report
        identical brackets.  A tree already at or past the target performs
        nothing.  Returns the number of expansions performed by this call.
        """
        return self.refine(max(0, target_steps - self.steps))

    def result(self) -> ApproxResult:
        """The current bracket packaged as an :class:`ApproxResult`."""
        lower, upper = self.bounds()
        return ApproxResult(
            probability=0.5 * (lower + upper),
            lower=lower,
            upper=upper,
            steps=self.steps,
            exact=self.is_exact or upper == lower,
        )


def _budget_met(
    lower: float, upper: float, epsilon: float, relative: bool
) -> bool:
    gap = upper - lower
    if gap <= 0.0:
        return True
    if relative:
        return gap <= 2.0 * epsilon * lower
    return gap <= 2.0 * epsilon


def refine_to_budget(
    tree: DTree,
    *,
    epsilon: float = 0.0,
    relative: bool = False,
    max_steps: Optional[int] = DEFAULT_MAX_STEPS,
) -> ApproxResult:
    """Drive ``tree`` until the ``epsilon`` budget is met or it closes.

    ``max_steps`` caps the expansions performed *by this call*, and the
    returned :class:`ApproxResult`'s ``steps`` counts this call's expansions
    only (a cached tree may already carry refinement from earlier
    evaluations; that work is neither charged against the cap nor reported
    again).  Exceeding the cap raises a structured
    :class:`repro.errors.ApproximationBudgetError` carrying the best bounds
    so far; pass ``max_steps=None`` to disable the cap.
    """
    if epsilon < 0.0:
        raise ProbabilityError(f"epsilon must be non-negative, got {epsilon}")
    # tree.refine re-checks exactness and the epsilon budget before every
    # single expansion, so one call with the whole cap is all it takes.
    spent = tree.refine(max_steps, epsilon=epsilon, relative=relative)
    lower, upper = tree.bounds()
    if not (tree.is_exact or _budget_met(lower, upper, epsilon, relative)):
        raise ApproximationBudgetError(
            lower=lower,
            upper=upper,
            epsilon=epsilon,
            relative=relative,
            steps=spent,
        )
    return ApproxResult(
        probability=0.5 * (lower + upper),
        lower=lower,
        upper=upper,
        steps=spent,
        exact=tree.is_exact or upper == lower,
    )


def dtree_probability(
    dnf: DNF,
    probabilities: Mapping[int, float],
    *,
    epsilon: float = 0.0,
    relative: bool = False,
    max_steps: Optional[int] = DEFAULT_MAX_STEPS,
    cache: Optional["DTreeCache"] = None,
) -> ApproxResult:
    """Probability of a positive DNF via anytime d-tree compilation.

    With ``epsilon == 0`` the compilation runs to completion and the result is
    exact.  With ``epsilon > 0`` the loop stops as soon as the midpoint of the
    root interval is guaranteed within ``epsilon`` of the true probability
    (absolutely, or relatively to it when ``relative`` is true).  If
    ``max_steps`` leaf expansions do not reach the budget, a structured
    :class:`repro.errors.ApproximationBudgetError` carrying the best bounds so
    far is raised; pass ``max_steps=None`` to disable the cap.  ``cache``
    reuses (and keeps refining) the tree compiled for the same lineage by an
    earlier call.
    """
    tree = cache.get(dnf, probabilities) if cache is not None else DTree(dnf, probabilities)
    return refine_to_budget(tree, epsilon=epsilon, relative=relative, max_steps=max_steps)


class DTreeCache:
    """A shared lineage → :class:`DTree` cache.

    Repeated evaluations over overlapping candidate sets (successive top-k
    calls, threshold sweeps with different τ, an exact re-check after an
    anytime run) keep hitting the same per-tuple lineage.  The cache hands
    back the *same* incrementally compiled tree, so refinement accumulates
    across calls instead of restarting from scratch, and all trees share one
    closed-subformula memo, so a subformula compiled under one tuple closes
    instantly under every other tuple.

    All lookups must use probabilities from the same variable space (one
    probabilistic database): entries are keyed by the clause set alone.
    ``max_entries`` bounds the tree cache with LRU eviction; ``max_nodes``
    additionally bounds the *summed node count* of the cached trees — entry
    counts are blind to lineage size, so one workload of huge d-trees could
    otherwise blow memory long before 4096 entries.  The shared memo (whose
    entries are not attributable to a single tree) is capped at
    ``memo_limit`` and simply reset when it overflows — it is a pure
    accelerator, so dropping it never affects correctness.
    """

    def __init__(
        self,
        max_entries: Optional[int] = 4096,
        memo_limit: Optional[int] = 1_000_000,
        max_nodes: Optional[int] = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ProbabilityError(f"max_entries must be positive, got {max_entries}")
        if memo_limit is not None and memo_limit < 1:
            raise ProbabilityError(f"memo_limit must be positive, got {memo_limit}")
        if max_nodes is not None and max_nodes < 1:
            raise ProbabilityError(f"max_nodes must be positive, got {max_nodes}")
        self.max_entries = max_entries
        self.memo_limit = memo_limit
        self.max_nodes = max_nodes
        self.hits = 0
        self.misses = 0
        #: Entries dropped (LRU or node-budget) — cheap int, surfaced by the
        #: engine's cache statistics so benchmarks can attribute warm-vs-cold
        #: step counts instead of inferring them.
        self.evictions = 0
        self._trees: Dict[FrozenSet[Clause], DTree] = {}
        #: Last-seen node count per entry plus the running total — node
        #: budget enforcement must be O(1) per access (cache hits are on
        #: the per-tuple hot path), so totals are adjusted by delta when an
        #: entry is touched rather than re-summed over all entries.
        self._node_counts: Dict[FrozenSet[Clause], int] = {}
        self._total_nodes = 0
        self._memo: Dict[FrozenSet[Clause], float] = {}
        #: Every (variable, probability) pair the cache has ever seen: both the
        #: cached trees *and* the shared memo are only valid under these values,
        #: so a lookup that contradicts them is a misuse and raises.
        self._probabilities: Dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._trees)

    def _check_space(self, dnf: DNF, probabilities: Mapping[int, float]) -> None:
        recorded = self._probabilities
        for variable in dnf.variables():
            value = probabilities.get(variable)
            existing = recorded.get(variable)
            if existing is None:
                if value is not None:
                    recorded[variable] = value
            elif existing != value:
                raise ProbabilityError(
                    f"DTreeCache is bound to one probability space: variable "
                    f"{variable} was cached with probability {existing}, "
                    f"now given {value}"
                )

    def get(self, dnf: DNF, probabilities: Mapping[int, float]) -> DTree:
        """The (possibly already refined) tree for ``dnf``, building on a miss."""
        self._check_space(dnf, probabilities)
        key = dnf.clauses
        tree = self._trees.get(key)
        if tree is not None:
            self.hits += 1
            self._trees[key] = self._trees.pop(key)  # mark most recently used
            self._account(key, tree)
            self._enforce_node_budget()
            return tree
        self.misses += 1
        if self.memo_limit is not None and len(self._memo) > self.memo_limit:
            # Live trees keep their reference to the dict; rebinding gives new
            # trees a fresh one instead of mutating it out from under them.
            self._memo = {}
        tree = DTree(dnf, probabilities, memo=self._memo)
        self._trees[key] = tree
        self._account(key, tree)
        if self.max_entries is not None and len(self._trees) > self.max_entries:
            self._evict(next(iter(self._trees)))
        self._enforce_node_budget()
        return tree

    def _account(self, key, tree: DTree) -> None:
        """Fold the entry's current node count into the running total."""
        before = self._node_counts.get(key, 0)
        self._total_nodes += tree.node_count - before
        self._node_counts[key] = tree.node_count

    def _evict(self, key) -> None:
        self._trees.pop(key)
        self._total_nodes -= self._node_counts.pop(key, 0)
        self.evictions += 1

    def _enforce_node_budget(self) -> None:
        """Evict (LRU) until the tracked node total fits ``max_nodes``.

        Trees grow after insertion — callers refine them in place — so each
        entry's count is refreshed whenever it is accessed (the O(1) delta
        in :meth:`_account`; counts of untouched entries may lag until
        their next access).  The most recently accessed tree may be evicted
        too: the caller holds it, the cache just forgets it.
        """
        if self.max_nodes is None:
            return
        while self._total_nodes > self.max_nodes and self._trees:
            self._evict(next(iter(self._trees)))

    def clear(self) -> None:
        self._trees.clear()
        self._node_counts.clear()
        self._total_nodes = 0
        self._memo.clear()
        self._probabilities.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


# ---------------------------------------------------------------------------
# Karp–Luby Monte Carlo estimation
# ---------------------------------------------------------------------------


def karp_luby_probability(
    dnf: DNF,
    probabilities: Mapping[int, float],
    *,
    samples: int = 10_000,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> MonteCarloResult:
    """Karp–Luby importance-sampling estimate of a positive DNF's probability.

    Draws a clause ``C_i`` with probability proportional to ``P(C_i)``, then a
    possible world conditioned on ``C_i`` being true, and counts the draw when
    ``C_i`` is the *first* (in a fixed clause order) satisfied clause of that
    world.  The hit frequency times ``sum_i P(C_i)`` is an unbiased estimator
    of ``P(DNF)`` whose relative variance is bounded by the number of clauses
    — unlike naive possible-world sampling, which fails for small
    probabilities.  Used as a cross-check of the d-tree bounds and as the
    last-resort fallback for lineage on which compilation exhausts its budget.
    """
    if samples < 1:
        raise ProbabilityError(f"samples must be positive, got {samples}")
    if dnf.is_true():
        return MonteCarloResult(1.0, 0.0, samples)
    if dnf.is_false():
        return MonteCarloResult(0.0, 0.0, samples)
    generator = rng if rng is not None else random.Random(seed)
    clauses = sorted(dnf.clauses, key=lambda clause: sorted(clause))
    clause_probs: List[float] = []
    for clause in clauses:
        weight = 1.0
        for variable in clause:
            weight *= probabilities[variable]
        clause_probs.append(weight)
    total = sum(clause_probs)
    if total <= 0.0:
        return MonteCarloResult(0.0, 0.0, samples)
    cumulative: List[float] = []
    running = 0.0
    for weight in clause_probs:
        running += weight
        cumulative.append(running)
    variables = sorted(dnf.variables())
    hits = 0
    for _ in range(samples):
        pick = generator.random() * total
        index = min(bisect_left(cumulative, pick), len(cumulative) - 1)
        forced = clauses[index]
        world = {
            variable: True
            if variable in forced
            else generator.random() < probabilities[variable]
            for variable in variables
        }
        first_satisfied = -1
        for j, clause in enumerate(clauses):
            if j > index:
                break
            if all(world[variable] for variable in clause):
                first_satisfied = j
                break
        if first_satisfied == index:
            hits += 1
    fraction = hits / samples
    estimate = min(1.0, total * fraction)
    spread = total * math.sqrt(max(fraction * (1.0 - fraction), 1.0 / samples) / samples)
    return MonteCarloResult(estimate, 1.96 * spread, samples)
