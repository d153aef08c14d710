"""The per-tuple, object-graph decomposition tree: the float twin of the store.

:class:`DTree` compiles one DNF into its own tree of Python node objects and
refines it with a lazy max-heap frontier, sharing nothing with any other
tuple.  It is the reference the hash-consed store of
:mod:`repro.prob.sharedag` is checked against: both build with the same
decomposition rules, branch on the same variable and fold bounds with the
same arithmetic (:func:`repro.prob.dtree.combine_bounds`,
:func:`repro.prob.dtree.leaf_bounds`), so an exact probability from a
``DTree`` must equal the store's bit for bit.

:func:`dtree_probability` drives one fresh tree to an error budget;
:func:`dtree_confidences` is the per-tuple loop of plain d-tree evaluation
over a lineage map — each tuple compiled in isolation from its
order-canonical clauses, in ``repr`` order — and :func:`oracle_evaluate`
runs it over a query's answer, so its exact results are what
``SproutEngine.evaluate`` must return on the d-tree route.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import ProbabilityError
from repro.prob.dtree import (
    _DET_OR,
    _IND_AND,
    _IND_OR,
    _REFRESH_BASE,
    _REFRESH_FACTOR,
    DEFAULT_MAX_STEPS,
    ApproxResult,
    _budget_met,
    _cofactor_true,
    branch_variable,
    canonical_clauses,
    combine_bounds,
    dnf_from_canonical,
    influence_weight,
    leaf_bounds,
    refine_to_budget,
)
from repro.prob.formulas import DNF, _component_groups
from repro.prob.lineage import lineage_by_tuple, probabilities_from_answer
from repro.sprout.planner import JoinOrderPlanner, materialize_answer

__all__ = ["DTree", "dtree_confidences", "dtree_probability", "oracle_evaluate"]

Clause = FrozenSet[int]


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
    expansions and may be called again later to tighten the bounds further.
    Expansion order is deterministic, so
    the bounds after ``T`` cumulative expansions are a pure function of the
    lineage.  ``memo`` maps the clause sets of closed subtrees to their
    probability, so a subformula that closes once closes wherever it recurs.
    """

    def __init__(self, dnf: DNF, probabilities: Mapping[int, float]):
        self.probabilities = probabilities
        self.memo: Dict[FrozenSet[Clause], float] = {}
        for variable in dnf.variables():
            if variable not in probabilities:
                raise ProbabilityError(f"no probability for variable {variable}")
        self.steps = 0
        #: Number of tree nodes ever constructed (splice replacements are
        #: not discounted, so this slightly over-approximates the live tree).
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
        same bracket.
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


def dtree_probability(
    dnf: DNF,
    probabilities: Mapping[int, float],
    *,
    epsilon: float = 0.0,
    relative: bool = False,
    max_steps: Optional[int] = DEFAULT_MAX_STEPS,
) -> ApproxResult:
    """Probability of a positive DNF via anytime d-tree compilation.

    With ``epsilon == 0`` the compilation runs to completion and the result is
    exact.  With ``epsilon > 0`` the loop stops as soon as the midpoint of the
    root interval is guaranteed within ``epsilon`` of the true probability
    (absolutely, or relatively to it when ``relative`` is true).  If
    ``max_steps`` leaf expansions do not reach the budget, a structured
    :class:`repro.errors.ApproximationBudgetError` carrying the best bounds so
    far is raised; pass ``max_steps=None`` to disable the cap.
    """
    return refine_to_budget(
        DTree(dnf, probabilities), epsilon=epsilon, relative=relative, max_steps=max_steps
    )


def dtree_confidences(
    lineage: Mapping[Tuple[object, ...], DNF],
    probabilities: Mapping[int, float],
    *,
    epsilon: float = 0.0,
    max_steps: Optional[int] = DEFAULT_MAX_STEPS,
) -> Dict[Tuple[object, ...], ApproxResult]:
    """One fresh :class:`DTree` per tuple, refined to ``epsilon``, in ``repr`` order.

    Each tree is built from the tuple's order-canonical clauses over the
    marginals of exactly the variables they mention, so a result depends on
    nothing but that tuple's lineage.
    """
    results = {}
    for data in sorted(lineage, key=repr):
        clauses = canonical_clauses(lineage[data])
        restricted = {
            variable: probabilities[variable] for clause in clauses for variable in clause
        }
        results[data] = refine_to_budget(
            DTree(dnf_from_canonical(clauses), restricted),
            epsilon=epsilon,
            max_steps=max_steps,
        )
    return results


def oracle_evaluate(database, query, *, epsilon: float = 0.0):
    """Plain d-tree evaluation of ``query`` with one fresh :class:`DTree` per tuple.

    The answer rows come from the row pipeline, their lineage from
    :func:`repro.prob.lineage.lineage_by_tuple`, and every tuple is refined
    to ``epsilon`` in isolation (:func:`dtree_confidences`) — what an engine
    that compiled each tuple on its own returned for ``evaluate``.
    """
    answer, _, _ = materialize_answer(database, JoinOrderPlanner(database), query)
    return dtree_confidences(
        lineage_by_tuple(answer), probabilities_from_answer(answer), epsilon=epsilon
    )
