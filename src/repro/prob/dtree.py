"""Decomposition-tree arithmetic: the rules every lineage compile shares.

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
worst-case exponential, it also runs **anytime**: every open (not yet
compiled) leaf carries cheap lower/upper bounds on its probability, the
bounds propagate through the node types to bracket the root probability, and
compilation repeatedly expands the open leaf with the largest influence on
the root gap until the caller's absolute or relative error budget
``epsilon`` is met.  The bounds are sound at every step: each expansion
replaces one leaf's bracket by a bracket that still contains that leaf's
probability, so stopping early always yields a sound root interval, and at
closure it is exact.  They are not monotone on both sides.  The upper bound
does not rise (``prod (1 - p * c_i)`` is convex in ``p``, so a Shannon step
can only lower the independent-or estimate; the property tests assert it),
but the lower bound may drop for a step: the greedy disjoint pick of the two
cofactors can be worse than the parent's pick.  For ``{0 1 5, 0 3, 1 2, 4 5}``
with ``p(5) = 0.75`` and the rest ``0.5`` the root bracket goes
``[0.6484, 0.7144] -> [0.6094, 0.6924] -> 0.671875``.

Open-leaf bounds for a positive DNF with clause probabilities ``c_i``:

* lower — greedily pick a subset of pairwise variable-disjoint clauses and
  combine them as independent events (``1 - prod (1 - c_i)`` over the subset);
  the sub-DNF implies the full DNF, so this is a valid lower bound that is at
  least ``max c_i``;
* upper — ``1 - prod (1 - c_i)`` over *all* clauses: positive clauses are
  positively correlated (FKG), so treating them as independent overestimates
  the probability of the disjunction.

The one compiler that applies these rules is the hash-consed store of
:mod:`repro.prob.sharedag` over the columnar node table of
:mod:`repro.prob.nodetable`; this module holds what it shares — the open-leaf
bounds, the branch rule, the cofactor, the refinement driver
:func:`refine_to_budget`, the order-canonical clause form — so that those
rules exist once.  A Karp–Luby-style Monte Carlo estimator
(:func:`karp_luby_probability`) is the last-resort fallback for adversarial
lineage on which the frontier converges too slowly.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.errors import ApproximationBudgetError, ProbabilityError
from repro.prob.formulas import DNF

__all__ = [
    "ApproxResult",
    "MonteCarloResult",
    "CanonicalClauses",
    "canonical_clauses",
    "dnf_from_canonical",
    "karp_luby_probability",
    "refine_to_budget",
]

Clause = FrozenSet[int]

#: The picklable, order-canonical form of a DNF's clause set: clauses as
#: sorted tuples of variable ids, sorted among each other.  Snapshots and
#: per-tuple Monte Carlo seeds (:mod:`repro.sprout.parallel`) use it —
#: ``frozenset`` iteration order is salted per process, so anything derived
#: from it must go through this form instead.
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
    cached on the DNF object, so repeated calls are O(1).
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
# node arithmetic
# ---------------------------------------------------------------------------

# The open-leaf bounds and the branch-variable rule are module functions so
# that the store (:mod:`repro.prob.sharedag`) and the per-tuple tree the tests
# keep as its oracle apply one definition: their exact probabilities for the
# same clause set must be bit-identical.  The inner-node arithmetic is the
# node table's :meth:`~repro.prob.nodetable.NodeTable.refresh_one`; the
# oracle's object-graph twin of it lives with the tests.


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
    tree,
    *,
    epsilon: float = 0.0,
    relative: bool = False,
    max_steps: Optional[int] = DEFAULT_MAX_STEPS,
) -> ApproxResult:
    """Drive ``tree`` until the ``epsilon`` budget is met or it closes.

    ``tree`` is a :class:`repro.prob.sharedag.SharedDTree` view (anything
    with ``refine``, ``bounds`` and ``is_exact`` will do).
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
