"""Per-tuple confidence of plain d-tree evaluation, computed in-process.

The d-tree route of :meth:`repro.sprout.engine.SproutEngine.evaluate` ends
here: every distinct answer tuple's lineage is refined until the caller's
error budget is met, one tuple after the other, in ``repr`` order.

* :func:`compute_confidences` — the driver.  Handed the engine's
  :class:`repro.prob.sharedag.SharedDTreeCache`, the tuples are views of its
  one store and keep what earlier requests refined.
* :func:`budget_confidence` — the per-tuple routine, including the
  Karp–Luby fallback when the step cap runs out first.
* :func:`derive_task_seed` — that fallback's per-tuple seed, derived from
  the engine seed and the tuple's canonical lineage, so an estimate does not
  depend on which other tuples were evaluated before it.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ApproximationBudgetError
from repro.prob.dtree import (
    DEFAULT_MAX_STEPS,
    ApproxResult,
    CanonicalClauses,
    canonical_clauses,
    dnf_from_canonical,
    karp_luby_probability,
    refine_to_budget,
)
from repro.prob.formulas import DNF
from repro.prob.lineage import dtrees_from_dnfs
from repro.prob.sharedag import SharedDTreeCache

__all__ = [
    "budget_confidence",
    "compute_confidences",
    "derive_task_seed",
]

DataTuple = Tuple[object, ...]


def derive_task_seed(
    base_seed: Optional[int], clauses: CanonicalClauses
) -> Optional[int]:
    """A per-tuple Monte Carlo seed, stable across processes and call orders.

    Hashes the engine-level ``base_seed`` together with the tuple's canonical
    lineage, so every tuple draws from its own reproducible stream no matter
    which tuples were evaluated before it.  ``None`` stays ``None`` — the
    engine's "fresh entropy" mode — in which case run-to-run reproducibility
    is forfeited by request.
    """
    if base_seed is None:
        return None
    digest = hashlib.sha256(str(int(base_seed)).encode("ascii"))
    for clause in clauses:
        digest.update(b"|")
        digest.update(",".join(map(str, clause)).encode("ascii"))
    return int.from_bytes(digest.digest()[:8], "big")


def budget_confidence(
    tree,
    dnf: DNF,
    probabilities: Mapping[int, float],
    *,
    epsilon: float,
    relative: bool,
    max_steps: Optional[int],
    monte_carlo_samples: Optional[int],
    base_seed: Optional[int],
) -> ApproxResult:
    """One tuple of plain evaluation, on the store view that holds its lineage.

    ``tree`` is a view of the engine's shared store: it is refined until the
    ``epsilon`` budget is met, at most ``max_steps`` expansions in this call,
    and the result's ``steps`` are this call's.  When the cap runs out first
    the Karp–Luby estimate (``monte_carlo_samples`` draws, seeded by
    :func:`derive_task_seed`) clamped into the sound bracket is the point
    estimate; with sampling disabled the
    :class:`repro.errors.ApproximationBudgetError` propagates.
    """
    try:
        return refine_to_budget(
            tree, epsilon=epsilon, relative=relative, max_steps=max_steps
        )
    except ApproximationBudgetError as error:
        if monte_carlo_samples is None:
            raise
        clauses = canonical_clauses(dnf)
        estimator = karp_luby_probability(
            dnf_from_canonical(clauses),
            probabilities,
            samples=monte_carlo_samples,
            rng=random.Random(derive_task_seed(base_seed, clauses)),
        )
        return ApproxResult(
            probability=min(max(estimator.estimate, error.lower), error.upper),
            lower=error.lower,
            upper=error.upper,
            steps=error.steps,
            exact=False,
        )


def compute_confidences(
    lineage: Mapping[DataTuple, DNF],
    probabilities: Mapping[int, float],
    cache: SharedDTreeCache,
    *,
    epsilon: float = 0.0,
    relative: bool = False,
    max_steps: Optional[int] = DEFAULT_MAX_STEPS,
    monte_carlo_samples: Optional[int] = None,
    base_seed: Optional[int] = None,
) -> Dict[DataTuple, ApproxResult]:
    """Per-tuple confidence of an extracted lineage map, in ``repr`` order.

    Handed the engine's :class:`repro.prob.sharedag.SharedDTreeCache`, the
    tuples are views of its one store, refined right here under the store's
    ``pinned()`` guard (every expansion takes the store lock, as in
    :func:`repro.sprout.topk.run_decision`): what an earlier evaluation or
    decision refined is neither redone nor reported again, so a bracket is
    sound and within the budget but may be tighter than a cold run's.
    Exact confidences are those of a cold compile of each tuple alone.

    :func:`budget_confidence` is the per-tuple routine.  Budget exhaustion
    without a Monte Carlo fallback raises
    :class:`repro.errors.ApproximationBudgetError`.
    """
    budget = dict(
        epsilon=epsilon,
        relative=relative,
        max_steps=max_steps,
        monte_carlo_samples=monte_carlo_samples,
        base_seed=base_seed,
    )
    trees = dtrees_from_dnfs(lineage, probabilities, cache=cache)
    with cache.store.pinned():
        return {
            data: budget_confidence(trees[data], lineage[data], probabilities, **budget)
            for data in sorted(trees, key=repr)
        }
