"""Delta updates over the shared-lineage DAG: re-seed, propagate, account.

The whole refinement state of a :class:`repro.prob.sharedag.SharedLineageStore`
is a deterministic function of (a) the interned clause sets and (b) the
per-variable marginals — the DAG's *shape* depends only on (a): common-prefix
factoring and connected-component splits are structural, and the Shannon
branch variable is chosen by clause frequency, never by probability.  That
separation is what makes incremental maintenance sound: changing a marginal
invalidates only the *numbers* stored in rows that mention the variable, and
repairing those rows plus their ancestor closure leaves the store in exactly
the state a from-scratch compilation of the new probability space (refined to
the same structure) would produce.

A marginal ``p(v)`` is baked into three kinds of rows, each with its own
re-seed recipe:

* **closed products** — a single-clause subformula, or the common-prefix
  constant factored out by ⊗: recompute the product over the recorded
  member variables (in the recorded order, so the float folding sequence of
  the original build is replayed bit for bit);
* **open leaves** — the FKG upper / greedy lower construction bounds
  mention every variable of the leaf DNF: recompute
  :func:`repro.prob.dtree.leaf_bounds` against the updated space;
* **⊙ cobranch rows** — the two out-edge weights are ``[p, 1 - p]`` of the
  branch variable: rewrite the weights in place.

Inner ⊗/⊕/⊙ bounds are pure functions of their children, so after the
re-seeds one multi-source per-level pass
(:meth:`repro.prob.nodetable.NodeTable.propagate_from_many`) repairs every
ancestor — and therefore every tuple view — in one sweep.

Deletion is *accounting*, not compaction: the columnar table is append-only
(nids must stay valid for live views), so retiring a view counts its
reachable rows as potential garbage and, once the count passes the store's
node budget, triggers the epoch-based :meth:`~repro.prob.sharedag.
SharedLineageStore.reset_nodes` — future builds start a fresh intern
generation and the owning cache drops its stale-epoch views; the rows
themselves are reclaimed when the cache's ``clear()`` swaps in a fresh
store.  The count is an upper bound: hash-consed rows shared with surviving
views are still referenced (and keep working) after being counted.

The functions here are deliberately store-shaped but import-light (node
kinds and ``leaf_bounds`` only), so :mod:`repro.prob.sharedag` can expose
them as methods without an import cycle.  See ``docs/streaming.md`` for the
user-facing update model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Union

from repro.errors import ProbabilityError
from repro.prob.dtree import leaf_bounds
from repro.prob.nodetable import KIND_CLOSED, KIND_DET_OR, KIND_LEAF

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.prob.sharedag import SharedDTree, SharedLineageStore

__all__ = [
    "DeltaReport",
    "apply_probability_update",
    "retire_view",
]


@dataclass(frozen=True)
class DeltaReport:
    """What one probability update touched (the delta-propagation evidence)."""

    #: The updated variable and its new marginal.
    variable: int
    probability: float
    #: Rows whose stored value, bounds, or edge weights were re-seeded
    #: directly (0 when the update was a no-op or the variable is unknown
    #: to the store).
    reseeded: int
    #: The re-seeded rows plus their full ancestor closure — every nid whose
    #: bounds *may* have moved.  A view whose root is not in here is provably
    #: unaffected; standing queries use exactly that test to decide which
    #: decided tuples re-enter the refinement frontier.
    touched: FrozenSet[int]

    @property
    def is_noop(self) -> bool:
        return not self.touched


def apply_probability_update(
    store: "SharedLineageStore", variable: int, probability: float
) -> DeltaReport:
    """Re-seed every row carrying ``variable`` and repair all ancestors.

    The incremental twin of rebuilding the store against an updated
    probability space: after this returns, every *closed* row holds the
    bit-identical value a from-scratch compilation (of the same structure)
    under the new marginals would hold, and every open leaf carries its
    construction bounds against the new space.  Returns a
    :class:`DeltaReport`; updating a variable to its current value, or one
    the store has never interned, is a no-op that records nothing.
    """
    probability = float(probability)
    if not 0.0 <= probability <= 1.0:
        raise ProbabilityError(
            f"probability must be within [0, 1], got {probability}"
        )
    previous = store.probabilities.get(variable)
    if previous is None or previous == probability:
        return DeltaReport(variable, probability, 0, frozenset())
    store.probabilities[variable] = probability
    store.space_version += 1
    dependents = store.dependents_index().get(variable)
    if not dependents:
        return DeltaReport(variable, probability, 0, frozenset())
    table = store.table
    kind_col = table.kind
    reseeded = []
    done = set()
    for nid in dependents:
        if nid in done:
            continue
        done.add(nid)
        kind = kind_col[nid]
        if kind == KIND_LEAF:
            dnf = store._leaf_dnf.get(nid)
            if dnf is None:
                continue  # stale index entry: the leaf was expanded since
            lower, upper = leaf_bounds(dnf, store.probabilities)
            table.lower[nid] = lower
            table.upper[nid] = upper
            reseeded.append(nid)
        elif kind == KIND_DET_OR:
            if store._branch_var.get(nid) != variable:
                continue  # registered for its leaf-era variables, not this one
            start = table.child_start[nid]
            table.edge_weight[start] = probability
            table.edge_weight[start + 1] = 1.0 - probability
            reseeded.append(nid)
        elif kind == KIND_CLOSED:
            members = store._const_vars.get(nid)
            if members is None:
                continue
            weight = 1.0
            for member in members:
                weight *= store.probabilities[member]
            table.lower[nid] = weight
            table.upper[nid] = weight
            reseeded.append(nid)
    if not reseeded:
        return DeltaReport(variable, probability, 0, frozenset())
    touched = table.propagate_from_many(reseeded)
    return DeltaReport(variable, probability, len(reseeded), frozenset(touched))


def retire_view(store: "SharedLineageStore", view: Union["SharedDTree", int]) -> int:
    """Retire one tuple view: epoch-based garbage accounting for deletes.

    Counts the rows reachable from the view's root as potential garbage
    (an upper bound — hash-consed rows shared with live views stay
    referenced and functional) and bumps ``store.retired_nodes``.  When the
    retired count passes the store's node budget the intern generation is
    reset (:meth:`~repro.prob.sharedag.SharedLineageStore.reset_nodes`):
    epoch watchers drop their stale views and future builds intern afresh,
    which is what keeps a long-lived streaming store's *live* structures
    bounded even though the columnar table itself is append-only.  Returns
    the number of rows counted.
    """
    root = view if isinstance(view, int) else view.root
    table = store.table
    child_start = table.child_start
    child_count = table.child_count
    edge_child = table.edge_child
    seen = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        begin = child_start[node]
        for slot in range(child_count[node]):
            child = edge_child[begin + slot]
            if child not in seen:
                seen.add(child)
                stack.append(child)
    store.retired_nodes += len(seen)
    if store.max_nodes is not None and store.retired_nodes > store.max_nodes:
        store.reset_nodes()
    return len(seen)
