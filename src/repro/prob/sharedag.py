"""The lineage compiler: one shared DAG on a columnar node table.

Compiling each answer tuple's lineage on its own treats it as an island:
identical subformulas that occur under several tuples (the same
supplier/partsupp clauses recurring under many brands in the TPC-H
workloads) would be Shannon-expanded and bounded once *per tuple*.  This
module compiles every tuple into one **hash-consed AND/OR DAG** per
probability space, held in a :class:`repro.prob.nodetable.NodeTable`: node
kind, child ranges, levels and lower/upper bounds live in parallel flat
arrays, a node is an integer id (``nid``, assigned in creation order — the
deterministic scheduler tiebreak), and bound propagation runs as per-level
passes over the columns.

* every subformula (a subsumption-free positive DNF) is interned in a
  :class:`SharedLineageStore` keyed by its clause set, so structurally equal
  subformulas are represented by a single table row no matter how many
  tuples' lineages contain them;
* each row memoises its current lower/upper probability bounds (degenerate
  once the subformula is fully compiled, i.e. its exact probability);
* a refinement step — a Shannon cobranch on a shared variable — mutates one
  row *in place* (a ``leaf`` becomes a ``det_or`` under the same nid) and
  propagates the tightened bounds level by level to **all** ancestors, and
  therefore to every tuple whose lineage contains the refined node;
* a :class:`SharedDTree` is a per-tuple *view* over the store: a root nid
  plus a private influence-ordered frontier, measured lazily — at the first
  peek after the view was built or marked stale.  It offers the anytime
  tree surface (``lower``/``upper``, ``bounds``/``gap``/``is_exact``/
  ``refine``/``result``) that the top-k/threshold scheduler and the
  refinement driver :func:`repro.prob.dtree.refine_to_budget` run on;
* exact closure (``refine`` with ``epsilon == 0``) ranks nothing: the
  store closes the view's sub-DAG in one post-order sweep
  (:meth:`SharedLineageStore.close`), expanding the leaves the ranked
  frontier would, in another order.

The decomposition rules, branch-variable choice, and bound arithmetic are
those of :mod:`repro.prob.dtree` operation for operation (the table's
refresh replicates the per-tuple oracle's ``combine_bounds`` in
``tests/oracles/dtree.py`` exactly), so the exact probability the
DAG computes for a clause set is **bit-identical** to what a tuple's own,
unshared d-tree computes for the same clause set — sharing changes how much
work is performed, never a single float of the answer.  The tests hold that
per-tuple tree as the oracle.

Because nids stay valid for the store's lifetime (the table is append-only;
mutation is in place), a store is *shippable*: :meth:`export_segment` /
:meth:`from_segment` serialise the columns plus the open-leaf DNFs and the
intern map, which is how the query service's snapshots carry a warm store
across a restart.

:class:`ClauseInterner` deduplicates the clause frozensets themselves (the
batch pipeline's :func:`repro.sprout.onescan.columnar_lineage` emits interned
clauses directly), and :class:`SharedDTreeCache` is the engine's lineage
cache: ``get``/``hits``/``misses``/``evictions``/``clear``, node-count-bounded.

See the shared-lineage guide under ``docs/`` and ``docs/refinement_core.md``
for the user-facing guides.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Sequence
from typing import Set, Tuple

from repro.errors import ProbabilityError
from repro.faults import fault_point
from repro.prob.delta import DeltaReport, apply_probability_update
from repro.prob.delta import retire_view as _retire_view
from repro.prob.dtree import (
    _REFRESH_BASE,
    _REFRESH_FACTOR,
    ApproxResult,
    _budget_met,
    _cofactor_true,
    branch_variable,
    canonical_clauses,
    dnf_from_canonical,
    leaf_bounds,
)
from repro.prob.formulas import DNF, _component_groups
from repro.prob.nodetable import (
    KIND_CLOSED,
    KIND_DET_OR,
    KIND_IND_AND,
    KIND_IND_OR,
    KIND_LEAF,
    NodeTable,
)

__all__ = [
    "ClauseInterner",
    "SharedLineageStore",
    "SharedDTree",
    "SharedDTreeCache",
    "SpaceProof",
]

Clause = FrozenSet[int]

#: Node-count budget after which :class:`SharedDTreeCache` resets its store's
#: intern table (live views keep working; see the cache docstring).
DEFAULT_MAX_NODES = 2_000_000

#: Views a :class:`SharedDTreeCache` keeps, least recently used first out.
MAX_ENTRIES = 4096


class ClauseInterner:
    """Interns clause frozensets: one shared object per clause.

    Candidate lineages in top-k/threshold workloads repeat the same clauses
    across many answer tuples; interning makes every occurrence share a
    single ``frozenset`` object (hashing and equality then hit the same
    cached hash).
    """

    __slots__ = ("_canonical",)

    def __init__(self) -> None:
        self._canonical: Dict[Clause, Clause] = {}

    def __len__(self) -> int:
        return len(self._canonical)

    def intern(self, clause: Iterable[int]) -> Clause:
        """The canonical shared frozenset for ``clause`` (registering it)."""
        key = frozenset(clause)
        found = self._canonical.get(key)
        if found is None:
            self._canonical[key] = key
            return key
        return found


class SharedLineageStore:
    """The hash-consed AND/OR DAG shared by every tuple of one probability space.

    Nodes live in a columnar :class:`~repro.prob.nodetable.NodeTable`;
    ``build`` interns subformulas with structural deduplication (two DNFs
    with the same clause set map to the same nid), ``expand_leaf`` performs
    one Shannon cobranch and propagates the tightened bounds to all
    ancestors — one batched pass per topological level — and
    ``refine_round`` is the scheduler primitive: among the frontiers of a
    set of gating views, expand the nodes with the largest bound-width mass
    summed over the tuples they gate (``refine_round(views, 1)`` expands the
    single most valuable one).

    ``steps`` counts the store-global **logical refinement steps** — each
    Shannon expansion once, no matter how many tuples it serves.
    ``node_count`` counts nids created since the last :meth:`reset_nodes`
    (the budget quantity); ``len(store.table)`` is the total table length.
    All lookups must use probabilities from one probabilistic database
    (:meth:`add_probabilities` guards this).
    """

    def __init__(
        self,
        interner: Optional[ClauseInterner] = None,
        max_nodes: Optional[int] = None,
    ):
        self.probabilities: Dict[int, float] = {}
        self.interner = interner if interner is not None else ClauseInterner()
        self.table = NodeTable()
        self.steps = 0
        self.node_count = 0
        #: Intern-table budget enforced *during refinement* too: every leaf
        #: expansion builds new nodes, so a budget checked only at view
        #: construction would let a single huge compilation grow the table
        #: arbitrarily far past it.  ``None`` disables the in-refinement check.
        self.max_nodes = max_nodes
        #: Incremented by every :meth:`reset_nodes` — holders of node
        #: references (the view cache) watch this to drop structures from
        #: earlier epochs.  The columnar table itself is append-only for the
        #: store's lifetime; rows are reclaimed when the owning cache's
        #: ``clear()`` swaps in a fresh store.
        self.reset_epoch = 0
        #: Rows counted as potential garbage by :meth:`retire_view`.  Purely
        #: accounting (the table is append-only); crossing ``max_nodes``
        #: triggers an epoch reset.  Zeroed by :meth:`reset_nodes`.
        self.retired_nodes = 0
        #: Bumped when a delta moves a recorded marginal: voids older SpaceProofs.
        self.space_version = 0
        #: Frontier accounting over every view of this store: views marked
        #: stale (:meth:`SharedDTree.resync`; every new view starts marked)
        #: vs. frontiers actually measured at a peek.  The gap is work saved.
        self.frontier_marks = 0
        self.frontier_rebuilds = 0
        self._nodes: Dict[FrozenSet[Clause], int] = {}
        #: Open-leaf payloads: the DNF a leaf nid will cobranch on.  Popped
        #: on expansion; deliberately *not* dropped by :meth:`reset_nodes`,
        #: because live views keep refining leaves from earlier epochs.
        self._leaf_dnf: Dict[int, DNF] = {}
        #: Probability-dependency registries for delta updates
        #: (:mod:`repro.prob.delta`).  ``_const_vars`` records, per closed
        #: product row, the member variables *in the fold order of the
        #: original build* (so a re-seed replays the same float sequence);
        #: ``_branch_var`` the Shannon variable of each ⊙ row.  Like
        #: ``_leaf_dnf``, these survive :meth:`reset_nodes`: live views keep
        #: being updatable.  ``_var_index`` maps a variable to every row
        #: depending on it directly; only a delta reads it, so it stays
        #: ``None`` until something asks (:meth:`dependents_index`) — a store
        #: that is compiled, refined and dropped never pays for it.
        self._const_vars: Dict[int, Tuple[int, ...]] = {}
        self._branch_var: Dict[int, int] = {}
        self._var_index: Optional[Dict[int, List[int]]] = None
        #: Concurrency discipline (the query service's contract).  The
        #: re-entrant lock serialises every mutating entry point —
        #: construction, expansion, delta updates, retirement, epoch resets
        #: — so a store shared between a refinement thread and reader
        #: threads (stats endpoints) never interleaves a mutation with
        #: another mutation.  The pin count implements the *epoch* half:
        #: while any request holds views mid-decision (``pinned()``), a
        #: budget-triggered :meth:`reset_nodes` is deferred to the last
        #: unpin, so ``reset_epoch`` never advances beneath an in-flight
        #: decision and the view cache never drops entries a request is
        #: still refining.  The lock is deliberately *not* part of
        #: :meth:`export_segment` — segments ship between processes, locks
        #: do not.
        self._lock = threading.RLock()
        self._pins = 0
        self._reset_pending = False

    def __len__(self) -> int:
        return len(self._nodes)

    # -- concurrency discipline --------------------------------------------

    @property
    def lock(self) -> "threading.RLock":
        """The store's re-entrant lock (shared with its owning cache)."""
        return self._lock

    def pin(self) -> None:
        """Enter a decision epoch: defer intern-table resets until unpin."""
        with self._lock:
            self._pins += 1

    def unpin(self) -> None:
        """Leave a decision epoch; the last unpin runs any deferred reset."""
        with self._lock:
            self._pins -= 1
            if self._pins <= 0:
                self._pins = 0
                if self._reset_pending:
                    self._reset_pending = False
                    self.reset_nodes()

    @contextmanager
    def pinned(self):
        """Context manager around one decision: pin, run, unpin.

        :func:`repro.sprout.topk.run_decision` wraps every shared-store
        decision in this, which is what makes the node-budget epoch reset
        safe under the query service: the reset (and the view-cache
        eviction keyed on ``reset_epoch``) lands *between* requests, never
        in the middle of one — preserving the bit-identical-to-serial
        determinism contract.
        """
        self.pin()
        try:
            yield self
        finally:
            self.unpin()

    # -- probability space -------------------------------------------------

    def add_probabilities(self, dnf: DNF, probabilities: Mapping[int, float]) -> None:
        """Record the marginals ``dnf`` needs, guarding the shared space."""
        with self._lock:
            self._record(dnf.variables(), probabilities)

    def _record(self, variables: Iterable[int], probabilities: Mapping[int, float]) -> None:
        """The space guard: record each marginal, raise on a missing one or a conflict."""
        recorded = self.probabilities
        for variable in variables:
            value = probabilities.get(variable)
            if value is None:
                raise ProbabilityError(f"no probability for variable {variable}")
            existing = recorded.get(variable)
            if existing is None:
                recorded[variable] = value
            elif existing != value:
                raise ProbabilityError(
                    f"SharedLineageStore is bound to one probability space: "
                    f"variable {variable} was interned with probability "
                    f"{existing}, now given {value}"
                )

    # -- hash-consed construction ------------------------------------------

    def _new_node(self, kind: int, lower: float = 0.0, upper: float = 1.0) -> int:
        self.node_count += 1
        return self.table.new_node(kind, lower, upper)

    def _constant(self, value: float) -> int:
        return self._new_node(KIND_CLOSED, value, value)

    def _product(self, variables: Iterable[int]) -> int:
        """A new closed row holding the product of the marginals; members are
        recorded in fold order so a delta re-seed replays the same floats."""
        members = tuple(variables)
        weight = 1.0
        for variable in members:
            weight *= self.probabilities[variable]
        nid = self._new_node(KIND_CLOSED, weight, weight)
        self._const_vars[nid] = members
        if self._var_index is not None:
            self._register_dependents(nid, members)
        return nid

    def build(self, dnf: DNF) -> int:
        """The interned nid for a subsumption-free ``dnf`` (built on a miss).

        The decomposition rules of a per-tuple d-tree (the tests'
        ``oracles.dtree.DTree._build``), rule for rule: constants, single clause,
        independent-and factoring of the common variables, independent-or
        splitting into connected components, open leaf otherwise — except
        that every non-constant result is interned by its clause set, so a
        subformula reached from several tuples (or several cofactor paths of
        one tuple) is compiled and refined exactly once.

        ⊕ children, and with them nids, are created in
        :func:`~repro.prob.formulas._component_groups` order: a single-clause
        group closes in place, a multi-clause group is rebuilt as
        ``DNF(group)`` (keeping the clause order it was filled in) and is not
        split a second time.
        """
        return self._build(dnf, False)

    def _build(self, dnf: DNF, connected: bool) -> int:
        """:meth:`build`; ``connected`` marks a component that was just split
        off, which goes common factor → leaf.  Only the ``rest`` under a ⊗
        can fall apart again and is split afresh."""
        if dnf.is_true():
            return self._constant(1.0)
        if dnf.is_false():
            return self._constant(0.0)
        nid = self._nodes.get(dnf.clauses)
        if nid is not None:
            return nid
        clauses = list(dnf.clauses)
        if len(clauses) == 1:
            nid = self._nodes[dnf.clauses] = self._product(clauses[0])
            return nid
        common = frozenset.intersection(*clauses)
        if common:
            rest = DNF(clause - common for clause in clauses)
            constant = self._product(common)
            children = [constant, self._build(rest, False)]
            return self._inner(KIND_IND_AND, children, dnf.clauses)
        if not connected:
            groups = _component_groups(clauses)
            if len(groups) > 1:
                children = [self._build_group(group) for group in groups]
                return self._inner(KIND_IND_OR, children, dnf.clauses)
        nid = self._leaf(dnf)
        self._nodes[dnf.clauses] = nid
        return nid

    def _build_group(self, group: Set[Clause]) -> int:
        """One component's nid.  A single clause becomes its closed product
        row in place — constant test, intern probe under ``frozenset({clause})``,
        ``tuple(clause)`` fold, as ``build`` of its one-clause DNF would;
        larger groups recurse as connected."""
        if len(group) > 1:
            return self._build(DNF(group), True)
        (clause,) = group
        if not clause:
            return self._constant(1.0)
        key = frozenset((clause,))
        nid = self._nodes.get(key)
        if nid is None:
            nid = self._nodes[key] = self._product(clause)
        return nid

    def _inner(
        self,
        kind: int,
        children: List[int],
        key: FrozenSet[Clause],
        weights: Optional[Sequence[float]] = None,
    ) -> int:
        nid = self._new_node(kind)
        self.table.attach_children(nid, children, weights)
        self.table.refresh_one(nid)
        self._nodes[key] = nid
        return nid

    def _register_dependents(self, nid: int, variables: Iterable[int]) -> None:
        """Index ``nid`` under each variable its stored numbers depend on.

        Builders call this only once the index exists; entries are
        append-only (a leaf's stay behind when it is expanded) and
        :func:`repro.prob.delta.apply_probability_update` filters by kind.
        """
        index = self._var_index
        for variable in variables:
            index.setdefault(variable, []).append(nid)

    def dependents_index(self) -> Dict[int, List[int]]:
        """The variable→rows index, built on the first call — a store's first
        delta — by replaying the three registries that define it."""
        with self._lock:
            if self._var_index is None:
                self._var_index = {}
                for nid, members in self._const_vars.items():
                    self._register_dependents(nid, members)
                for nid, branch in self._branch_var.items():
                    self._register_dependents(nid, (branch,))
                for nid, dnf in self._leaf_dnf.items():
                    self._register_dependents(nid, dnf.variables())
            return self._var_index

    def _leaf(self, dnf: DNF) -> int:
        """An open leaf with the construction bounds of ``dtree._Leaf``."""
        lower, upper = leaf_bounds(dnf, self.probabilities)
        nid = self._new_node(KIND_LEAF, lower, upper)
        self._leaf_dnf[nid] = dnf
        if self._var_index is not None:
            self._register_dependents(nid, dnf.variables())
        return nid

    def build_root(self, dnf: DNF) -> int:
        """The interned root nid for a raw lineage DNF (minimised first)."""
        with self._lock:
            return self.build(dnf.minimised())

    # -- shared refinement --------------------------------------------------

    def _commit_expansion(self, leaf: int) -> None:
        """One Shannon cobranch of open leaf ``leaf``, deferring propagation.

        The branch variable and the two cofactor DNFs are a pure function of
        the leaf's DNF; the children are built positive first, and nids are
        assigned in creation order — the scheduler's deterministic tiebreak.
        Bound propagation is *not* performed here; the caller flushes its
        expansions in one :meth:`~repro.prob.nodetable.NodeTable.propagate_from`
        or batched :meth:`~repro.prob.nodetable.NodeTable.propagate_from_many`
        pass (propagation is idempotent bottom-up recomputation, so batching
        lands on the same columns as per-expansion passes).
        """
        table = self.table
        if table.kind[leaf] != KIND_LEAF:
            raise ProbabilityError("expansion committed on a non-leaf shared node")
        dnf = self._leaf_dnf.pop(leaf)
        branch = branch_variable(dnf)
        positive, negative = _cofactor_true(dnf, branch), dnf.condition(branch, False)
        p = self.probabilities[branch]
        children = [self.build(positive), self.build(negative)]
        table.kind[leaf] = KIND_DET_OR
        table.attach_children(leaf, children, [p, 1.0 - p])
        self._branch_var[leaf] = branch
        if self._var_index is not None:
            self._register_dependents(leaf, (branch,))
        self.steps += 1

    def expand_leaf(self, leaf: int) -> None:
        """One Shannon cobranch: mutate leaf ``nid`` into a ⊙ row, propagate bounds.

        The branch variable is the most frequent one (smallest id on ties) —
        :func:`repro.prob.dtree.branch_variable` — so the compiled shape,
        and with it the exact probability, of a clause set is the same as a
        per-tuple d-tree's.  The in-place mutation is what makes
        the refinement *shared*: every parent, under every tuple, sees the
        tightened bounds via the per-level propagation pass.
        """
        with self._lock:
            if self.table.kind[leaf] != KIND_LEAF:
                raise ProbabilityError("expand_leaf() called on a non-leaf shared node")
            self._commit_expansion(leaf)
            self.table.propagate_from(leaf)
            self._enforce_node_budget()

    def _enforce_node_budget(self) -> None:
        """Reset the intern table once expansions grew it past ``max_nodes``.

        Keeps the documented bound even for one giant compilation: the
        intern table is a pure accelerator, so dropping it mid-refinement
        costs only future sharing — live nids stay valid in the columnar
        table.  (Deferred while pinned.)
        """
        if self.max_nodes is not None and self.node_count > self.max_nodes:
            self.reset_nodes()

    def close(self, root: int, max_steps: Optional[int] = None) -> int:
        """Close ``root`` exactly by one post-order sweep; expansions performed.

        An exact closure's result does not depend on the order its leaves
        are expanded in, so nothing is ranked.  The sweep walks the sub-DAG
        below ``root`` depth-first, through every row that is not closed —
        the rows :meth:`~repro.prob.nodetable.NodeTable.open_leaf_influences`
        walks, zero-gap inner rows and zero-weight ⊙ edges included.  It
        expands each open leaf with a positive gap exactly as
        :meth:`expand_leaf` does, sweeps the new children next, and refreshes
        each inner row once, after its children.  The ranked loop of
        ``expand_once`` expands the same leaves, in another order, and
        creates the same rows under other nids.  A final
        :meth:`~repro.prob.nodetable.NodeTable.repair_outside` pass brings
        the rows above the sub-DAG (other roots sharing its nodes) up to
        date.

        ``max_steps`` caps the expansions; past it the sweep still refreshes
        the rest of the sub-DAG, so a cut-short closure leaves sound
        brackets everywhere.  The node budget of :meth:`expand_leaf` is
        enforced after every expansion (a reset is deferred while pinned).
        """
        with self._lock:
            table = self.table
            kind = table.kind
            lower = table.lower
            upper = table.upper
            child_start = table.child_start
            child_count = table.child_count
            edge_child = table.edge_child
            performed = 0
            swept: Set[int] = set()
            changed: Set[int] = set()
            # A node is pushed once to be visited and once more, as ``~node``,
            # to be refreshed after every child it pushed has been.
            stack = [root]
            while stack:
                node = stack.pop()
                if node < 0:
                    if table.refresh_one(~node):
                        changed.add(~node)
                    continue
                if node in swept:
                    continue
                swept.add(node)
                node_kind = kind[node]
                if node_kind == KIND_CLOSED:
                    continue
                if node_kind == KIND_LEAF:
                    if upper[node] <= lower[node] or (
                        max_steps is not None and performed >= max_steps
                    ):
                        continue
                    self._commit_expansion(node)
                    performed += 1
                    self._enforce_node_budget()
                stack.append(~node)
                begin = child_start[node]
                for slot in range(child_count[node] - 1, -1, -1):
                    child = edge_child[begin + slot]
                    if child not in swept and kind[child] != KIND_CLOSED:
                        stack.append(child)
            if changed:
                table.repair_outside(changed, swept)
            return performed

    def plan_round(
        self, views: Sequence["SharedDTree"], width: int
    ) -> List[Tuple[int, List[Tuple["SharedDTree", float]]]]:
        """Plan one refinement round: up to ``width`` leaves, most valuable first.

        Each gating view contributes its current most influential open leaf (influence ×
        bound gap, measured against *that view's* root); contributions to
        the same shared nid add up — the "bound-width mass summed over the
        tuples it gates".  The plan is the top ``width`` distinct leaves by
        summed score, ties towards the oldest nid (creation order), listed
        in rank order — which is also the commit order.  A pure function of
        the table state and the views' frontiers: the round width fixes the
        refinement schedule, so every decided set, bound, step count and nid
        depends on it.

        Each entry is ``(leaf nid, [(view, path weight), ...])``; the leaves
        are distinct by construction (every view contributes at most one
        entry and equal leaves merge), so the planned expansions touch
        disjoint rows.

        Must be called under the store lock (every public caller is).
        """
        contributions: Dict[int, List[Tuple["SharedDTree", float]]] = {}
        scores: Dict[int, float] = {}
        # Candidates with identical lineage share one view object; process
        # it once or its influence would double-count (and its heap would
        # absorb the expansion twice).
        seen_views: set = set()
        for view in views:
            if id(view) in seen_views:
                continue
            seen_views.add(id(view))
            entry = view._peek()
            if entry is None:
                continue
            influence, weight, leaf = entry
            scores[leaf] = scores.get(leaf, 0.0) + influence
            contributions.setdefault(leaf, []).append((view, weight))
        ranked = sorted(scores, key=lambda nid: (-scores[nid], nid))
        return [(leaf, contributions[leaf]) for leaf in ranked[:width]]

    def refine_round(
        self,
        views: Sequence["SharedDTree"],
        width: int,
        deadline: Optional["object"] = None,
    ) -> int:
        """One refinement round over the gating ``views``.

        Three phases under the store lock, metered as one logical step per
        committed expansion no matter how many tuples each expansion serves:

        1. **plan**: :meth:`plan_round` fixes up to ``width`` distinct
           most-valuable leaves, in commit order;
        2. **commit** (in plan order): each expansion mutates its leaf row
           in place via :meth:`_commit_expansion`, so node creation order —
           and with it every nid — follows the plan;
        3. **flush + absorb**: one batched
           :meth:`~repro.prob.nodetable.NodeTable.propagate_from_many` pass
           repairs the joint ancestor closure (the bound updates buffered by
           the deferred commits), then every contributing view absorbs its
           expansion in plan order.

        Returns the expansions performed (0 when no gating view has an open
        frontier left).  ``refine_round(views, 1)`` expands the single most
        valuable node.

        ``deadline`` (a :class:`repro.deadline.Deadline`) is consulted once,
        at entry — *before* the round is planned, so an expired deadline
        returns 0 with the table untouched and every bound exactly where the
        previous round left it (sound: every completed round leaves sound
        bounds).  A round is never interrupted mid-flight: that is the
        invariant that keeps step-metered results bit-identical while only
        the stopping point tracks the clock.

        The ``store.propagate`` fault seam also fires here at entry, before
        any mutation, so an injected fault leaves the store consistent: the
        caller sees a structured error and a clean retry (or the next
        request) resumes from sound bounds.
        """
        if deadline is not None and deadline.expired():
            return 0
        fault_point("store.propagate")
        with self._lock:
            plan = self.plan_round(views, width)
            if not plan:
                return 0
            leaves = [leaf for leaf, _ in plan]
            for leaf in leaves:
                self._commit_expansion(leaf)
            self.table.propagate_from_many(leaves)
            for leaf, contributors in plan:
                for view, weight in contributors:
                    view._absorb_expansion(leaf, weight)
            self._enforce_node_budget()
            return len(plan)

    # -- delta updates (streaming) ------------------------------------------

    def update_probability(self, variable: int, probability: float) -> DeltaReport:
        """Move one marginal and delta-propagate: re-seed every row carrying
        ``variable`` (closed products, open-leaf bounds, ⊙ edge weights) and
        repair their joint ancestor closure in one multi-source per-level
        pass (:func:`repro.prob.delta.apply_probability_update`).  After the
        call every closed row holds the bit-identical value a from-scratch
        compilation under the new space would hold.  The returned
        :class:`~repro.prob.delta.DeltaReport` lists the touched nids —
        views whose root is outside it are provably unaffected."""
        with self._lock:
            return apply_probability_update(self, variable, probability)

    def retire_view(self, view: "SharedDTree") -> int:
        """Retire a deleted tuple's view: count its reachable rows as
        potential garbage and reset the intern generation once the retired
        total passes ``max_nodes`` (:func:`repro.prob.delta.retire_view`)."""
        with self._lock:
            return _retire_view(self, view)

    def reset_nodes(self) -> None:
        """Drop the intern table and the clause interner (pure accelerators —
        live views keep their nids and stay fully functional; new builds and
        extractions start fresh).  Resetting both is what keeps the intern
        structures bounded by the node budget: the interner grows with every
        distinct clause ever extracted, so it must not outlive the nodes
        built from it.  The columnar rows themselves are reclaimed when the
        owning cache's ``clear()`` swaps in a fresh store.

        While any decision is pinned (:meth:`pinned`) the reset is deferred
        to the last unpin: advancing ``reset_epoch`` mid-decision would let
        the owning cache evict views a request is still refining.
        """
        with self._lock:
            if self._pins > 0:
                self._reset_pending = True
                return
            self._nodes = {}
            self.node_count = 0
            self.retired_nodes = 0
            self.reset_epoch += 1
            self.interner = ClauseInterner()

    # -- store shipping -----------------------------------------------------

    def export_segment(self) -> dict:
        """The store's full state as a picklable segment.

        Ships the columnar table as-is (flat arrays pickle cheaply), plus
        the open-leaf DNFs and the intern map in canonical
        clause form (``frozenset`` iteration order is salted per process, so
        raw frozensets must not cross the process boundary).
        """
        return {
            "table": self.table,
            "leaves": [
                (nid, canonical_clauses(dnf)) for nid, dnf in self._leaf_dnf.items()
            ],
            "interned": [
                (tuple(sorted(tuple(sorted(clause)) for clause in key)), nid)
                for key, nid in self._nodes.items()
            ],
            "probabilities": dict(self.probabilities),
            "steps": self.steps,
            "node_count": self.node_count,
            "max_nodes": self.max_nodes,
            # Delta-update registries: product members in build fold order
            # (ints, so the tuples ship safely) and ⊙ branch variables.  The
            # variable→rows index is not shipped: the receiver replays it
            # from these at its first delta, like any other store.
            "const_vars": [(nid, members) for nid, members in self._const_vars.items()],
            "branch_vars": list(self._branch_var.items()),
            "retired_nodes": self.retired_nodes,
        }

    @classmethod
    def from_segment(cls, segment: dict) -> "SharedLineageStore":
        """Rebuild a store around a shipped segment (the inverse of
        :meth:`export_segment`): same table, same nids, same intern map —
        refinement continues exactly where the exporting process stood."""
        store = cls(max_nodes=segment["max_nodes"])
        store.table = segment["table"]
        store.probabilities = dict(segment["probabilities"])
        store.steps = segment["steps"]
        store.node_count = segment["node_count"]
        store._nodes = {
            frozenset(frozenset(clause) for clause in clauses): nid
            for clauses, nid in segment["interned"]
        }
        store._leaf_dnf = {
            nid: dnf_from_canonical(clauses) for nid, clauses in segment["leaves"]
        }
        store._const_vars = {
            nid: tuple(members) for nid, members in segment.get("const_vars", [])
        }
        store._branch_var = dict(segment.get("branch_vars", []))
        store.retired_nodes = segment.get("retired_nodes", 0)
        # A ``var_index`` key (segments written before the index became
        # lazy) is ignored: the replay at the first delta is equivalent.
        return store


class SharedDTree:
    """A per-tuple view over a :class:`SharedLineageStore`.

    The anytime tree surface the engine and schedulers touch:
    ``lower``/``upper``, ``bounds()``, ``gap``, ``is_exact``, ``steps``,
    ``refine()`` and ``result()``.  The view owns
    nothing but a frontier: a lazy max-heap of (influence, leaf nid) entries
    where influence is the midpoint-linearised derivative of *this view's
    root* with respect to the leaf, summed over all DAG paths.  Refinement performed through any other view of the same
    store is observed for free — entries whose leaf was expanded elsewhere
    are skipped on pop, and the geometric frontier rebuild
    (:data:`repro.prob.dtree._REFRESH_BASE`) re-measures influence against
    the shared table state.
    """

    __slots__ = ("store", "root", "steps", "_heap", "_weights", "_counter", "_next_rebuild")

    def __init__(self, store: SharedLineageStore, dnf: DNF):
        # Validate upfront: a missing marginal must be a structured
        # ProbabilityError, not a KeyError from deep in build().
        for variable in dnf.variables():
            if variable not in store.probabilities:
                raise ProbabilityError(f"no probability for variable {variable}")
        self.store = store
        self.root = store.build_root(dnf)
        self._init_frontier()

    @classmethod
    def from_root(cls, store: SharedLineageStore, root: int) -> "SharedDTree":
        """A view over an already-built root nid (no compilation performed).

        The constructor for restored store segments: the exporter compiled
        the roots, the segment carried the table, and the frontier is
        measured at the view's first peek, from the column state then —
        exactly what a fresh view over the same store computes.
        """
        view = object.__new__(cls)
        view.store = store
        view.root = root
        view._init_frontier()
        return view

    def _init_frontier(self) -> None:
        self.steps = 0
        self._heap: List[Tuple[float, int, float, int]] = []
        self._weights: Dict[int, float] = {}
        self._counter = 0
        self.resync()

    # -- frontier maintenance ----------------------------------------------

    def resync(self) -> None:
        """Mark the frontier stale: the next :meth:`_peek` re-measures it.

        Standing queries call this after a delta touched this view's root: a
        probability update moves leaf gaps and path influences without
        expanding anything, so heap priorities recorded before the delta no
        longer rank the open leaves correctly.  The mark is "rebuild due
        now" on the geometric schedule: free until the view next enters a
        contention set (marked thirty times and never peeked, it is never
        measured), and then one full rebuild against the freshest table —
        the frontier stays a pure function of the table state at peek time,
        so post-delta step counts do not depend on the delta history.
        """
        self._next_rebuild = 0
        self.store.frontier_marks += 1

    def _rebuild_frontier(self) -> None:
        """Recompute every open leaf's influence on this root from scratch."""
        self.store.frontier_rebuilds += 1
        self._heap = []
        self._weights = {}
        self._counter = 0
        table = self.store.table
        if table.upper[self.root] == table.lower[self.root]:
            return
        for leaf, weight in table.open_leaf_influences(self.root, 1.0):
            self._push(leaf, weight)

    def _push(self, leaf: int, weight: float) -> None:
        """Add ``weight`` to the leaf's total influence and (re-)enqueue it.

        The entry records the new total; any earlier entry for the same
        leaf now mismatches :attr:`_weights` and is skipped as stale, so
        the frontier ranks each leaf by its summed influence instead of
        splitting it across duplicate entries.
        """
        total = self._weights.get(leaf, 0.0) + weight
        self._weights[leaf] = total
        self._counter += 1
        table = self.store.table
        priority = -(total * (table.upper[leaf] - table.lower[leaf]))
        heappush(self._heap, (priority, self._counter, total, leaf))

    def _entry_stale(self, weight: float, leaf: int) -> bool:
        table = self.store.table
        return (
            table.kind[leaf] != KIND_LEAF
            or table.upper[leaf] == table.lower[leaf]
            or self._weights.get(leaf) != weight
        )

    def _absorb_expansion(self, expanded: int, weight: float) -> None:
        """After ``expanded`` (this view's frontier top) became a ⊙ row,
        enqueue the open leaves now below it, at path weights relative to
        this root (deduplicated across diamond paths)."""
        if self._heap and self._heap[0][3] == expanded:
            heappop(self._heap)
        self._weights.pop(expanded, None)
        self.steps += 1
        for leaf, acc in self.store.table.open_leaf_influences(expanded, weight):
            self._push(leaf, acc)

    def _peek(self) -> Optional[Tuple[float, float, int]]:
        """The view's current best (influence, weight, leaf nid), or None.

        The single reader of the heap.  Pops entries whose leaf was
        expanded (possibly by another view) or closed in the meantime;
        rebuilds the frontier once if the heap runs dry while the root is
        still open.  The geometric re-measurement is scheduled here —
        against the *store's* global step count, since refinement performed
        through any view staleness-drifts every other view's influence
        weights — so both ``expand_once`` and the shared scheduler's
        :meth:`SharedLineageStore.refine_round` (which bypasses
        ``expand_once``) rank on freshly measured frontiers; a stale mark
        (:meth:`resync`, a view never peeked) is that schedule, due at 0.
        """
        if self.store.steps >= self._next_rebuild:
            self._rebuild_frontier()
            self._next_rebuild = int(self.store.steps * _REFRESH_FACTOR) + _REFRESH_BASE
        for attempt in range(2):
            while self._heap:
                priority, _, weight, leaf = self._heap[0]
                if self._entry_stale(weight, leaf):
                    heappop(self._heap)
                    continue
                return (-priority, weight, leaf)
            if attempt == 0:
                if self.upper == self.lower:
                    return None
                self._rebuild_frontier()
        return None

    # -- anytime tree surface ------------------------------------------------

    @property
    def lower(self) -> float:
        return self.store.table.lower[self.root]

    @property
    def upper(self) -> float:
        return self.store.table.upper[self.root]

    def bounds(self) -> Tuple[float, float]:
        table = self.store.table
        return table.lower[self.root], table.upper[self.root]

    @property
    def is_exact(self) -> bool:
        table = self.store.table
        return (
            table.kind[self.root] == KIND_CLOSED
            or table.upper[self.root] == table.lower[self.root]
        )

    @property
    def gap(self) -> float:
        table = self.store.table
        return table.upper[self.root] - table.lower[self.root]

    def expand_once(self) -> bool:
        """Expand this view's most influential open leaf; False when closed.

        The geometric influence re-measurement happens inside :meth:`_peek`.
        """
        with self.store.lock:
            entry = self._peek()
            if entry is None:
                return False
            _, weight, leaf = entry
            self.store.expand_leaf(leaf)
            self._absorb_expansion(leaf, weight)
            return True

    def refine(
        self,
        steps: Optional[int] = None,
        *,
        epsilon: float = 0.0,
        relative: bool = False,
    ) -> int:
        """Up to ``steps`` expansions through this view; count performed.

        Stops early as soon as the view closes or its bracket meets the
        ``epsilon`` budget (``steps=None`` removes the per-call cap), and may
        be called again to keep tightening; bounds may already be tighter
        than any local expansion explains, because other views refined
        shared nodes in between.

        ``epsilon == 0`` asks for closure, which :meth:`SharedLineageStore.close`
        reaches by one unranked sweep (``steps`` caps its expansions); only
        ``epsilon > 0`` walks the influence-ranked frontier, where the order
        decides where the loop stops.
        """
        if epsilon == 0.0:
            if self.upper <= self.lower or (steps is not None and steps <= 0):
                return 0
            performed = self.store.close(self.root, steps)
            self.steps += performed
            # Every entry now names an expanded leaf or misses the new ones;
            # an empty heap is re-measured at the next peek of an open root.
            self._heap = []
            self._weights = {}
            return performed
        performed = 0
        while steps is None or performed < steps:
            if self.is_exact or _budget_met(self.lower, self.upper, epsilon, relative):
                break
            if not self.expand_once():
                break
            performed += 1
        return performed

    def result(self) -> ApproxResult:
        lower, upper = self.bounds()
        return ApproxResult(
            probability=0.5 * (lower + upper),
            lower=lower,
            upper=upper,
            steps=self.steps,
            exact=self.is_exact or upper == lower,
        )


class SpaceProof(NamedTuple):
    """A marginal mapping checked against one store at one ``space_version``
    (:meth:`SharedDTreeCache.prove`); its holder must not mutate the mapping."""

    probabilities: Mapping[int, float]
    store: SharedLineageStore
    version: int

    def holds(self, probabilities: Mapping[int, float], store: SharedLineageStore) -> bool:
        same = self.probabilities is probabilities and self.store is store
        return same and self.version == store.space_version


class SharedDTreeCache:
    """Engine-side lineage → :class:`SharedDTree` cache over one shared store.

    ``get(dnf, probabilities)`` / ``hits`` / ``misses`` / ``evictions`` /
    ``clear()`` (what :func:`repro.prob.lineage.dtrees_from_dnfs` and the
    engine's cache-statistics consumers use); entries are views over one
    hash-consed columnar DAG, so refinement performed for one tuple
    tightens every other tuple sharing subformulas — across calls, too.

    Memory is bounded by **node count**, not entry count: when the store's
    intern table exceeds ``max_nodes`` interned nodes it is reset and the
    view table cleared.  Eviction never invalidates a live view — views
    hold nids into the append-only table and keep refining correctly; only
    the *sharing* with future builds is lost (the intern table is a pure
    accelerator).  :data:`MAX_ENTRIES` additionally bounds the view table, LRU.
    ``evictions`` counts views dropped for either reason (cheap int,
    surfaced by the engine and benchmarks).
    """

    def __init__(self, max_nodes: Optional[int] = DEFAULT_MAX_NODES):
        if max_nodes is not None and max_nodes < 1:
            raise ProbabilityError(f"max_nodes must be positive, got {max_nodes}")
        self.max_nodes = max_nodes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.store = SharedLineageStore(max_nodes=max_nodes)
        self._views: Dict[FrozenSet[Clause], SharedDTree] = {}
        self._epoch = self.store.reset_epoch
        self._proof: Optional[SpaceProof] = None

    def __len__(self) -> int:
        return len(self._views)

    @property
    def interner(self) -> ClauseInterner:
        return self.store.interner

    def prove(self, probabilities: Mapping[int, float], proof=None) -> SpaceProof:
        """Guard a whole marginal mapping in one pass over its variables (or
        none, while ``proof`` holds): until another mapping is proven, ``get``
        with this mapping object skips its per-tuple guard."""
        with self.store.lock:
            if proof is None or not proof.holds(probabilities, self.store):
                self.store._record(probabilities, probabilities)
                proof = SpaceProof(probabilities, self.store, self.store.space_version)
            self._proof = proof
            return proof

    def get(self, dnf: DNF, probabilities: Mapping[int, float]) -> SharedDTree:
        """The (possibly already refined) view for ``dnf``, building on a miss.

        Runs under the store lock: lookup, budget-triggered epoch reset, and
        LRU eviction are one atomic step, so a concurrent reader never
        observes the view table mid-eviction and two threads can never build
        the same lineage twice (the query service's refinement lane and its
        stats readers share this cache).
        """
        with self.store.lock:
            proof = self._proof
            if proof is None or not proof.holds(probabilities, self.store):
                self.store.add_probabilities(dnf, probabilities)
            # Enforce the node budget on *every* access, not just misses:
            # refinement between calls grows the store, and the store's own
            # in-refinement check only fires while expansions are running.
            if self.max_nodes is not None and self.store.node_count > self.max_nodes:
                self.store.reset_nodes()
            # Drop views from earlier store epochs (in-refinement resets
            # happen without the cache on the stack): a cached view pins its
            # whole epoch's intern structures, so retaining stale epochs
            # would bound memory by views x budget instead of the documented
            # budget.
            if self._epoch != self.store.reset_epoch:
                self.evictions += len(self._views)
                self._views.clear()
                self._epoch = self.store.reset_epoch
            key = dnf.clauses
            view = self._views.get(key)
            if view is not None:
                self.hits += 1
                self._views[key] = self._views.pop(key)  # mark most recently used
                return view
            self.misses += 1
            view = SharedDTree(self.store, dnf)
            self._views[key] = view
            if len(self._views) > MAX_ENTRIES:
                self._views.pop(next(iter(self._views)))
                self.evictions += 1
            return view

    def clear(self) -> None:
        with self.store.lock:
            self.store = SharedLineageStore(max_nodes=self.max_nodes)
            self._views.clear()
            self._epoch = self.store.reset_epoch
            self._proof = None
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    # -- crash-recoverable snapshots ----------------------------------------

    def export_state(self) -> dict:
        """The cache's full warm state as a picklable dict.

        The snapshot payload of the query service: the store segment
        (:meth:`SharedLineageStore.export_segment`) plus every cached view as
        ``(canonical clauses, root nid)`` — frozensets never cross the process
        boundary, their iteration order is salted per process.  Taken under the store lock,
        so the segment and the view table are one consistent cut.
        """
        with self.store.lock:
            return {
                "segment": self.store.export_segment(),
                "views": [
                    (
                        tuple(sorted(tuple(sorted(clause)) for clause in key)),
                        view.root,
                    )
                    for key, view in self._views.items()
                ],
                "counters": (self.hits, self.misses, self.evictions),
                "max_nodes": self.max_nodes,
            }

    @classmethod
    def from_state(cls, state: dict) -> "SharedDTreeCache":
        """Rebuild a warm cache from :meth:`export_state`.

        The restored store continues exactly where the exporting process
        stood (same table, same nids, same intern map), and every view is
        rebuilt over its original root via :meth:`SharedDTree.from_root` —
        so the first repeat of a previously decided query is a cache hit on
        already-closed bounds: the ≤1-step warm re-decide the service's
        crash recovery promises.  Keys of older builds' states that no
        longer configure anything (the numeric-backend flag, the view-table
        bound ``max_entries``) are ignored.
        """
        cache = cls(max_nodes=state["max_nodes"])
        cache.store = SharedLineageStore.from_segment(state["segment"])
        for clauses, root in state["views"]:
            key = dnf_from_canonical(clauses).clauses
            cache._views[key] = SharedDTree.from_root(cache.store, root)
        cache.hits, cache.misses, cache.evictions = state["counters"]
        cache._epoch = cache.store.reset_epoch
        return cache
