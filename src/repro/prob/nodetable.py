"""Columnar node table: flat-array node storage with per-level bound propagation.

The shared-lineage DAG (:mod:`repro.prob.sharedag`) stores its nodes here,
the way :mod:`repro.algebra.columnar` stores relations: one struct-of-arrays
table instead of an object graph.  A node is an integer id (``nid``) indexing
parallel ``array``-module columns:

==============  ====  =====================================================
column          type  meaning
==============  ====  =====================================================
``kind``        i8    0 closed · 1 leaf · 2 ⊗ ind_and · 3 ⊕ ind_or · 4 ⊙ det_or
``lower``       f64   current lower probability bound
``upper``       f64   current upper probability bound
``level``       i64   topological level: ``level(parent) > level(child)``
``child_start`` i64   first out-edge index (-1 when childless)
``child_count`` i64   number of children (contiguous edge range)
``in_head``     i64   head of the in-edge (parent backlink) linked list
==============  ====  =====================================================

and edges live in four parallel edge columns (``edge_child``,
``edge_parent``, ``edge_weight`` — the ⊙ cobranch weights — and
``edge_next`` linking each child's in-edges).  Child slot ``t`` of node
``n`` is edge ``child_start[n] + t``: the out-edges of a node are contiguous,
so a node's children are addressed with pure arithmetic.

Bound propagation is **per level, not per node**: refining a node refreshes
its ancestor closure grouped by ``level`` in ascending order — every node's
children live on strictly smaller levels, so one pass per level replaces the
per-node topological bookkeeping of the old object graph.  Every refresh is
the scalar :meth:`NodeTable.refresh_one`, which replicates the float64
arithmetic of the per-tuple d-tree oracle's ``combine_bounds``
(``tests/oracles/dtree.py``) operation for operation — same accumulation
order, same ``min`` placement — so a table's bounds are bit-identical to the
per-tuple d-tree's (``tests/test_node_table.py`` pins this).

Because the table is append-only and node mutation is in place (a leaf
becomes a ⊙ node under the same nid), nids remain valid for the lifetime of
the store — which is what lets a snapshot ship whole store segments (these
columns, pickled) and restore them with every nid intact.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "KIND_CLOSED",
    "KIND_LEAF",
    "KIND_IND_AND",
    "KIND_IND_OR",
    "KIND_DET_OR",
    "NodeTable",
]

KIND_CLOSED = 0
KIND_LEAF = 1
KIND_IND_AND = 2
KIND_IND_OR = 3
KIND_DET_OR = 4


class NodeTable:
    """Append-only struct-of-arrays storage for decomposition DAG nodes."""

    __slots__ = (
        "kind",
        "lower",
        "upper",
        "level",
        "child_start",
        "child_count",
        "in_head",
        "edge_child",
        "edge_parent",
        "edge_weight",
        "edge_next",
        "mutations",
    )

    def __init__(self):
        self.kind = array("b")
        self.lower = array("d")
        self.upper = array("d")
        self.level = array("q")
        self.child_start = array("q")
        self.child_count = array("q")
        self.in_head = array("q")
        self.edge_child = array("q")
        self.edge_parent = array("q")
        self.edge_weight = array("d")
        self.edge_next = array("q")
        #: Structural mutation counter: bumped on every node append and every
        #: child attachment (including the in-place leaf → ⊙ expansion).  A
        #: concurrent reader — the query service's stats endpoint, a test
        #: fingerprinting store state — can compare counter values taken
        #: before and after a read to detect that a refinement slipped in
        #: between, without holding the store lock across the whole read.
        self.mutations = 0

    # arrays pickle natively; spelling the state out keeps the wire format
    # of store-segment snapshots explicit.
    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        # Segments shipped by older builds may lack ``mutations`` or carry a
        # retired slot (the numeric-backend flag): only current slots load.
        self.mutations = 0
        for name in self.__slots__:
            if name in state:
                setattr(self, name, state[name])

    def __len__(self) -> int:
        return len(self.kind)

    # -- construction -------------------------------------------------------

    def new_node(self, kind: int, lower: float = 0.0, upper: float = 1.0) -> int:
        """Append a childless node, returning its nid (creation order)."""
        nid = len(self.kind)
        self.kind.append(kind)
        self.lower.append(lower)
        self.upper.append(upper)
        self.level.append(0)
        self.child_start.append(-1)
        self.child_count.append(0)
        self.in_head.append(-1)
        self.mutations += 1
        return nid

    def attach_children(
        self, nid: int, children: Sequence[int], weights: Optional[Sequence[float]] = None
    ) -> None:
        """Give a (currently childless) node its children, in slot order.

        Appends one contiguous out-edge range, threads each edge onto its
        child's in-edge list, and lifts topological levels so that
        ``level(parent) > level(child)`` holds again everywhere — the
        invariant the per-level propagation passes rely on.  Used both at
        inner-node construction and when a Shannon expansion mutates a leaf
        into a ⊙ node in place.
        """
        start = len(self.edge_child)
        self.child_start[nid] = start
        self.child_count[nid] = len(children)
        for slot, child in enumerate(children):
            edge = start + slot
            self.edge_child.append(child)
            self.edge_parent.append(nid)
            self.edge_weight.append(1.0 if weights is None else weights[slot])
            self.edge_next.append(self.in_head[child])
            self.in_head[child] = edge
        self.mutations += 1
        self._lift_levels(nid)

    def _lift_levels(self, nid: int) -> None:
        """Restore ``level(parent) > level(child)`` upward from ``nid``."""
        stack = [nid]
        level = self.level
        while stack:
            node = stack.pop()
            start = self.child_start[node]
            count = self.child_count[node]
            if count == 0:
                continue
            highest = 0
            for slot in range(count):
                child_level = level[self.edge_child[start + slot]]
                if child_level > highest:
                    highest = child_level
            need = highest + 1
            if need > level[node]:
                level[node] = need
                edge = self.in_head[node]
                while edge != -1:
                    parent = self.edge_parent[edge]
                    if level[parent] <= need:
                        stack.append(parent)
                    edge = self.edge_next[edge]

    # -- scalar per-node arithmetic ----------------------------------------
    #
    # These replicate combine_bounds / influence_weight of the per-tuple
    # d-tree oracle (tests/oracles/dtree.py) expression for expression
    # (same accumulation order, same min placement) — the bit-identity
    # contract between the per-tuple d-tree and the node table depends on it.

    def child(self, nid: int, slot: int) -> int:
        return self.edge_child[self.child_start[nid] + slot]

    def children_of(self, nid: int) -> List[int]:
        start = self.child_start[nid]
        return [self.edge_child[start + slot] for slot in range(self.child_count[nid])]

    def gap(self, nid: int) -> float:
        return self.upper[nid] - self.lower[nid]

    def refresh_one(self, nid: int) -> bool:
        """Recompute one inner node's bounds from its children; True if moved."""
        kind = self.kind[nid]
        start = self.child_start[nid]
        count = self.child_count[nid]
        lower_col = self.lower
        upper_col = self.upper
        edge_child = self.edge_child
        if kind == KIND_IND_AND:
            lower = upper = 1.0
            for slot in range(count):
                node = edge_child[start + slot]
                lower *= lower_col[node]
                upper *= upper_col[node]
        elif kind == KIND_IND_OR:
            lower = upper = 1.0
            for slot in range(count):
                node = edge_child[start + slot]
                lower *= 1.0 - lower_col[node]
                upper *= 1.0 - upper_col[node]
            lower, upper = 1.0 - lower, 1.0 - upper
        else:  # deterministic-or
            lower = upper = 0.0
            edge_weight = self.edge_weight
            for slot in range(count):
                edge = start + slot
                node = edge_child[edge]
                weight = edge_weight[edge]
                lower += weight * lower_col[node]
                upper += weight * upper_col[node]
        upper = min(1.0, upper)
        if lower_col[nid] == lower and upper_col[nid] == upper:
            return False
        lower_col[nid] = lower
        upper_col[nid] = upper
        return True

    def influence(self, nid: int, slot: int) -> float:
        """Midpoint-linearised derivative w.r.t. child ``slot`` (as in d-trees)."""
        kind = self.kind[nid]
        start = self.child_start[nid]
        if kind == KIND_DET_OR:
            return self.edge_weight[start + slot]
        factor = 1.0
        for index in range(self.child_count[nid]):
            if index == slot:
                continue
            node = self.edge_child[start + index]
            mid = 0.5 * (self.lower[node] + self.upper[node])
            factor *= mid if kind == KIND_IND_AND else 1.0 - mid
        return factor

    # -- propagation passes -------------------------------------------------

    def ancestors_of(self, start: int) -> set:
        """``start`` plus its ancestor closure over the in-edge backlinks."""
        return self.ancestors_of_many((start,))

    def ancestors_of_many(self, starts: Sequence[int]) -> set:
        """The ``starts`` plus their joint ancestor closure (one walk)."""
        seen = set(starts)
        stack = list(seen)
        edge_parent = self.edge_parent
        edge_next = self.edge_next
        in_head = self.in_head
        while stack:
            node = stack.pop()
            edge = in_head[node]
            while edge != -1:
                parent = edge_parent[edge]
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
                edge = edge_next[edge]
        return seen

    def propagate_from(self, start: int) -> set:
        """Refresh ``start`` and every ancestor, one level pass at a time.

        The single-source form of :meth:`propagate_from_many`; returns the
        ancestor closure.
        """
        return self.propagate_from_many((start,))

    def propagate_from_many(self, starts: Sequence[int]) -> set:
        """Refresh the joint ancestor closure of ``starts``, level by level.

        One ascending sweep for all sources together (a probability update
        re-seeds every row carrying the variable, then repairs all their
        ancestors at once), on the scalar ``refresh_one`` walk.  The walk
        keeps the changed-set early exit — a node whose in-closure children
        all kept their bounds is skipped.

        Every start is refreshed unconditionally (its stored value or edge
        weights were just rewritten, so the changed-set test would not see
        the mutation); the returned closure is a pure function of the DAG
        shape, which is what lets callers reason about "touched" nodes.
        """
        sources = set(starts)
        seen = self.ancestors_of_many(sources)
        level = self.level
        order = sorted(seen, key=lambda node: (level[node], node))
        child_start = self.child_start
        child_count = self.child_count
        # Childless sources (re-seeded leaves and closed rows) were rewritten
        # in place by the caller, so they count as changed from the start —
        # refresh_one never sees them and would otherwise leave their
        # parents' early-exit test blind to the mutation.
        changed = {node for node in sources if child_count[node] == 0}
        edge_child = self.edge_child
        for node in order:
            count = child_count[node]
            if count == 0:
                continue
            if node not in sources:
                begin = child_start[node]
                if not any(edge_child[begin + slot] in changed for slot in range(count)):
                    continue
            if self.refresh_one(node):
                changed.add(node)
        return seen

    def repair_outside(self, changed: set, inside: set) -> None:
        """Refresh the ancestors of ``changed`` that lie outside ``inside``.

        The closing pass of a sweep that already refreshed every row of
        ``inside`` (a sub-DAG closed under children) bottom-up: only rows
        above it — other roots sharing its nodes — still hold old bounds.
        :meth:`propagate_from_many` cannot repair them, because its
        changed-set early exit starts empty and the swept rows now refresh
        to the values they already hold.  Here ``changed`` (updated in
        place) seeds that test instead: one ascending level pass over the
        outside ancestors, each refreshed only if a child moved.
        """
        outside = set()
        stack = list(changed)
        edge_parent = self.edge_parent
        edge_next = self.edge_next
        in_head = self.in_head
        while stack:
            edge = in_head[stack.pop()]
            while edge != -1:
                parent = edge_parent[edge]
                if parent not in inside and parent not in outside:
                    outside.add(parent)
                    stack.append(parent)
                edge = edge_next[edge]
        level = self.level
        child_start = self.child_start
        child_count = self.child_count
        edge_child = self.edge_child
        for node in sorted(outside, key=lambda node: (level[node], node)):
            begin = child_start[node]
            if any(edge_child[begin + slot] in changed for slot in range(child_count[node])):
                if self.refresh_one(node):
                    changed.add(node)

    def bounds_fingerprint(self) -> bytes:
        """The bound columns as raw IEEE-754 bytes — the bit-identity witness.

        Two tables fingerprint equal iff every node's ``[lower, upper]``
        bracket is *bit*-identical (not merely approximately equal), which is
        the currency of the repo's determinism contracts: the
        round-interleaving tests compare stores refined along different
        paths by this digest rather than by walking rows.
        """
        return self.lower.tobytes() + self.upper.tobytes()

    def refresh_all_bounds(self) -> None:
        """Recompute every inner node bottom-up (one full per-level sweep).

        The whole-table twin of :meth:`propagate_from`: the consistency
        oracle the node-table tests compare incremental propagation against.
        """
        level = self.level
        inner = [node for node in range(len(self.kind)) if self.child_count[node]]
        inner.sort(key=lambda node: (level[node], node))
        for node in inner:
            self.refresh_one(node)

    # -- influence descent --------------------------------------------------

    def open_leaf_influences(self, start: int, start_weight: float) -> List[Tuple[int, float]]:
        """Open leaves under ``start`` with their summed downward influence.

        Walks the reachable sub-DAG in descending level order (parents
        strictly above children), accumulating path derivatives, so a leaf
        shared by several paths gets the *sum* of its path weights in one
        entry.

        A ``KIND_CLOSED`` child holds no leaf, so it is skipped *before* its
        edge's influence — a product over all its siblings — is computed.
        The test is on the kind only: an open row with a degenerate bracket,
        or one under a zero-weight ⊙ edge, is still walked, so the leaves,
        their order and their summed weights are those of a full walk.
        """
        kind_col = self.kind
        child_start = self.child_start
        child_count = self.child_count
        edge_child = self.edge_child
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            begin = child_start[node]
            for slot in range(child_count[node]):
                child = edge_child[begin + slot]
                if child not in seen and kind_col[child] != KIND_CLOSED:
                    seen.add(child)
                    stack.append(child)
        accumulated = {node: 0.0 for node in seen}
        accumulated[start] = start_weight
        level = self.level
        order = sorted(seen, key=lambda node: (-level[node], node))
        found: List[Tuple[int, float]] = []
        for node in order:
            weight = accumulated[node]
            if kind_col[node] == KIND_LEAF:
                if self.upper[node] > self.lower[node]:
                    found.append((node, weight))
                continue
            begin = child_start[node]
            for slot in range(child_count[node]):
                child = edge_child[begin + slot]
                if kind_col[child] != KIND_CLOSED:
                    accumulated[child] += weight * self.influence(node, slot)
        return found
