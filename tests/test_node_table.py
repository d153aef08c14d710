"""The columnar node table: layout, propagation, and snapshot compatibility.

Unit tests pin the storage primitives (append, contiguous edges, in-edge
threading, level lifting, pickling) and the per-node arithmetic against
:func:`repro.prob.dtree.combine_bounds`.  Hypothesis properties assert, on
random lineage families refined along arbitrary interleavings, that

* the topological level invariant ``level(parent) > level(child)`` survives
  every in-place leaf expansion,
* a full :meth:`repro.prob.nodetable.NodeTable.refresh_all_bounds` sweep is
  idempotent on a table propagated incrementally, and
* every view's bounds stay sound (bracketing enumeration truth) along the
  interleaving and its upper bound never rises (the lower bound can drop
  for a step; ``tests/test_sharedag.py`` pins the case).
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prob.dtree import combine_bounds, refine_to_budget
from repro.prob.formulas import DNF, dnf_probability_enumeration
from repro.prob.nodetable import (
    KIND_CLOSED,
    KIND_DET_OR,
    KIND_IND_AND,
    KIND_IND_OR,
    KIND_LEAF,
    NodeTable,
)
from repro.prob.sharedag import SharedDTree, SharedLineageStore

from oracles.dtree import DTree

TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def lineage_family(draw):
    """2–4 DNFs drawing clauses from one shared pool (≤ 10 variables)."""
    nvars = draw(st.integers(4, 10))
    probability = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)
    probabilities = {v: draw(probability) for v in range(nvars)}
    clause = st.sets(st.integers(0, nvars - 1), min_size=1, max_size=3).map(frozenset)
    pool = draw(st.lists(clause, min_size=2, max_size=6, unique=True))
    members = []
    for _ in range(draw(st.integers(2, 4))):
        shared = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True)
        )
        private = draw(st.lists(clause, min_size=0, max_size=3))
        members.append(DNF(shared + private))
    return members, probabilities


@st.composite
def family_with_interleaving(draw):
    """A lineage family plus an arbitrary (view, steps) refinement schedule."""
    members, probabilities = draw(lineage_family())
    schedule = draw(
        st.lists(
            st.tuples(st.integers(0, len(members) - 1), st.integers(1, 3)),
            min_size=0,
            max_size=12,
        )
    )
    return members, probabilities, schedule


def build_and_refine(members, probabilities, schedule):
    """One store + views for the family, refined along the schedule."""
    store = SharedLineageStore()
    for dnf in members:
        store.add_probabilities(dnf, probabilities)
    views = [SharedDTree(store, dnf) for dnf in members]
    for index, steps in schedule:
        views[index].refine(steps)
    return store, views


def column_fingerprint(table):
    """Every column as plain tuples — the bit-level comparison unit."""
    return tuple(
        tuple(getattr(table, name))
        for name in (
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
        )
    )


# ---------------------------------------------------------------------------
# storage primitives
# ---------------------------------------------------------------------------


class TestTablePrimitives:
    def build_small_dag(self):
        """⊗(leaf, ⊕(leaf, leaf)) with hand-set bounds."""
        table = NodeTable()
        a = table.new_node(KIND_LEAF, 0.2, 0.6)
        b = table.new_node(KIND_LEAF, 0.1, 0.3)
        c = table.new_node(KIND_LEAF, 0.4, 0.9)
        disj = table.new_node(KIND_IND_OR)
        table.attach_children(disj, [b, c])
        root = table.new_node(KIND_IND_AND)
        table.attach_children(root, [a, disj])
        return table, a, b, c, disj, root

    def test_append_and_edges_are_contiguous(self):
        table, a, b, c, disj, root = self.build_small_dag()
        assert len(table) == 5
        assert table.children_of(disj) == [b, c]
        assert table.children_of(root) == [a, disj]
        assert table.child(root, 1) == disj
        # Out-edges of one node occupy one contiguous range.
        start = table.child_start[root]
        assert list(table.edge_child[start : start + 2]) == [a, disj]

    def test_levels_satisfy_the_invariant(self):
        table, a, b, c, disj, root = self.build_small_dag()
        assert table.level[disj] > max(table.level[b], table.level[c])
        assert table.level[root] > max(table.level[a], table.level[disj])

    def test_level_lifting_cascades_through_existing_parents(self):
        # Attaching a high-level child to a node that already has parents
        # must lift the whole ancestor chain (the in-place ⊙ expansion case).
        table, a, b, c, disj, root = self.build_small_dag()
        deep = table.new_node(KIND_IND_AND)
        table.attach_children(deep, [root])
        former_leaf = a  # mutate the leaf into an inner node, like expand_leaf
        table.kind[former_leaf] = KIND_DET_OR
        tall = table.new_node(KIND_IND_AND)
        table.attach_children(tall, [b])
        table.level[tall] = 7  # simulate an interned, already-deep child
        table.attach_children(former_leaf, [tall, c], weights=[0.5, 0.5])
        assert table.level[former_leaf] > table.level[tall]
        assert table.level[root] > table.level[former_leaf]
        assert table.level[deep] > table.level[root]

    def test_refresh_one_matches_combine_bounds(self):
        table, a, b, c, disj, root = self.build_small_dag()
        table.refresh_all_bounds()

        class Node:
            def __init__(self, lower, upper):
                self.lower = lower
                self.upper = upper

        children = [Node(0.1, 0.3), Node(0.4, 0.9)]
        expected = combine_bounds("ind_or", children, None)
        assert (table.lower[disj], table.upper[disj]) == expected
        conj = [Node(0.2, 0.6), Node(*expected)]
        assert (table.lower[root], table.upper[root]) == combine_bounds("ind_and", conj, None)

    def test_influence_matches_det_or_weights_and_ind_midpoints(self):
        table, a, b, c, disj, root = self.build_small_dag()
        table.refresh_all_bounds()
        weighted = table.new_node(KIND_DET_OR)
        table.attach_children(weighted, [a, disj], weights=[0.25, 0.75])
        assert table.influence(weighted, 0) == 0.25
        assert table.influence(weighted, 1) == 0.75
        # ⊗ influence on slot 0 is the product of the *other* midpoints.
        mid_disj = 0.5 * (table.lower[disj] + table.upper[disj])
        assert table.influence(root, 0) == mid_disj

    def test_pickle_roundtrip_preserves_every_column(self):
        table, *_ = self.build_small_dag()
        clone = pickle.loads(pickle.dumps(table))
        assert column_fingerprint(clone) == column_fingerprint(table)

    def test_state_with_the_retired_backend_slot_restores(self):
        # Segments written before propagation had one scalar path pickled a
        # numeric-backend flag with the columns; it must be ignored.
        table, *_ = self.build_small_dag()
        state = table.__getstate__()
        state["vectorize"] = True
        clone = NodeTable.__new__(NodeTable)
        clone.__setstate__(state)
        assert column_fingerprint(clone) == column_fingerprint(table)
        assert not hasattr(clone, "vectorize")

    def test_open_leaf_influences_sums_shared_paths(self):
        # One leaf reachable through two paths must appear once, with the
        # summed path weight.
        table = NodeTable()
        leaf = table.new_node(KIND_LEAF, 0.2, 0.8)
        left = table.new_node(KIND_DET_OR)
        table.attach_children(left, [leaf], weights=[0.5])
        right = table.new_node(KIND_DET_OR)
        table.attach_children(right, [leaf], weights=[0.25])
        root = table.new_node(KIND_DET_OR)
        table.attach_children(root, [left, right], weights=[1.0, 1.0])
        found = table.open_leaf_influences(root, 1.0)
        assert found == [(leaf, 0.75)]
        # A closed leaf (degenerate bracket) is not refinable frontier.
        table.lower[leaf] = table.upper[leaf] = 0.5
        assert table.open_leaf_influences(root, 1.0) == []


# ---------------------------------------------------------------------------
# properties: build/propagation equivalence under arbitrary interleavings
# ---------------------------------------------------------------------------


class TestPropagationProperties:
    @given(family_with_interleaving())
    @settings(max_examples=40, deadline=None)
    def test_level_invariant_survives_interleavings(self, family):
        members, probabilities, schedule = family
        store, _ = build_and_refine(members, probabilities, schedule)
        table = store.table
        for edge in range(len(table.edge_child)):
            parent = table.edge_parent[edge]
            child = table.edge_child[edge]
            assert table.level[parent] > table.level[child]

    @given(family_with_interleaving())
    @settings(max_examples=30, deadline=None)
    def test_refresh_all_bounds_is_idempotent(self, family):
        members, probabilities, schedule = family
        store, _ = build_and_refine(members, probabilities, schedule)
        before = column_fingerprint(store.table)
        store.table.refresh_all_bounds()
        assert column_fingerprint(store.table) == before

    @given(family_with_interleaving())
    @settings(max_examples=30, deadline=None)
    def test_bounds_stay_sound_and_monotone_along_the_schedule(self, family):
        members, probabilities, schedule = family
        store = SharedLineageStore()
        for dnf in members:
            store.add_probabilities(dnf, probabilities)
        views = [SharedDTree(store, dnf) for dnf in members]
        truths = [dnf_probability_enumeration(dnf, probabilities) for dnf in members]
        brackets = [view.bounds() for view in views]
        for index, steps in schedule:
            views[index].refine(steps)
            for position, view in enumerate(views):
                lower, upper = view.bounds()
                _, previous_upper = brackets[position]
                # Not asserted: lower >= previous_lower.  A Shannon step can
                # lower a leaf's greedy-disjoint bound (0.390625 -> 0.3125
                # was found here); soundness is the contract.
                assert upper <= previous_upper + TOLERANCE
                assert lower - TOLERANCE <= truths[position] <= upper + TOLERANCE
                brackets[position] = (lower, upper)

    @given(lineage_family())
    @settings(max_examples=30, deadline=None)
    def test_closure_is_bit_identical_to_the_per_tuple_dtree(self, family):
        members, probabilities = family
        store = SharedLineageStore()
        for dnf in members:
            store.add_probabilities(dnf, probabilities)
        for dnf in members:
            view = SharedDTree(store, dnf)
            view.refine(None)
            assert view.is_exact
            reference = refine_to_budget(
                DTree(dnf, probabilities), epsilon=0.0, max_steps=None
            ).probability
            assert view.result().probability == reference


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------


class TestKindCodes:
    def test_kind_codes_are_distinct_and_stable(self):
        codes = [KIND_CLOSED, KIND_LEAF, KIND_IND_AND, KIND_IND_OR, KIND_DET_OR]
        assert codes == [0, 1, 2, 3, 4]
