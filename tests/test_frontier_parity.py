"""Influence descents that skip closed rows ≡ the full walks they replaced.

``NodeTable.open_leaf_influences`` and ``DTree._enqueue_subtree`` no longer
enter closed children (and no longer compute the O(siblings) influence of an
edge that leads to one).  The bodies they had at commit ``f09e991`` live on
here as the naive reference: on Hypothesis-built stores and trees refined for
0–30 steps, the shipped descents must return the same ``(leaf, weight)``
lists and build the same heaps — ``==`` on the floats, same pop order.  A
hand-built DAG with a zero-weight ⊙ edge above an open leaf pins that only
*kind-closed* rows are skipped, never rows that merely carry no weight.
"""

from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prob.formulas import DNF
from repro.prob.nodetable import KIND_CLOSED, KIND_DET_OR, KIND_IND_OR, KIND_LEAF, NodeTable
from repro.prob.sharedag import SharedDTree, SharedLineageStore

from oracles.dtree import DTree, _Closed, _Inner, _Leaf


def naive_open_leaf_influences(table, start, start_weight):
    """``NodeTable.open_leaf_influences`` as of ``f09e991``: walks everything."""
    kind_col = table.kind
    child_start = table.child_start
    child_count = table.child_count
    edge_child = table.edge_child
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        begin = child_start[node]
        for slot in range(child_count[node]):
            child = edge_child[begin + slot]
            if child not in seen:
                seen.add(child)
                stack.append(child)
    accumulated = {node: 0.0 for node in seen}
    accumulated[start] = start_weight
    level = table.level
    order = sorted(seen, key=lambda node: (-level[node], node))
    found = []
    for node in order:
        weight = accumulated[node]
        if kind_col[node] == KIND_LEAF:
            if table.upper[node] > table.lower[node]:
                found.append((node, weight))
            continue
        begin = child_start[node]
        for slot in range(child_count[node]):
            accumulated[edge_child[begin + slot]] += weight * table.influence(node, slot)
    return found


def naive_enqueue_subtree(tree, node, weight):
    """``DTree._enqueue_subtree`` as of ``f09e991``: weighs every child."""
    if isinstance(node, _Closed):
        return
    if isinstance(node, _Leaf):
        if not node.expanded:
            node.heap_gen = tree._heap_gen
            tree._counter += 1
            heappush(
                tree._heap,
                (-(weight * (node.upper - node.lower)), tree._counter, node),
            )
        return
    assert isinstance(node, _Inner)
    for slot, child in enumerate(node.children):
        naive_enqueue_subtree(tree, child, weight * node.child_weight(slot))


class NaiveDTree(DTree):
    """A ``DTree`` whose every frontier push goes through the naive walk."""

    def _enqueue_subtree(self, node, weight):
        naive_enqueue_subtree(self, node, weight)


@st.composite
def lineage(draw):
    """One DNF (wide enough for ⊕ roots with closed and open children) and a
    probability space that includes the degenerate marginals 0 and 1."""
    nvars = draw(st.integers(4, 14))
    probability = st.one_of(
        st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
        st.sampled_from([0.0, 1.0]),
    )
    probabilities = {v: draw(probability) for v in range(nvars)}
    clause = st.sets(st.integers(0, nvars - 1), min_size=1, max_size=3).map(frozenset)
    clauses = draw(st.lists(clause, min_size=2, max_size=12))
    return DNF(clauses), probabilities


def heap_trace(tree):
    """The heap as plain data, in list order and in pop order."""
    raw = [(priority, counter) for priority, counter, _ in tree._heap]
    heap = list(tree._heap)
    popped = []
    while heap:
        priority, counter, leaf = heappop(heap)
        popped.append((priority, counter, tuple(leaf.dnf.clauses)))
    return raw, popped


def view_pop_order(store, root, entries):
    """The order a view's heap hands back ``entries`` pushed in list order."""
    view = SharedDTree.from_root(store, root)
    for leaf, weight in entries:
        view._push(leaf, weight)
    return [heappop(view._heap) for _ in range(len(view._heap))]


class TestEnqueueSubtreeParity:
    @given(lineage(), st.integers(0, 30))
    @settings(max_examples=150, deadline=None)
    def test_heaps_match_step_for_step(self, case, steps):
        dnf, probabilities = case
        shipped = DTree(dnf, probabilities)
        naive = NaiveDTree(dnf, probabilities)
        for _ in range(steps + 1):
            assert heap_trace(shipped) == heap_trace(naive)
            assert shipped.bounds() == naive.bounds()
            assert shipped.node_count == naive.node_count
            if not shipped.expand_once():
                assert not naive.expand_once()
                break
            assert naive.expand_once()
        assert shipped.steps == naive.steps

    @given(lineage(), st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_rebuilt_frontier_matches_the_naive_walk(self, case, steps):
        dnf, probabilities = case
        tree = DTree(dnf, probabilities)
        tree.refine(steps)
        tree._rebuild_frontier()
        shipped = [(priority, counter, leaf) for priority, counter, leaf in tree._heap]
        tree._heap, tree._counter = [], 0
        tree._heap_gen += 1
        naive_enqueue_subtree(tree, tree.root, 1.0)
        assert len(shipped) == len(tree._heap)
        for ours, theirs in zip(shipped, tree._heap):
            assert ours[:2] == theirs[:2] and ours[2] is theirs[2]


class TestOpenLeafInfluencesParity:
    @given(st.lists(lineage(), min_size=1, max_size=3), st.integers(0, 30))
    @settings(max_examples=150, deadline=None)
    def test_descents_match_along_refinement(self, cases, steps):
        store = SharedLineageStore()
        probabilities = {}
        for _, space in cases:
            # one shared space: later cases may not contradict earlier ones
            probabilities = {**space, **probabilities}
        views = []
        for dnf, _ in cases:
            store.add_probabilities(dnf, probabilities)
            views.append(SharedDTree(store, dnf))
        table = store.table
        for _ in range(steps + 1):
            for nid in range(len(table)):
                if table.kind[nid] == KIND_CLOSED:
                    continue
                shipped = table.open_leaf_influences(nid, 1.0)
                assert shipped == naive_open_leaf_influences(table, nid, 1.0)
            for view in views:
                shipped = table.open_leaf_influences(view.root, 0.75)
                naive = naive_open_leaf_influences(table, view.root, 0.75)
                assert shipped == naive
                assert view_pop_order(store, view.root, shipped) == view_pop_order(
                    store, view.root, naive
                )
            if store.refine_round(views, 1) == 0:
                break

    def test_zero_weight_det_or_edge_above_an_open_leaf_is_walked(self):
        # root ⊙ —0.0→ mid ⊕ → {open leaf, closed};  root ⊙ —1.0→ closed.
        # The leaf's influence is exactly 0.0 — and it must still be listed:
        # "skip kind-closed" is not "skip weightless".
        table = NodeTable()
        leaf = table.new_node(KIND_LEAF, 0.2, 0.6)
        closed = table.new_node(KIND_CLOSED, 0.3, 0.3)
        mid = table.new_node(KIND_IND_OR)
        table.attach_children(mid, [leaf, closed])
        other = table.new_node(KIND_CLOSED, 0.9, 0.9)
        root = table.new_node(KIND_DET_OR)
        table.attach_children(root, [mid, other], weights=[0.0, 1.0])
        table.refresh_all_bounds()
        found = table.open_leaf_influences(root, 1.0)
        assert found == [(leaf, 0.0)]
        assert found == naive_open_leaf_influences(table, root, 1.0)
        # ``root`` itself now has a degenerate bracket (0·[.2,.6] + 1·.9) but
        # is not kind-closed: a walk from above must still enter it.
        assert table.lower[root] == table.upper[root] and table.kind[root] == KIND_DET_OR
        second = table.new_node(KIND_LEAF, 0.1, 0.5)
        top = table.new_node(KIND_IND_OR)
        table.attach_children(top, [root, second])
        table.refresh_all_bounds()
        found = table.open_leaf_influences(top, 1.0)
        assert found == naive_open_leaf_influences(table, top, 1.0)
        assert [nid for nid, _ in found] == [leaf, second]

    def test_zero_weight_edge_from_a_certain_variable(self):
        # P(x2) = 1 gives the ⊙ row of the first expansion a 0.0 edge to its
        # negative cofactor; the store-level descent agrees with the naive one.
        probabilities = {v: 0.5 for v in range(1, 8)}
        probabilities[2] = 1.0
        dnf = DNF([[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [2, 7]])
        store = SharedLineageStore()
        store.add_probabilities(dnf, probabilities)
        view = SharedDTree(store, dnf)
        assert view.expand_once()
        table = store.table
        assert table.kind[view.root] == KIND_DET_OR
        assert table.edge_weight[table.child_start[view.root] + 1] == 0.0
        shipped = table.open_leaf_influences(view.root, 1.0)
        assert shipped == naive_open_leaf_influences(table, view.root, 1.0)
        assert any(weight == 0.0 for _, weight in shipped)
