"""Tests for DNF lineage, its component grouping, and the exact-probability oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_connected_components, oracle_dnf, oracle_minimised

from repro.prob.formulas import DNF, _component_groups
from oracles.lineage import (
    _connected_components,
    dnf_probability,
    dnf_probability_enumeration,
)


PROBS = {1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4, 5: 0.5, 6: 0.6}


class TestDNF:
    def test_from_rows_and_str(self):
        dnf = DNF.from_rows([[1, 2], [1, 3]])
        assert len(dnf) == 2
        assert "x1x2" in str(dnf)

    def test_true_false(self):
        assert DNF().is_false()
        assert DNF([[]]).is_true()
        assert not DNF([[1]]).is_false()

    def test_evaluate(self):
        dnf = DNF([[1, 2], [3]])
        assert dnf.evaluate({1: True, 2: True, 3: False})
        assert dnf.evaluate({1: False, 2: False, 3: True})
        assert not dnf.evaluate({1: True, 2: False, 3: False})

    def test_condition(self):
        dnf = DNF([[1, 2], [3]])
        assert dnf.condition(1, True) == DNF([[2], [3]])
        assert dnf.condition(1, False) == DNF([[3]])

    def test_minimised_removes_subsumed(self):
        dnf = DNF([[1], [1, 2], [3]])
        assert dnf.minimised() == DNF([[1], [3]])

    def test_union(self):
        assert DNF([[1]]) | DNF([[2]]) == DNF([[1], [2]])


class TestExactProbability:
    def test_independent_clauses(self):
        dnf = DNF([[1], [2]])
        expected = 1 - 0.9 * 0.8
        assert dnf_probability(dnf, PROBS) == pytest.approx(expected)

    def test_shared_variable(self):
        # x1x2 ∨ x1x3 = x1(x2 ∨ x3)
        dnf = DNF([[1, 2], [1, 3]])
        expected = 0.1 * (1 - 0.8 * 0.7)
        assert dnf_probability(dnf, PROBS) == pytest.approx(expected)

    def test_paper_example_probability(self):
        # x1 y1 (z1 ∨ z2) with the Fig. 1 probabilities = 0.0028
        probabilities = {1: 0.1, 2: 0.1, 3: 0.1, 4: 0.2}
        dnf = DNF([[1, 2, 3], [1, 2, 4]])
        for probability in (dnf_probability, dnf_probability_enumeration):
            assert probability(dnf, probabilities) == pytest.approx(0.1 * 0.1 * 0.28)

    def test_constant_dnfs(self):
        assert dnf_probability(DNF(), PROBS) == 0.0
        assert dnf_probability(DNF([[]]), PROBS) == 1.0
        assert dnf_probability_enumeration(DNF(), PROBS) == 0.0
        assert dnf_probability_enumeration(DNF([[]]), PROBS) == 1.0

    def test_hard_pattern_matches_enumeration(self):
        # R(x), S(x,y), T(y): the prototypical #P-hard query's lineage shape.
        dnf = DNF([[1, 3, 5], [1, 3, 6], [2, 4, 6]])
        assert dnf_probability(dnf, PROBS) == pytest.approx(
            dnf_probability_enumeration(dnf, PROBS)
        )

    @given(
        st.lists(
            st.frozensets(st.integers(1, 6), min_size=1, max_size=4), min_size=1, max_size=6
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_shannon_matches_enumeration(self, clauses):
        dnf = DNF(clauses)
        assert dnf_probability(dnf, PROBS) == pytest.approx(
            dnf_probability_enumeration(dnf, PROBS), abs=1e-9
        )

    @given(
        st.lists(
            st.frozensets(st.integers(1, 6), min_size=1, max_size=3), min_size=1, max_size=5
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_probability_is_monotone_in_clauses(self, clauses):
        dnf = DNF(clauses)
        smaller = DNF(list(clauses)[:-1])
        assert dnf_probability(dnf, PROBS) >= dnf_probability(smaller, PROBS) - 1e-12


# ---------------------------------------------------------------------------
# the compile kernel's order contract, against the pre-rewrite oracles
# ---------------------------------------------------------------------------


@st.composite
def positive_dnfs(draw, max_clause=5):
    """1-40 clauses of 0-``max_clause`` variables: the empty clause, duplicate
    draws, and — through the drawn domain size — anything from one big
    component to all-singletons."""
    domain = draw(st.integers(2, 60))
    clause = st.frozensets(st.integers(0, domain), min_size=0, max_size=max_clause)
    return draw(st.lists(clause, min_size=1, max_size=40))


def _same_order(shipped, oracle):
    """Element-by-element equality of clause *iteration order* — the
    bit-identity contract (set equality would hide a permuted fold)."""
    assert len(shipped) == len(oracle)
    for ours, theirs in zip(shipped, oracle):
        assert list(ours.clauses) == list(theirs.clauses)


class TestComponentGroupsOracle:
    @given(positive_dnfs())
    @settings(max_examples=300, deadline=None)
    def test_groups_match_the_replaced_union_find(self, clauses):
        dnf = DNF(clauses)
        # the map-based freeze lands on the layout of the generator-based one
        assert list(dnf.clauses) == list(oracle_dnf(clauses).clauses)
        oracle = oracle_connected_components(dnf)
        _same_order(_connected_components(dnf), oracle)
        # build()/_build() pass the clause *list*; same groups either way
        from_list = _component_groups(list(dnf.clauses))
        _same_order([DNF(group) for group in from_list], oracle)

    @pytest.mark.parametrize(
        "clauses",
        [
            [[1, 2], [3, 4]],  # two clauses, disjoint: the short-cut's split
            [[1, 2], [2, 3]],  # two clauses, overlapping: one component
            [[1, 2], []],  # the empty clause rides last, in its own group
            [[], [7]],
            [[5]],
            [[]],
            [[1, 2], [3, 4], [2, 3]],  # a later clause bridges two labels
            [[1], [2], [3], [1, 2, 3]],
        ],
    )
    def test_corner_cases(self, clauses):
        dnf = DNF(clauses)
        _same_order(_connected_components(dnf), oracle_connected_components(dnf))

    def test_groups_are_fresh_sets_with_the_constant_last(self):
        dnf = DNF([[1, 2], [], [3]])
        groups = _component_groups(dnf.clauses)
        assert all(type(group) is set for group in groups)
        assert groups[-1] == {frozenset()}
        assert sorted(map(len, groups)) == [1, 1, 1]


class TestDNFFastPaths:
    @given(positive_dnfs())
    @settings(max_examples=200, deadline=None)
    def test_minimised_matches_the_quadratic_sweep(self, clauses):
        dnf = DNF(clauses)
        assert list(dnf.minimised().clauses) == list(oracle_minimised(dnf).clauses)

    @given(
        st.integers(0, 4).flatmap(
            lambda width: st.lists(
                st.frozensets(st.integers(0, 12), min_size=width, max_size=width),
                min_size=1,
                max_size=40,
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_minimised_equal_length_fast_path(self, clauses):
        dnf = DNF(clauses)
        minimised = dnf.minimised()
        assert minimised is not dnf  # rebuilt, never handed back
        assert list(minimised.clauses) == list(oracle_minimised(dnf).clauses)

    @given(positive_dnfs())
    @settings(max_examples=100, deadline=None)
    def test_variables_is_the_union(self, clauses):
        expected = set()
        for clause in clauses:
            expected |= clause
        assert DNF(clauses).variables() == expected
        assert type(DNF(clauses).variables()) is frozenset
