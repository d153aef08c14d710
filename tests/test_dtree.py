"""Tests of the per-tuple d-tree oracle and the shared d-tree arithmetic.

The object-graph ``DTree`` (``oracles.dtree``) compiles one DNF with the
rules of :mod:`repro.prob.dtree`, the ones the shared store applies too.
Differential tests pin its exact evaluation to brute-force world
enumeration; property tests check the anytime contract: the lower/upper
bounds always bracket the true probability, shrink monotonically as the
epsilon budget tightens, and the midpoint honours the requested error.
The Karp–Luby estimator is validated as an unbiased cross-check, and the
oracle's per-tuple driver ``dtree_confidences`` is checked to make each
tuple's answer a function of that tuple's lineage alone.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ApproximationBudgetError, ProbabilityError
from repro.prob.dtree import ApproxResult, karp_luby_probability
from repro.prob.formulas import DNF, dnf_probability, dnf_probability_enumeration
from repro.prob.synthetic import bipartite_lineage, hub_lineage

from oracles.dtree import DTree, dtree_confidences, dtree_probability


@st.composite
def small_dnf(draw):
    """A positive DNF over at most 10 variables with its probability map."""
    nvars = draw(st.integers(1, 10))
    nclauses = draw(st.integers(1, 7))
    clauses = [
        frozenset(
            draw(
                st.lists(
                    st.integers(0, nvars - 1),
                    min_size=1,
                    max_size=min(3, nvars),
                    unique=True,
                )
            )
        )
        for _ in range(nclauses)
    ]
    probs = {
        v: draw(st.floats(min_value=0.05, max_value=0.95)) for v in range(nvars)
    }
    return DNF(clauses), probs


class TestExactCompilation:
    @given(small_dnf())
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, case):
        dnf, probs = case
        truth = dnf_probability_enumeration(dnf, probs)
        result = dtree_probability(dnf, probs)
        assert result.exact
        assert result.lower == result.upper
        assert result.probability == pytest.approx(truth, abs=1e-9)

    @given(small_dnf())
    @settings(max_examples=30, deadline=None)
    def test_matches_shannon_expansion(self, case):
        dnf, probs = case
        assert dtree_probability(dnf, probs).probability == pytest.approx(
            dnf_probability(dnf, probs), abs=1e-9
        )

    def test_constants(self):
        assert dtree_probability(DNF(), {}).probability == 0.0
        assert dtree_probability(DNF([frozenset()]), {}).probability == 1.0

    def test_single_clause(self):
        dnf = DNF([frozenset({1, 2})])
        result = dtree_probability(dnf, {1: 0.5, 2: 0.4})
        assert result.exact
        assert result.probability == pytest.approx(0.2)
        assert result.steps == 0  # closed without any Shannon step

    def test_independent_partition_needs_no_branching(self):
        # x1 ∨ x2 splits into components; x1x2 ∨ x1x3 factors out x1.
        assert dtree_probability(DNF([{1}, {2}]), {1: 0.5, 2: 0.5}).steps == 0
        result = dtree_probability(
            DNF([{1, 2}, {1, 3}]), {1: 0.5, 2: 0.5, 3: 0.5}
        )
        assert result.steps <= 1
        assert result.probability == pytest.approx(0.5 * (1 - 0.25))

    def test_missing_probability_rejected(self):
        with pytest.raises(ProbabilityError):
            dtree_probability(DNF([{1}]), {})

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ProbabilityError):
            dtree_probability(DNF([{1}]), {1: 0.5}, epsilon=-0.1)

    def test_exact_on_larger_unsafe_lineage(self):
        dnf, probs = bipartite_lineage(12, 12, 25, seed=5)
        truth = dnf_probability(dnf, probs)
        assert dtree_probability(dnf, probs).probability == pytest.approx(
            truth, abs=1e-9
        )


class TestAnytimeBounds:
    @given(small_dnf(), st.floats(min_value=0.005, max_value=0.2))
    @settings(max_examples=60, deadline=None)
    def test_bounds_bracket_truth_and_meet_budget(self, case, epsilon):
        dnf, probs = case
        truth = dnf_probability_enumeration(dnf, probs)
        result = dtree_probability(dnf, probs, epsilon=epsilon)
        assert result.lower - 1e-12 <= truth <= result.upper + 1e-12
        assert result.gap <= 2.0 * epsilon + 1e-12
        assert abs(result.probability - truth) <= epsilon + 1e-12

    @given(small_dnf())
    @settings(max_examples=40, deadline=None)
    def test_bounds_shrink_monotonically_with_epsilon(self, case):
        dnf, probs = case
        previous = None
        for epsilon in (0.2, 0.1, 0.05, 0.01, 0.0):
            result = dtree_probability(dnf, probs, epsilon=epsilon)
            if previous is not None:
                assert result.lower >= previous.lower - 1e-12
                assert result.upper <= previous.upper + 1e-12
            previous = result
        assert previous.exact

    def test_bounds_on_unsafe_lineage(self):
        dnf, probs = bipartite_lineage(25, 25, 60, seed=9)
        truth = dnf_probability(DNF(dnf.clauses), probs)
        result = dtree_probability(dnf, probs, epsilon=0.02)
        assert result.lower - 1e-9 <= truth <= result.upper + 1e-9
        assert result.gap <= 0.04 + 1e-9

    def test_relative_budget(self):
        dnf, probs = hub_lineage(50, 8, 3, seed=2)
        truth = dnf_probability(DNF(dnf.clauses), probs)
        result = dtree_probability(dnf, probs, epsilon=0.05, relative=True)
        assert result.lower - 1e-9 <= truth <= result.upper + 1e-9
        assert result.gap <= 2 * 0.05 * result.lower + 1e-9
        assert abs(result.probability - truth) <= 0.05 * truth + 1e-9

    def test_hub_lineage_converges_fast(self):
        # 800 clauses, non-hierarchical: the eps=0.01 bracket must come from a
        # handful of expansions (this is the acceptance scenario; the old
        # Shannon fallback does not terminate on this input in reasonable time).
        dnf, probs = hub_lineage(200, 25, 4, seed=3)
        assert len(dnf) == 800
        result = dtree_probability(dnf, probs, epsilon=0.01)
        assert result.gap <= 0.02 + 1e-12
        assert result.steps < 1000

    def test_budget_error_is_structured(self):
        dnf, probs = bipartite_lineage(31, 31, 200, seed=7)
        with pytest.raises(ApproximationBudgetError) as info:
            dtree_probability(dnf, probs, epsilon=0.001, max_steps=50)
        error = info.value
        assert error.steps >= 50
        assert 0.0 <= error.lower <= error.upper <= 1.0
        assert error.epsilon == 0.001
        assert not error.relative
        truth_bracket = dtree_probability(dnf, probs, epsilon=0.05)
        assert error.lower <= truth_bracket.upper
        assert error.upper >= truth_bracket.lower

    def test_stepwise_api(self):
        dnf, probs = bipartite_lineage(10, 10, 18, seed=1)
        tree = DTree(dnf, probs)
        gaps = []
        while not tree.is_exact and len(gaps) < 500:
            lower, upper = tree.bounds()
            gaps.append(upper - lower)
            if not tree.expand_once():
                break
        lower, upper = tree.bounds()
        assert upper - lower <= min(gaps) + 1e-12
        truth = dnf_probability(DNF(dnf.clauses), probs)
        assert lower - 1e-9 <= truth <= upper + 1e-9


class TestKarpLuby:
    def test_matches_truth_within_interval(self):
        dnf, probs = bipartite_lineage(15, 15, 40, seed=13)
        truth = dnf_probability(DNF(dnf.clauses), probs)
        mc = karp_luby_probability(dnf, probs, samples=20_000, seed=17)
        assert abs(mc.estimate - truth) <= 3 * mc.half_width + 0.01
        assert mc.lower <= truth <= mc.upper or abs(mc.estimate - truth) < 0.02

    def test_deterministic_given_seed(self):
        dnf, probs = bipartite_lineage(10, 10, 20, seed=4)
        first = karp_luby_probability(dnf, probs, samples=2_000, seed=5)
        second = karp_luby_probability(dnf, probs, samples=2_000, seed=5)
        assert first == second

    def test_constants(self):
        assert karp_luby_probability(DNF(), {}, samples=10).estimate == 0.0
        assert karp_luby_probability(DNF([frozenset()]), {}, samples=10).estimate == 1.0

    def test_invalid_samples(self):
        with pytest.raises(ProbabilityError):
            karp_luby_probability(DNF([{1}]), {1: 0.5}, samples=0)


class TestApproxResult:
    def test_str_and_gap(self):
        result = ApproxResult(0.5, 0.4, 0.6, steps=3, exact=False)
        assert result.gap == pytest.approx(0.2)
        assert "approx" in str(result)
        exact = ApproxResult(0.5, 0.5, 0.5, steps=0, exact=True)
        assert "exact" in str(exact)


@st.composite
def small_lineage(draw):
    """Up to four answer tuples whose DNFs share one probability map."""
    members = draw(st.lists(small_dnf(), min_size=1, max_size=4))
    probabilities = {}
    lineage = {}
    for index, (dnf, probs) in enumerate(members):
        # Shift each member onto its own variables, then let every other
        # member reuse one of them, so tuples overlap as answer lineage does.
        offset = 10 * index
        clauses = [frozenset(v + offset for v in clause) for clause in dnf.clauses]
        if index:
            clauses.append(frozenset({offset, offset - 10}))
        lineage[(index,)] = DNF(clauses)
        probabilities.update({v + offset: p for v, p in probs.items()})
    probabilities.setdefault(-10, 0.5)
    return lineage, probabilities


class TestOracleConfidences:
    @given(small_lineage())
    @settings(max_examples=30, deadline=None)
    def test_each_tuple_depends_on_its_own_lineage_only(self, case):
        """Neighbouring tuples and unused marginals change no bit of a
        tuple's oracle result."""
        lineage, probabilities = case
        together = dtree_confidences(lineage, probabilities)
        assert list(together) == sorted(lineage, key=repr)
        for data, dnf in lineage.items():
            alone = dtree_confidences({data: dnf}, dict(probabilities))
            assert alone[data] == together[data]

    @pytest.mark.parametrize("epsilon", (0.0, 0.01, 0.1))
    def test_results_bracket_enumeration_within_the_budget(self, epsilon):
        dnf, probabilities = bipartite_lineage(4, 4, 9, seed=5)
        lineage = {("a",): dnf, ("b",): DNF(sorted(dnf.clauses, key=sorted)[:4])}
        for data, result in dtree_confidences(
            lineage, probabilities, epsilon=epsilon
        ).items():
            truth = dnf_probability_enumeration(lineage[data], probabilities)
            assert result.lower - 1e-12 <= truth <= result.upper + 1e-12
            assert abs(result.probability - truth) <= epsilon + 1e-12
            assert result.exact == (result.lower == result.upper)
            if epsilon == 0.0:
                assert result.exact
