"""Engine-level tests of the unsafe-query path.

Non-hierarchical queries without a hierarchical FD-reduct have no safe plan
and no signature; the engine must route them to the d-tree confidence engine
(exact by default, anytime bounds with ``confidence="approx"``) instead of
raising.  Differential tests pin the routed results to brute-force world
enumeration.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_confidences_close

from repro import Atom, ConjunctiveQuery, PlanningError, ProbabilisticDatabase, SproutEngine
from repro.storage import Relation, Schema

from oracles.rows import RowEngine
from oracles.worlds import enumerate_truth


def unsafe_query(projection=()):
    """R(a) ⋈ S(a, b) ⋈ T(b): the canonical non-hierarchical query."""
    return ConjunctiveQuery(
        "H0" if not projection else "H0p",
        [Atom("R", ["a"]), Atom("S", ["a", "b"]), Atom("T", ["b"])],
        projection=projection,
    )


def build_database(r_probs, s_rows, s_probs, t_probs):
    db = ProbabilisticDatabase("unsafe")
    r_rows = [(i,) for i in range(len(r_probs))]
    t_rows = [(i,) for i in range(len(t_probs))]
    db.add_table(Relation("R", Schema.of("a:int"), r_rows), probabilities=r_probs)
    db.add_table(Relation("S", Schema.of("a:int", "b:int"), s_rows), probabilities=s_probs)
    db.add_table(Relation("T", Schema.of("b:int"), t_rows), probabilities=t_probs)
    return db


@st.composite
def unsafe_database(draw):
    """A small R/S/T instance with at most 16 variables."""
    r_size = draw(st.integers(1, 3))
    t_size = draw(st.integers(1, 3))
    s_size = draw(st.integers(1, 6))
    probability = st.floats(min_value=0.05, max_value=0.95)
    s_rows = list(
        dict.fromkeys(
            (
                draw(st.integers(0, r_size - 1)),
                draw(st.integers(0, t_size - 1)),
            )
            for _ in range(s_size)
        )
    )
    return build_database(
        [draw(probability) for _ in range(r_size)],
        s_rows,
        [draw(probability) for _ in s_rows],
        [draw(probability) for _ in range(t_size)],
    )


@pytest.fixture
def unsafe_db():
    return build_database(
        [0.4, 0.5, 0.6],
        [(1, 1), (1, 2), (2, 2), (3, 1), (3, 3)],
        [0.3, 0.7, 0.2, 0.9, 0.5],
        [0.8, 0.35, 0.45],
    )


class TestUnsafeRouting:
    def test_query_is_not_tractable(self, unsafe_db):
        engine = SproutEngine(unsafe_db)
        assert not engine.is_tractable(unsafe_query())

    @pytest.mark.parametrize("plan", ("lazy", "eager", "hybrid"))
    def test_operator_plans_route_to_dtree(self, unsafe_db, plan):
        engine = SproutEngine(unsafe_db)
        result = engine.evaluate(unsafe_query(), plan=plan)
        assert result.plan_style == "dtree"
        assert result.confidence == "exact"
        truth = enumerate_truth(unsafe_db, unsafe_query())
        assert result.boolean_confidence() == pytest.approx(truth[()], abs=1e-9)

    def test_explicit_dtree_plan(self, unsafe_db):
        engine = SproutEngine(unsafe_db)
        result = engine.evaluate(unsafe_query(["a"]), plan="dtree")
        truth = enumerate_truth(unsafe_db, unsafe_query(["a"]))
        assert_confidences_close(result.confidences(), truth)
        # Exact mode reports degenerate bounds.
        for data, confidence in result.confidences().items():
            lower, upper = result.bounds[data]
            assert lower == pytest.approx(upper)
            assert lower == pytest.approx(confidence)

    def test_explain_mentions_dtree(self, unsafe_db):
        engine = SproutEngine(unsafe_db)
        assert "d-tree" in engine.explain(unsafe_query())
        assert "d-tree" in engine.explain(unsafe_query(), plan="dtree")

    def test_engine_matches_the_row_oracle(self, unsafe_db):
        row = RowEngine(unsafe_db).evaluate(unsafe_query(["a"]))
        batch = SproutEngine(unsafe_db).evaluate(unsafe_query(["a"]))
        assert_confidences_close(batch.confidences(), row.confidences(), 1e-12)

    def test_safe_queries_keep_operator_plans(self, unsafe_db):
        # A hierarchical query must not be routed away from the operator path.
        safe = ConjunctiveQuery(
            "safe", [Atom("R", ["a"]), Atom("S", ["a", "b"])], projection=[]
        )
        engine = SproutEngine(unsafe_db)
        assert engine.is_tractable(safe)
        result = engine.evaluate(safe, plan="lazy")
        assert result.plan_style == "lazy"
        assert result.signature is not None


class TestApproxMode:
    def test_engine_level_epsilon(self, unsafe_db):
        engine = SproutEngine(unsafe_db, confidence="approx", epsilon=0.02)
        truth = enumerate_truth(unsafe_db, unsafe_query())
        result = engine.evaluate(unsafe_query())
        assert result.confidence == "approx"
        assert result.epsilon == 0.02
        lower, upper = result.bounds[()]
        assert lower - 1e-12 <= truth[()] <= upper + 1e-12
        assert abs(result.boolean_confidence() - truth[()]) <= 0.02 + 1e-12

    def test_call_level_override(self, unsafe_db):
        engine = SproutEngine(unsafe_db)
        result = engine.evaluate(unsafe_query(), confidence="approx", epsilon=0.1)
        assert result.confidence == "approx"
        assert result.epsilon == 0.1
        exact = engine.evaluate(unsafe_query())
        lower, upper = result.bounds[()]
        assert lower - 1e-12 <= exact.boolean_confidence() <= upper + 1e-12

    def test_approx_applies_to_tractable_queries_too(self, unsafe_db):
        safe = ConjunctiveQuery(
            "safe", [Atom("R", ["a"]), Atom("S", ["a", "b"])], projection=[]
        )
        engine = SproutEngine(unsafe_db)
        exact = engine.evaluate(safe).boolean_confidence()
        approx = engine.evaluate(safe, confidence="approx", epsilon=0.01)
        assert approx.plan_style == "dtree"
        assert abs(approx.boolean_confidence() - exact) <= 0.01 + 1e-12

    @given(unsafe_database(), st.floats(min_value=0.01, max_value=0.2))
    @settings(max_examples=20, deadline=None)
    def test_bounds_bracket_enumeration(self, db, epsilon):
        engine = SproutEngine(db)
        truth = enumerate_truth(db, unsafe_query(["a"]))
        result = engine.evaluate(unsafe_query(["a"]), confidence="approx", epsilon=epsilon)
        assert set(result.confidences()) == set(truth)
        for data, true_confidence in truth.items():
            lower, upper = result.bounds[data]
            assert lower - 1e-9 <= true_confidence <= upper + 1e-9
            assert abs(result.confidences()[data] - true_confidence) <= epsilon + 1e-9

    @given(unsafe_database())
    @settings(max_examples=15, deadline=None)
    def test_exact_routing_matches_enumeration(self, db):
        engine = SproutEngine(db)
        truth = enumerate_truth(db, unsafe_query())
        result = engine.evaluate(unsafe_query())
        assert result.boolean_confidence() == pytest.approx(
            truth.get((), 0.0), abs=1e-9
        )


@pytest.fixture
def dense_unsafe_db():
    """A 5×5 bipartite instance whose Boolean lineage needs many Shannon steps.

    With ``dtree_max_steps=1`` its bracket stays wide, so the engine's
    Karp–Luby fallback supplies the point estimate — exactly the code path
    the ``seed`` parameter exists to make reproducible.
    """
    import random

    rng = random.Random(0)
    r_probs = [rng.uniform(0.2, 0.8) for _ in range(5)]
    t_probs = [rng.uniform(0.2, 0.8) for _ in range(5)]
    s_rows = [(a, b) for a in range(5) for b in range(5) if rng.random() < 0.7]
    s_probs = [rng.uniform(0.2, 0.8) for _ in s_rows]
    return build_database(r_probs, s_rows, s_probs, t_probs)


class TestSeedThreading:
    """The engine seed makes the Karp–Luby fallback reproducible."""

    def _engine(self, db, seed):
        return SproutEngine(
            db,
            confidence="approx",
            epsilon=1e-9,
            dtree_max_steps=1,
            monte_carlo_samples=400,
            seed=seed,
        )

    def test_same_seed_reproduces_confidences(self, dense_unsafe_db):
        first = self._engine(dense_unsafe_db, seed=42).evaluate(unsafe_query())
        second = self._engine(dense_unsafe_db, seed=42).evaluate(unsafe_query())
        assert first.confidences() == second.confidences()

    def test_fallback_engages_and_seeds_differ(self, dense_unsafe_db):
        results = {
            seed: self._engine(dense_unsafe_db, seed=seed).evaluate(unsafe_query())
            for seed in (1, 2, 3)
        }
        estimates = {r.boolean_confidence() for r in results.values()}
        # The bracket is wide (compilation was capped after one step) and the
        # Monte Carlo estimates genuinely depend on the seed.
        assert len(estimates) > 1
        for result in results.values():
            lower, upper = result.bounds[()]
            assert upper - lower > 0.01
            assert lower - 1e-12 <= result.boolean_confidence() <= upper + 1e-12


class TestValidation:
    def test_unknown_confidence_mode(self, unsafe_db):
        engine = SproutEngine(unsafe_db)
        with pytest.raises(PlanningError):
            engine.evaluate(unsafe_query(), confidence="guess")
        with pytest.raises(PlanningError):
            SproutEngine(unsafe_db, confidence="guess")

    def test_negative_epsilon(self, unsafe_db):
        engine = SproutEngine(unsafe_db)
        with pytest.raises(PlanningError):
            engine.evaluate(unsafe_query(), epsilon=-0.5)
        with pytest.raises(PlanningError):
            SproutEngine(unsafe_db, epsilon=-1.0)
