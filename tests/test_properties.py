"""Property-based tests of the core invariant: every evaluation path computes
the possible-worlds confidence.

Hypothesis generates small random tuple-independent databases for a fixed
family of query shapes (one-to-many joins, products, projections), and the
engine's plan styles and the reference oracles are checked against
brute-force world enumeration.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Atom, ConjunctiveQuery, ProbabilisticDatabase, SproutEngine
from repro.storage import Relation, Schema

from helpers import assert_confidences_close
from oracles.lineage import lineage_evaluate
from oracles.semantics import semantics_evaluate
from oracles.worlds import confidences_by_enumeration, evaluate_deterministic


probabilities = st.floats(min_value=0.05, max_value=0.95)


@st.composite
def two_table_database(draw):
    """R(a) and S(a, b) with a one-to-many join on ``a`` (at most 12 variables)."""
    r_size = draw(st.integers(1, 3))
    s_size = draw(st.integers(1, 6))
    r_rows = [(i,) for i in range(r_size)]
    s_rows = [
        (draw(st.integers(0, r_size - 1)), j) for j in range(s_size)
    ]
    r_probs = [draw(probabilities) for _ in r_rows]
    s_probs = [draw(probabilities) for _ in s_rows]
    db = ProbabilisticDatabase("prop")
    db.add_table(
        Relation("R", Schema.of("a:int"), r_rows), probabilities=r_probs, primary_key=["a"]
    )
    db.add_table(Relation("S", Schema.of("a:int", "b:int"), s_rows), probabilities=s_probs)
    return db


@st.composite
def three_table_database(draw):
    """Cust(c) / Ord(o, c) / Item(o, d, line): the paper's schema in miniature.

    The extra ``line`` column keeps Item rows distinct (the data model requires
    a set of tuples) while still allowing several items with the same ``(o, d)``
    combination, which is what creates duplicate answer tuples.
    """
    cust_size = draw(st.integers(1, 2))
    ord_size = draw(st.integers(1, 3))
    item_size = draw(st.integers(1, 5))
    cust_rows = [(i,) for i in range(cust_size)]
    ord_rows = [(j, draw(st.integers(0, cust_size - 1))) for j in range(ord_size)]
    item_rows = [
        (draw(st.integers(0, ord_size - 1)), draw(st.integers(0, 2)), line)
        for line in range(item_size)
    ]
    db = ProbabilisticDatabase("prop3")
    db.add_table(
        Relation("Cust", Schema.of("c:int"), cust_rows),
        probabilities=[draw(probabilities) for _ in cust_rows],
        primary_key=["c"],
    )
    db.add_table(
        Relation("Ord", Schema.of("o:int", "c:int"), ord_rows),
        probabilities=[draw(probabilities) for _ in ord_rows],
        primary_key=["o"],
    )
    db.add_table(
        Relation("Item", Schema.of("o:int", "d:int", "line:int"), item_rows),
        probabilities=[draw(probabilities) for _ in item_rows],
        primary_key=["o", "line"],
    )
    return db


def check_all_plans(db, query, plans=("lazy", "eager", "hybrid")):
    """Every operator plan and both reference oracles (exact lineage counting,
    the Fig. 5 semantics) agree with enumeration.  Every example is a new
    database, so the truth is computed afresh rather than memoised."""
    truth = confidences_by_enumeration(
        db, lambda instance: evaluate_deterministic(query, instance)
    )
    engine = SproutEngine(db)
    for plan in plans:
        result = engine.evaluate(query, plan=plan)
        assert_confidences_close(result.confidences(), truth, 1e-9)
    assert_confidences_close(lineage_evaluate(db, query), truth, 1e-9)
    assert_confidences_close(semantics_evaluate(engine, query).confidences(), truth, 1e-9)


class TestTwoTableProperties:
    @given(two_table_database())
    @settings(max_examples=25, deadline=None)
    def test_projection_query(self, db):
        query = ConjunctiveQuery("P", [Atom("R", ["a"]), Atom("S", ["a", "b"])], projection=["a"])
        check_all_plans(db, query)

    @given(two_table_database())
    @settings(max_examples=25, deadline=None)
    def test_boolean_query(self, db):
        query = ConjunctiveQuery("B", [Atom("R", ["a"]), Atom("S", ["a", "b"])])
        check_all_plans(db, query)

    @given(two_table_database())
    @settings(max_examples=20, deadline=None)
    def test_non_join_projection(self, db):
        query = ConjunctiveQuery("NP", [Atom("R", ["a"]), Atom("S", ["a", "b"])], projection=["b"])
        check_all_plans(db, query)


class TestThreeTableProperties:
    @given(three_table_database())
    @settings(max_examples=20, deadline=None)
    def test_chain_boolean(self, db):
        query = ConjunctiveQuery(
            "chainB",
            [Atom("Cust", ["c"]), Atom("Ord", ["o", "c"]), Atom("Item", ["o", "d"])],
        )
        check_all_plans(db, query)

    @given(three_table_database())
    @settings(max_examples=20, deadline=None)
    def test_chain_projection(self, db):
        query = ConjunctiveQuery(
            "chainP",
            [Atom("Cust", ["c"]), Atom("Ord", ["o", "c"]), Atom("Item", ["o", "d"])],
            projection=["d"],
        )
        check_all_plans(db, query)

    @given(three_table_database())
    @settings(max_examples=15, deadline=None)
    def test_hard_pattern_via_lineage(self, db):
        # Drop the Ord-Item join attribute from Item's perspective: the query
        # becomes the hard pattern, but with okey being Ord's key the FD-reduct
        # is hierarchical, so every plan still works.
        query = ConjunctiveQuery(
            "fd-rescued",
            [Atom("Cust", ["c"]), Atom("Ord", ["o", "c"]), Atom("Item", ["o", "d"])],
            projection=["c"],
        )
        check_all_plans(db, query)


class TestScanCountInvariant:
    @given(three_table_database())
    @settings(max_examples=10, deadline=None)
    def test_fd_signature_never_needs_more_scans(self, db):
        from repro.query.signature import num_scans

        engine = SproutEngine(db)
        query = ConjunctiveQuery(
            "scans",
            [Atom("Cust", ["c"]), Atom("Ord", ["o", "c"]), Atom("Item", ["o", "d"])],
            projection=["c"],
        )
        with_fds = num_scans(engine.signature_for(query, use_fds=True))
        without_fds = num_scans(engine.signature_for(query, use_fds=False))
        assert with_fds <= without_fds
