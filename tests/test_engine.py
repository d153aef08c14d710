"""End-to-end tests of the SPROUT engine against possible-worlds enumeration."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import NonHierarchicalQueryError, PlanningError, UnsupportedQueryError
from repro import Atom, ConjunctiveQuery, ProbabilisticDatabase, SproutEngine
from repro.algebra import Comparison, Disjunction
from repro.prob import backend_info, confidences_by_enumeration
from repro.sprout import evaluate_deterministic
from repro.sprout.engine import ANSWER_MEMO_ENTRIES
from repro.storage import Relation, Schema

from helpers import assert_confidences_close, build_paper_database, paper_query
from oracles.dtree import oracle_evaluate
from test_differential_matrix import CORPUS


ALL_PLANS = ("lazy", "eager", "hybrid", "lineage")
SRC = Path(__file__).resolve().parents[1] / "src"


def enumerate_truth(db, query):
    return confidences_by_enumeration(db, lambda instance: evaluate_deterministic(query, instance))


class TestPaperExample:
    """The Introduction's query Q on the Fig. 1 database: confidence 0.0028."""

    @pytest.mark.parametrize("plan", ALL_PLANS)
    def test_all_plan_styles(self, paper_db, paper_q, paper_engine, plan):
        result = paper_engine.evaluate(paper_q, plan=plan)
        assert_confidences_close(result.confidences(), {("1995-01-10",): 0.0028}, 1e-12)

    @pytest.mark.parametrize("conf_method", ("scans", "semantics"))
    def test_confidence_methods(self, paper_engine, paper_q, conf_method):
        result = paper_engine.evaluate(paper_q, conf_method=conf_method)
        assert result.confidences()[("1995-01-10",)] == pytest.approx(0.0028)

    def test_boolean_confidence(self, paper_engine, paper_q):
        result = paper_engine.evaluate(paper_q.boolean_version())
        assert result.boolean_confidence() == pytest.approx(0.0028)

    def test_signatures_with_and_without_fds(self, paper_engine, paper_q):
        assert str(paper_engine.signature_for(paper_q, use_fds=True)) == "(Cust (Ord Item*)*)*"
        with_fds = paper_engine.evaluate(paper_q, use_fds=True)
        without_fds = paper_engine.evaluate(paper_q, use_fds=False)
        assert with_fds.scans_used <= without_fds.scans_used
        assert_confidences_close(with_fds.confidences(), without_fds.confidences())

    def test_matches_possible_worlds(self, paper_db, paper_q, paper_engine):
        truth = enumerate_truth(paper_db, paper_q)
        assert_confidences_close(paper_engine.evaluate(paper_q).confidences(), truth)

    def test_disk_materialisation_flag(self, paper_engine, paper_q):
        result = paper_engine.evaluate(paper_q, materialize_to_disk=True)
        assert result.confidences()[("1995-01-10",)] == pytest.approx(0.0028)

    def test_explicit_join_order(self, paper_engine, paper_q):
        result = paper_engine.evaluate(paper_q, join_order=["Item", "Ord", "Cust"])
        assert result.join_order == ["Item", "Ord", "Cust"]
        assert result.confidences()[("1995-01-10",)] == pytest.approx(0.0028)


class TestMoreQueriesAgainstEnumeration:
    """Several query shapes, every plan style, validated by world enumeration."""

    def queries(self):
        atoms = paper_query().atoms
        yield paper_query()
        yield ConjunctiveQuery("no-selection", atoms, projection=["odate"])
        yield ConjunctiveQuery("cname-head", atoms, projection=["cname", "odate"])
        yield ConjunctiveQuery("boolean", atoms)
        yield ConjunctiveQuery(
            "two-tables",
            [Atom("Cust", ["ckey", "cname"]), Atom("Ord", ["okey", "ckey", "odate"])],
            projection=["cname"],
        )
        yield ConjunctiveQuery(
            "single", [Atom("Ord", ["okey", "ckey", "odate"])], projection=["ckey"]
        )
        yield ConjunctiveQuery(
            "selection-disjunction",
            [Atom("Ord", ["okey", "ckey", "odate"])],
            projection=["ckey"],
            selections=Disjunction(
                [Comparison("odate", "<", "1994-01-01"), Comparison("odate", ">", "1996-06-01")]
            ),
        )

    # Possible-world truth per query name: it does not depend on the plan,
    # and enumerating it dominates each parametrization's run time.
    TRUTH = {}

    @pytest.mark.parametrize("plan", ALL_PLANS)
    def test_against_enumeration(self, paper_db, plan):
        engine = SproutEngine(paper_db)
        for query in self.queries():
            truth = self.TRUTH.get(query.name)
            if truth is None:
                truth = self.TRUTH[query.name] = enumerate_truth(paper_db, query)
            result = engine.evaluate(query, plan=plan)
            assert_confidences_close(result.confidences(), truth)

    def test_product_query(self):
        db = ProbabilisticDatabase("prod")
        db.add_table(Relation("R", Schema.of("a:int"), [(1,), (2,)]), probabilities=[0.5, 0.5])
        db.add_table(Relation("S", Schema.of("b:int"), [(7,)]), probabilities=[0.25])
        query = ConjunctiveQuery("product", [Atom("R", ["a"]), Atom("S", ["b"])])
        truth = enumerate_truth(db, query)
        engine = SproutEngine(db)
        for plan in ALL_PLANS:
            assert_confidences_close(engine.evaluate(query, plan=plan).confidences(), truth)

    def test_empty_answer(self, paper_db):
        engine = SproutEngine(paper_db)
        query = ConjunctiveQuery(
            "empty",
            paper_query().atoms,
            projection=["odate"],
            selections=Comparison("cname", "=", "Nobody"),
        )
        for plan in ALL_PLANS:
            result = engine.evaluate(query, plan=plan)
            assert result.confidences() == {}
        assert engine.evaluate(query.boolean_version()).boolean_confidence() == 0.0


class TestHardQueries:
    def hard_query(self):
        # Q' of the Introduction: Item without ckey.
        return ConjunctiveQuery(
            "Qprime",
            [
                Atom("Cust", ["ckey", "cname"]),
                Atom("Ord", ["okey", "ckey", "odate"]),
                Atom("Item", ["okey", "discount"]),
            ],
            projection=["odate"],
            selections=Comparison("cname", "=", "Joe"),
        )

    def test_unsafe_routed_to_dtree_without_fds(self, paper_db):
        db_without_keys = build_paper_database()
        # paper_db declares okey as key of Ord, which makes Q' tractable; build
        # a database without that key to exercise the unsafe-query path.
        fresh = ProbabilisticDatabase("no-keys")
        for name in ("Cust", "Ord", "Item"):
            table = db_without_keys.table(name)
            data = table.relation.project(list(table.data_schema.names))
            fresh.add_table(data, probabilities=0.5, name=name)
        engine = SproutEngine(fresh)
        assert not engine.is_tractable(self.hard_query())
        # Operator plans cannot process the query (no hierarchical signature
        # exists), so the engine routes it to the d-tree path instead of
        # raising, and the result is still exact.
        result = engine.evaluate(self.hard_query(), plan="lazy")
        assert result.plan_style == "dtree"
        assert result.confidence == "exact"
        truth = enumerate_truth(fresh, self.hard_query())
        assert_confidences_close(result.confidences(), truth)
        with pytest.raises(NonHierarchicalQueryError):
            engine.signature_for(self.hard_query())

    def test_lineage_fallback_still_works(self, paper_db):
        engine = SproutEngine(paper_db)
        truth = enumerate_truth(paper_db, self.hard_query())
        result = engine.evaluate(self.hard_query(), plan="lineage")
        assert_confidences_close(result.confidences(), truth)

    def test_tractable_with_fd(self, paper_db):
        # okey -> ckey holds (okey is the key of Ord), so Q' is tractable here.
        engine = SproutEngine(paper_db)
        assert engine.is_tractable(self.hard_query())
        truth = enumerate_truth(paper_db, self.hard_query())
        for plan in ("lazy", "eager", "hybrid"):
            assert_confidences_close(
                engine.evaluate(self.hard_query(), plan=plan).confidences(), truth
            )


class TestEngineValidation:
    def test_unknown_plan_style(self, paper_engine, paper_q):
        with pytest.raises(PlanningError):
            paper_engine.evaluate(paper_q, plan="magic")

    def test_unknown_conf_method(self, paper_engine, paper_q):
        with pytest.raises(PlanningError):
            paper_engine.evaluate(paper_q, conf_method="guess")

    def test_cross_table_selection_rejected(self, paper_engine):
        query = ConjunctiveQuery(
            "spanning",
            paper_query().atoms,
            projection=["odate"],
            selections=Disjunction(
                [Comparison("cname", "=", "Joe"), Comparison("discount", ">", 0.3)]
            ),
        )
        with pytest.raises(UnsupportedQueryError):
            paper_engine.evaluate(query)

    def test_explain(self, paper_engine, paper_q):
        text = paper_engine.explain(paper_q, plan="lazy")
        assert "signature" in text and "join order" in text
        eager_text = paper_engine.explain(paper_q, plan="eager")
        assert "hierarchy join order" in eager_text
        lineage_text = paper_engine.explain(paper_q, plan="lineage")
        assert "lineage" in lineage_text

    def test_summary_and_metrics(self, paper_engine, paper_q):
        result = paper_engine.evaluate(paper_q)
        assert result.total_seconds >= 0
        assert result.answer_rows == 2
        assert result.distinct_tuples == 1
        assert "Q" in result.summary()

    def test_boolean_confidence_on_non_boolean_answer(self, paper_engine):
        query = ConjunctiveQuery("multi", paper_query().atoms, projection=["odate"])
        result = paper_engine.evaluate(query)
        assert len(result.confidences()) > 1
        with pytest.raises(PlanningError):
            result.boolean_confidence()


class TestEngineInstrumentation:
    """The cache-counter surface added with the columnar core."""

    @staticmethod
    def unsafe_workload():
        """q(a) :- R(a, x), S(x, y), T(y): unsafe, so top-k hits the cache."""
        db = ProbabilisticDatabase("chain-db")
        db.add_table(
            Relation("R", Schema.of("a:int", "x:int"), [(0, 0), (0, 1), (1, 1)]),
            probabilities=[0.8, 0.3, 0.6],
        )
        db.add_table(
            Relation("S", Schema.of("x:int", "y:int"), [(0, 0), (1, 1), (1, 0)]),
            probabilities=[0.45, 0.85, 0.75],
        )
        db.add_table(
            Relation("T", Schema.of("y:int"), [(0,), (1,)]), probabilities=[0.9, 0.35]
        )
        query = ConjunctiveQuery(
            "chain",
            [Atom("R", ["a", "x"]), Atom("S", ["x", "y"]), Atom("T", ["y"])],
            projection=["a"],
        )
        return db, query

    def test_cache_stats_counters(self):
        db, query = self.unsafe_workload()
        with SproutEngine(db) as engine:
            stats = engine.cache_stats()
            assert stats == {
                "hits": 0,
                "misses": 0,
                "evictions": 0,
                "entries": 0,
                "answer_hits": 0,
                "answer_misses": 0,
                "answer_entries": 0,
                "analysis_hits": 0,
                "analysis_misses": 0,
                "closed": False,
                "frontier_marks": 0,
                "frontier_rebuilds": 0,
            }
            engine.evaluate_topk(query, k=1)
            warmed = engine.cache_stats()
            assert warmed["misses"] >= 1
            assert warmed["entries"] >= 1
            # Every view starts marked stale and is measured only if the
            # decision peeks at it.
            assert warmed["frontier_marks"] == warmed["entries"]
            assert warmed["frontier_rebuilds"] >= 1
            engine.evaluate_topk(query, k=1)
            repeat = engine.cache_stats()
            assert repeat["hits"] >= 1
            # Exact-mode top-k asks whether the query is tractable: analysed
            # once, answered from the analysis memo on the repeat.
            assert (warmed["analysis_hits"], warmed["analysis_misses"]) == (0, 1)
            assert (repeat["analysis_hits"], repeat["analysis_misses"]) == (1, 1)

    def test_cache_stats_on_closed_engine_is_a_stable_snapshot(self):
        db, query = self.unsafe_workload()
        engine = SproutEngine(db)
        engine.evaluate_topk(query, k=1)
        live = engine.cache_stats()
        engine.close()
        snapshot = engine.cache_stats()
        # The snapshot freezes the last live counters (entries included, even
        # though close() cleared the cache itself) and marks itself closed.
        assert snapshot["closed"] is True
        for key in ("hits", "misses", "evictions", "entries", "answer_misses", "answer_entries"):
            assert snapshot[key] == live[key]
        assert snapshot["answer_entries"] == 1
        engine.close()  # idempotent: a second close keeps the same snapshot
        assert engine.cache_stats() == snapshot

    def test_closed_engine_reopens_on_use(self):
        db, query = self.unsafe_workload()
        engine = SproutEngine(db)
        engine.evaluate_topk(query, k=1)
        engine.close()
        assert engine.cache_stats()["closed"] is True
        # The engine resurrects on use: evaluation reopens it.
        result = engine.evaluate_topk(query, k=1)
        assert len(result.relation) == 1
        assert engine.cache_stats()["closed"] is False
        engine.close()

    def test_results_carry_no_backend(self, paper_db, paper_q):
        """Propagation has one scalar path, so nothing records a backend;
        ``backend_info`` stays constant for the bench harness that reads it."""
        with SproutEngine(paper_db) as engine:
            result = engine.evaluate(paper_q, plan="dtree")
            assert not hasattr(result, "backend")
            assert "backend" not in engine.cache_stats()
        assert backend_info() == {"backend": "python"}

    def test_importing_the_package_loads_no_numpy(self):
        """Engine, streaming and service processes never load NumPy."""
        code = (
            "import sys, repro, repro.sprout.streaming, repro.service; "
            "print('numpy' in sys.modules)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH", "")])
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


def _fingerprint(result):
    """Every deterministic field of a result (the wall-clock ones excluded)."""
    return {
        "schema": result.relation.schema.names,
        "rows": list(result.relation.rows),
        "bounds": result.bounds,
        "decided": result.decided,
        "degraded": result.degraded,
        "refine_steps": result.refine_steps,
        "delta_steps": result.delta_steps,
        "answer_rows": result.answer_rows,
        "rows_processed": result.rows_processed,
        "join_order": result.join_order,
        "plan_style": result.plan_style,
        "execution": result.execution,
        "confidence": result.confidence,
        "epsilon": result.epsilon,
        "k": result.k,
        "tau": result.tau,
    }


def _topk(engine, query, k=2):
    return _fingerprint(engine.evaluate_topk(query, k=k, plan="dtree"))


def _threshold(engine, query):
    return _fingerprint(engine.evaluate_threshold(query, tau=0.3, plan="dtree"))


def _approx(engine, query):
    return _fingerprint(engine.evaluate(query, confidence="approx", epsilon=0.01))


def _watch(engine, query):
    watch = engine.watch_topk(query, k=2)
    return {
        "result": _fingerprint(watch.result),
        "selected": watch.selected,
        "total_steps": watch.total_steps,
        "delta_steps": watch.delta_steps,
        "lineage": dict(watch.lineage),
        "probabilities": dict(watch.probabilities),
    }


#: The lineage-route calls the memo serves, each checked against the twin
#: control.  A watch keeps no engine state between requests, so it also
#: equals a brand-new engine's answer; an approximate evaluate does not —
#: the shared store keeps what it refined.
MEMO_CALLS = (_topk, _threshold, _approx, _watch)
STATELESS_CALLS = (_watch,)


def _view_counters(engine):
    stats = engine.cache_stats()
    return [stats[key] for key in ("hits", "misses", "evictions", "entries")]


def _answer_counters(engine):
    """``[answer_hits, answer_misses, answer_entries]``."""
    stats = engine.cache_stats()
    return [stats[key] for key in ("answer_hits", "answer_misses", "answer_entries")]


class TestAnswerMemo:
    """The engine's answer-lineage memo: a query the engine has answered since
    its last ``close()`` skips the relational work and nothing else.

    The control in the differential cases is a twin engine whose memo is
    emptied before every call — the engine as it was before the memo.
    """

    @pytest.mark.parametrize("cache_size", (None, 4), ids=("default_store", "tiny_store"))
    @pytest.mark.parametrize("execution", ("row", "batch"))
    @pytest.mark.parametrize("case", sorted(CORPUS))
    def test_a_hit_is_bit_identical_to_recomputing(self, case, execution, cache_size):
        """``tiny_store`` gives the store a node budget of 4, so on every
        case whose lineage outgrows it the store is wiped between calls
        while the memo keeps serving."""
        build_db, make_query = CORPUS[case]
        query = make_query()
        options = {"execution": execution}
        if cache_size is not None:
            options["dtree_cache_size"] = cache_size
        memo = SproutEngine(build_db(), **options)
        control = SproutEngine(build_db(), **options)
        with memo, control:
            for _repeat in range(3):
                for call in MEMO_CALLS:
                    control._answer_memo.clear()
                    assert call(memo, query) == call(control, query), call.__name__
                    # The view cache saw the same lookups with and without the memo.
                    assert _view_counters(memo) == _view_counters(control), call.__name__
            assert _answer_counters(memo) == [3 * len(MEMO_CALLS) - 1, 1, 1]
            assert memo.dtree_cache.store.reset_epoch == control.dtree_cache.store.reset_epoch
            for call in STATELESS_CALLS:
                with SproutEngine(build_db(), **options) as fresh:
                    assert call(memo, query) == call(fresh, query), call.__name__
            # What the memo-served store refined leaves exact values alone:
            # they are the per-tuple oracle's, bit for bit.
            exact = memo.evaluate(query, plan="dtree").confidences()
            oracle = oracle_evaluate(build_db(), make_query())
            assert exact == {data: r.probability for data, r in oracle.items()}

    def test_close_drops_the_memo_and_recompiles_cold(self):
        db, query = TestEngineInstrumentation.unsafe_workload()
        engine = SproutEngine(db)
        cold = _topk(engine, query, k=1)
        assert cold["refine_steps"] > 0  # the first call paid for the decision
        assert _topk(engine, query, k=1)["refine_steps"] == 0
        engine.close()
        assert _answer_counters(engine) == [1, 1, 1]  # the closed-engine snapshot
        assert len(engine._answer_memo) == 0
        assert _topk(engine, query, k=1) == cold
        assert _answer_counters(engine) == [0, 1, 1]
        with SproutEngine(db) as fresh:
            assert _topk(fresh, query, k=1) == cold
        engine.close()

    def test_append_join_order_and_execution_are_misses(self):
        db, query = TestEngineInstrumentation.unsafe_workload()
        with SproutEngine(db) as engine:
            engine.evaluate_topk(query, k=3)
            engine.evaluate_topk(query, k=3)
            assert _answer_counters(engine) == [1, 1, 1]
            # An explicit join order and the other execution mode are their
            # own entries, even when they produce the same answer.
            engine.evaluate_topk(query, k=3, join_order=["T", "S", "R"])
            assert _answer_counters(engine) == [1, 2, 2]
            engine.evaluate_topk(query, k=3, execution="row")
            assert _answer_counters(engine) == [1, 3, 3]
            # A new base-table row (a = 2 joins x = 0) must show up at once.
            stale = engine.evaluate_topk(query, k=3).confidences()
            assert (2,) not in stale
            variable = db.registry.fresh("R", 0.5)
            db.relation("R").append((2, 0, variable, 0.5))
            grown = engine.evaluate_topk(query, k=3)
            assert _answer_counters(engine) == [2, 4, 4]
            assert (2,) in grown.confidences()
            with SproutEngine(db) as fresh:
                expected = fresh.evaluate_topk(query, k=3)
            assert expected.confidences() == grown.confidences()
            assert expected.bounds == grown.bounds

    def test_standing_query_deltas_never_leak_into_the_memo(self):
        db, query = TestEngineInstrumentation.unsafe_workload()
        engine = SproutEngine(db)
        control = SproutEngine(db)
        with engine, control:
            before = _topk(engine, query)
            assert _topk(control, query) == before
            watch = engine.watch_topk(query, k=1)
            assert _answer_counters(engine) == [1, 1, 1]  # the watch was a hit
            watch.update_probability(next(iter(watch.probabilities)), 0.01)
            watch.delete_tuple((0,))
            watch.insert_tuple((7,), [[900, 901]], {900: 0.5, 901: 0.25})
            watch.refresh()
            assert (7,) in watch.lineage and (0,) not in watch.lineage
            # The watch copied what it was given: the engine still answers
            # from the database, and the next watch starts from it too.
            after = _topk(engine, query)
            assert after == _topk(control, query)
            assert (after["rows"], after["bounds"]) == (before["rows"], before["bounds"])
            assert _watch(engine, query) == _watch(control, query)
            # ... and its exact winners are the per-tuple oracle's, bit for bit.
            oracle = oracle_evaluate(db, query)
            for *data, confidence in after["rows"]:
                assert confidence == oracle[tuple(data)].probability

    def test_store_epoch_resets_between_repeats_stay_bit_identical(self):
        build_db, make_query = CORPUS["unsafe_proj"]
        query = make_query()
        options = {"dtree_cache_size": 4}
        memo = SproutEngine(build_db(), **options)
        control = SproutEngine(build_db(), **options)
        with memo, control:
            for _repeat in range(4):
                for call in (_topk, _threshold):
                    control._answer_memo.clear()
                    assert call(memo, query) == call(control, query), call.__name__
            # The tiny node budget really did wipe the store under the memo.
            assert memo.dtree_cache.store.reset_epoch > 0
            assert memo.dtree_cache.store.reset_epoch == control.dtree_cache.store.reset_epoch
            assert _answer_counters(memo) == [7, 1, 1]

    def test_lru_bound_holds(self):
        build_db, _ = CORPUS["single"]
        queries = [
            ConjunctiveQuery(
                "single",
                [Atom("Obs", ["sensor", "value"])],
                projection=["sensor"],
                selections=Comparison("value", "<", cut),
            )
            for cut in range(ANSWER_MEMO_ENTRIES + 8)
        ]
        with SproutEngine(build_db()) as engine:
            for query in queries:
                engine.evaluate(query, plan="dtree")
            assert _answer_counters(engine) == [0, len(queries), ANSWER_MEMO_ENTRIES]
            engine.evaluate(queries[-1], plan="dtree")  # most recent: still there
            assert _answer_counters(engine) == [1, len(queries), ANSWER_MEMO_ENTRIES]
            engine.evaluate(queries[0], plan="dtree")  # oldest: evicted
            assert _answer_counters(engine) == [1, len(queries) + 1, ANSWER_MEMO_ENTRIES]

    def test_operator_plans_are_never_memoised(self, paper_db, paper_q):
        with SproutEngine(paper_db) as engine:
            for plan in ("lazy", "eager", "hybrid", "lineage"):
                engine.evaluate(paper_q, plan=plan)
                engine.evaluate(paper_q, plan=plan)
            assert _answer_counters(engine) == [0, 0, 0]
