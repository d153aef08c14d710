"""``unsafe_cold``: unsafe ``part ⋈ partsupp ⋈ supplier`` queries, nothing cached.

64 distinct requests sweep projection x ``ps_availqty`` cut x kind, twice per
pass in seeded order.  Every request starts from a cold lineage cache.
Lineage extraction, the d-tree compilers (``prob.dtree`` for evaluate,
``prob.sharedag`` for decisions), refinement rounds and exact finishing
dominate; the relational part is the small rest.

Two departures from the issue, both forced by time.  A fresh ``SproutEngine``
per request costs 0.27 s at SF 0.01 in table statistics alone, so 128 of
them would make a pass last 35 s: the engine is built once and
``engine.close()``, which releases the lineage cache, makes each request
cold.  And the cuts are 250-1000 instead of 1000-5000, which brings a pass
from 28 s to 2.8 s while keeping 0-190 refinement steps per request.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from harness import Workload, probe
from repro import Atom, ConjunctiveQuery
from repro.algebra import Comparison
from repro.sprout import SproutEngine
from repro.tpch import probabilistic_tpch

PROJECTIONS = (("p_brand",), ("p_type",), ("p_container",), ("p_brand", "p_size"))
CUTS = (250, 500, 750, 1000)
KINDS = ("approx", "exact", "topk", "threshold")
REPEATS = 2
K = 10
TAU = 0.5
EPSILON = 0.01


def unsafe_query(projection, cut):
    return ConjunctiveQuery(
        "unsafe_" + "_".join(projection),
        [
            Atom("part", ["partkey", *projection]),
            Atom("partsupp", ["partkey", "suppkey", "ps_availqty"]),
            Atom("supplier", ["suppkey"]),
        ],
        projection=list(projection),
        selections=Comparison("ps_availqty", "<", cut),
    )


def request(engine, query, kind):
    if kind == "approx":
        return engine.evaluate(query, confidence="approx", epsilon=EPSILON)
    if kind == "exact":
        return engine.evaluate(query)
    if kind == "topk":
        return engine.evaluate_topk(query, k=K)
    return engine.evaluate_threshold(query, tau=TAU)


class UnsafeCold(Workload):
    name = "unsafe_cold"

    def __init__(self, smoke=False):
        super().__init__(smoke)
        self.scale = 0.001 if smoke else 0.01
        self.cuts = (3000,) if smoke else CUTS
        self.engine = None

    def setup(self):
        self.db = probabilistic_tpch(self.scale, seed=7, probability_seed=11)
        self.engine = SproutEngine(self.db, execution="batch")

    def distinct_ops(self):
        return [
            (projection, cut, kind, unsafe_query(projection, cut))
            for projection in PROJECTIONS
            for cut in self.cuts
            for kind in KINDS
        ]

    def schedule(self, seed):
        ops = self.distinct_ops() * (1 if self.smoke else REPEATS)
        random.Random(seed).shuffle(ops)
        return ops

    def run_op(self, op):
        _, _, kind, query = op
        self.engine.close()  # cold: the next evaluation reopens with an empty cache
        return request(self.engine, query, kind)

    def describe(self, op):
        return {"projection": ",".join(op[0]), "cut": op[1], "kind": op[2]}

    def cross_check(self, ops, results):
        """The exact ``evaluate`` is the independent route for the other three
        kinds on the same query: approximate brackets contain its confidence,
        the top-10 is its ten best, the threshold set is its tuples >= tau."""
        groups = {}
        for (projection, cut, kind, _), result in zip(ops, results):
            if not isinstance(result, Exception):
                groups.setdefault((projection, cut), {})[kind] = result
        errors = []
        for key, kinds in groups.items():
            if "exact" not in kinds:
                continue
            exact = kinds["exact"].confidences()
            ranked = sorted(exact.items(), key=lambda item: (-item[1], repr(item[0])))
            if "approx" in kinds:
                bounds = kinds["approx"].bounds
                if bounds.keys() != exact.keys() or any(
                    not bounds[t][0] - 1e-12 <= exact[t] <= bounds[t][1] + 1e-12 for t in exact
                ):
                    errors.append(f"{key}: approximate bounds miss the exact confidence")
            if "topk" in kinds:
                found = kinds["topk"].confidences()
                expected = dict(ranked[:K])
                if found.keys() != expected.keys() or any(
                    abs(found[t] - expected[t]) > 1e-9 for t in found
                ):
                    errors.append(f"{key}: top-{K} differs from the exact evaluate's")
            if "threshold" in kinds:
                found = set(kinds["threshold"].confidences())
                if found != {t for t, conf in exact.items() if conf >= TAU}:
                    errors.append(f"{key}: threshold set differs from the exact evaluate's")
        return errors

    def replay_seconds(self, kinds, **engine_options):
        """Cold wall time of the distinct requests of ``kinds`` on an engine
        built with ``engine_options`` on top of the benchmark's own."""
        engine = SproutEngine(self.db, execution="batch", **engine_options)
        try:
            selected = [op for op in self.distinct_ops() if op[2] in kinds]
            request(engine, selected[0][3], selected[0][2])  # start pools untimed
            started = perf_counter()
            for _, _, kind, query in selected:
                engine.close()
                request(engine, query, kind)
            return perf_counter() - started
        finally:
            engine.close()

    def probes(self, recorder, ops, values, absent):
        decisions, evaluates = ("topk", "threshold"), ("approx", "exact")
        probe(
            values,
            absent,
            ["sprout.parallel.lanes2_ratio"],
            lambda: {
                "sprout.parallel.lanes2_ratio": self.replay_seconds(decisions, refine_lanes=2)
                / self.replay_seconds(decisions, refine_lanes=0)
            },
        )
        probe(
            values,
            absent,
            ["sprout.parallel.workers2_ratio"],
            lambda: {
                "sprout.parallel.workers2_ratio": self.replay_seconds(evaluates, workers=2)
                / self.replay_seconds(evaluates, workers=0)
            },
        )

        def sweep():
            engine = SproutEngine(self.db, execution="batch")
            request(engine, unsafe_query(("p_brand", "p_size"), self.cuts[-1]), "threshold")
            return sweep_metrics(engine.dtree_cache.store.table)

        probe(values, absent, SWEEP_METRICS, sweep)


SWEEP_METRICS = [
    "prob.nodetable.sweep_ms",
    "prob.nodetable.sweep_scalar_ms",
    "prob.nodetable.table_nodes",
]


def sweep_metrics(table):
    """Full propagation sweep over a refined node table, on both backends."""

    def sweep_ms(vectorize):
        samples = []
        for _ in range(5):
            started = perf_counter()
            table.refresh_all_bounds(vectorize=vectorize)
            samples.append((perf_counter() - started) * 1000.0)
        return statistics.median(samples)

    return {
        "prob.nodetable.sweep_ms": sweep_ms(True),
        "prob.nodetable.sweep_scalar_ms": sweep_ms(False),
        "prob.nodetable.table_nodes": len(table),
    }


WORKLOAD = UnsafeCold
