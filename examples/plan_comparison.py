"""Lazy vs. eager vs. hybrid vs. safe plans on a TPC-H query.

Reproduces, at example scale, the comparison of Fig. 7 / Fig. 9: the same
query evaluated with SPROUT's lazy, eager, and hybrid plans and with a
MystiQ-style safe plan, reporting the plan structure, wall-clock time, and the
number of rows each plan pushes through its operators.  The eager plan is
shaped like the safe plan (Fig. 7(a)), so its ``explain`` shows that shape.

Run with:  python examples/plan_comparison.py [scale_factor]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.safeplans import MystiqEngine
from repro.sprout import SproutEngine
from repro.tpch import probabilistic_tpch, tpch_query


def main(scale_factor: float = 0.002) -> None:
    db = probabilistic_tpch(scale_factor=scale_factor)
    engine = SproutEngine(db)
    mystiq = MystiqEngine(db, use_log_aggregation=False)

    # Query 18 is the paper's running example: customer ⋈ orders ⋈ lineitem
    # with a very selective condition on the customer.
    spec = tpch_query("18")
    query = spec.query
    print("query:", query)
    print()
    print("SPROUT plans (eager has the safe plan's shape):")
    for plan in ("eager", "hybrid", "lazy"):
        print(f"--- {plan} ---")
        print(engine.explain(query, plan=plan))
        print()

    print(f"{'plan':>8} {'time[s]':>9} {'rows processed':>15} {'distinct tuples':>16}")
    for plan in ("eager", "hybrid", "lazy"):
        result = engine.evaluate(query, plan=plan)
        print(
            f"{plan:>8} {result.total_seconds:>9.3f} {result.rows_processed:>15} "
            f"{result.distinct_tuples:>16}"
        )
    safe = mystiq.evaluate(query)
    print(
        f"{'mystiq':>8} {safe.total_seconds:>9.3f} "
        f"{safe.rows_processed:>15} {safe.distinct_tuples:>16}"
    )

    lazy = engine.evaluate(query, plan="lazy")
    agree = safe.confidences().keys() == lazy.confidences().keys()
    print()
    print("all plans agree on the answer tuples:", agree)


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.002)
