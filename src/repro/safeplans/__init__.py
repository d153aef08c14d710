"""Safe-plan baseline: a MystiQ-style evaluator.

The comparison system of Section VII: :mod:`repro.safeplans.mystiq`
evaluates a tractable query the way the MystiQ middleware would — along the
Dalvi–Suciu safe plan that its own hierarchy tree dictates, with
per-operator aggregation and the numerically fragile log-sum trick the
paper measures against, including its characteristic
:class:`repro.errors.NumericalError` failures.  Whether a query has such a
plan is :func:`repro.query.rewrite.is_tractable`.  SPROUT's own plans live
in :mod:`repro.sprout`; this package exists to reproduce the baseline
columns of the paper's figures (see ``docs/benchmarks.md``).
"""

from repro.safeplans.mystiq import MystiqEngine

__all__ = ["MystiqEngine"]
