"""Numeric backend selection for the refinement core: NumPy or pure Python.

The columnar node table (:mod:`repro.prob.nodetable`) stores bounds in flat
``array``-module columns either way; what the backend decides is whether
whole-table per-level bound sweeps run as NumPy kernels over zero-copy
``np.frombuffer`` views or as plain Python loops (incremental ancestor passes
are a few rows a level and always plain loops).  NumPy is an *optional*
extra (``pip install .[fast]``): the import is attempted once at module load
and everything falls back to the pure-Python path when it is absent.

Both paths are bit-identical by construction — the kernels replicate the
elementwise float64 arithmetic of :func:`repro.prob.dtree.combine_bounds`
operation for operation, preserving accumulation order — so the backend is a
pure throughput choice, never a semantic one.  ``REPRO_VECTORIZE=0`` forces
the scalar path even when NumPy is installed (the CI hook for the pure-Python
leg); ``REPRO_VECTORIZE=1`` without NumPy still runs scalar (there is nothing
to vectorize with).  A malformed ``REPRO_VECTORIZE`` raises
:class:`repro.errors.ConfigurationError` like every other knob
(:mod:`repro.config` is the one shared parser) — it used to be silently
ignored, so a typo for ``false`` ran vectorized without a word.
"""

from __future__ import annotations

from typing import Optional

from repro.config import env_flag

try:  # pragma: no cover - which branch runs depends on the installed extras
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None

__all__ = ["HAS_NUMPY", "backend_info", "backend_name", "default_vectorize", "numpy_or_none"]

#: Whether the optional ``numpy`` extra is importable in this interpreter.
HAS_NUMPY = _numpy is not None


def numpy_or_none():
    """The ``numpy`` module when the ``fast`` extra is installed, else None."""
    return _numpy


def default_vectorize() -> bool:
    """Whether bound propagation should run vectorized by default.

    True exactly when NumPy is importable and ``REPRO_VECTORIZE`` does not
    say otherwise.  Read per call (not cached) so tests and CI legs can flip
    the environment variable without re-importing the package.  A malformed
    value raises :class:`repro.errors.ConfigurationError`.
    """
    flag = env_flag("REPRO_VECTORIZE")
    if flag is None:
        return HAS_NUMPY
    return flag and HAS_NUMPY


def backend_name(vectorize: Optional[bool] = None) -> str:
    """``"numpy"`` or ``"python"`` for a given (or the default) setting."""
    use = default_vectorize() if vectorize is None else (bool(vectorize) and HAS_NUMPY)
    return "numpy" if use else "python"


def backend_info() -> dict:
    """Which numeric backend the refinement core is running on.

    Returns a plain dict (stable keys, JSON-serialisable) so callers —
    benchmarks, the bench report, ``EvaluationResult`` — can record it:

    * ``backend`` — ``"numpy"`` or ``"python"``, the effective default;
    * ``numpy_available`` / ``numpy_version`` — what the import found;
    * ``vectorize_default`` — the resolved default for new engines
      (``REPRO_VECTORIZE`` folded in).
    """
    return {
        "backend": backend_name(),
        "numpy_available": HAS_NUMPY,
        "numpy_version": getattr(_numpy, "__version__", None),
        "vectorize_default": default_vectorize(),
    }
