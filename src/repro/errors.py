"""Exception hierarchy for the SPROUT reproduction.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  The subclasses mirror the main subsystems:
schema/storage problems, query-model problems (malformed or unsupported
queries), planning problems (no valid plan of the requested kind), and
probability-computation problems.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """Raised for malformed schemas, unknown attributes, or arity mismatches."""


class StorageError(ReproError):
    """Raised by the storage layer (heap files, external sort, catalog)."""


class CatalogError(StorageError):
    """Raised when a table, key, or functional dependency lookup fails."""


class StorageCorruptionError(StorageError):
    """Raised when an on-disk page or sort-run file fails its integrity check.

    Heap-file pages and external-sort run files carry a length prefix and a
    CRC32 checksum; a truncated write, a flipped byte, or a short read is
    detected at scan time and raised as this class instead of leaking a bare
    ``json.JSONDecodeError`` or silently returning fewer rows.
    """


class SnapshotError(StorageError):
    """Raised when a service snapshot cannot be written or fails verification.

    On the read side this covers a missing/garbled magic header, a length
    mismatch (truncation), and a checksum mismatch (corruption); the service
    catches it at boot and starts cold with a structured warning.  On the
    write side it means the atomic temp-file+rename protocol failed — the
    previous snapshot, if any, is left intact.
    """


class QueryError(ReproError):
    """Raised for malformed conjunctive queries or parse errors."""


class UnsupportedQueryError(QueryError):
    """Raised when a query falls outside the supported class.

    Examples: self-joins that cannot be partitioned into mutually exclusive
    branches, or non-hierarchical queries without a hierarchical FD-reduct
    handed to an exact evaluator that requires tractability.
    """


class NonHierarchicalQueryError(UnsupportedQueryError):
    """Raised when a hierarchical query (or FD-reduct) is required but absent."""


class PlanningError(ReproError):
    """Raised when a requested plan (safe, eager, hybrid, ...) cannot be built."""


class ConfigurationError(PlanningError, ValueError):
    """Raised for malformed configuration knobs (environment variables).

    Every ``REPRO_*`` environment knob is parsed by the one shared parser in
    :mod:`repro.config`, and a malformed value raises this class everywhere —
    at engine construction, at backend selection, and at service start-up —
    with uniform wording.  It derives from both :class:`PlanningError` (the
    historical type engine construction raised for bad knobs) and the
    documented :class:`ValueError`, so both catch styles keep working.
    """


class ServiceError(ReproError):
    """Raised by the query service (:mod:`repro.service`) for request-level
    failures: malformed request bodies, unknown subscriptions, budgets
    outside the server's configured ceiling."""


class ServiceOverloadedError(ServiceError):
    """Raised when admission control rejects a request because the bounded
    refinement queue is full.  The HTTP layer maps it to ``429`` — the
    client should retry after the in-flight work drains."""


class ServiceConnectionError(ServiceError):
    """Raised by :class:`repro.service.ServiceClient` when the HTTP transport
    fails: connection refused/reset, a mid-response drop, or an unparsable
    (truncated) body.  Wraps the underlying socket error so callers deal with
    one structured type instead of raw ``OSError`` flavours; the client's
    retry policy treats it as retryable."""

    def __init__(self, message: str, cause: Optional[BaseException] = None):
        super().__init__(message)
        self.cause = cause


class InjectedFault(ReproError):
    """A scripted failure raised at a named seam by :mod:`repro.faults`.

    Only ever raised when a test installs a :class:`repro.faults.FaultPlan`
    (directly or via ``REPRO_FAULTS``); production code never sees it.  The
    chaos battery asserts that wherever one of these fires, the system
    returns a structured error or a correctly degraded answer — never a hang,
    never an unsound bound.
    """

    def __init__(self, seam: str, call: int):
        super().__init__(f"injected fault at seam {seam!r} (call #{call})")
        self.seam = seam
        self.call = call


class UnsafePlanError(PlanningError):
    """Raised when a safe plan is requested for a query that admits none."""


class ProbabilityError(ReproError):
    """Raised for invalid probabilities or failed confidence computations."""


class NumericalError(ProbabilityError):
    """Raised when a numerically fragile method (e.g. MystiQ's log-sum trick)
    fails at runtime, mirroring the runtime errors reported in Section VII."""


class ApproximationBudgetError(ProbabilityError):
    """Raised when an anytime confidence computation exhausts its step budget
    before reaching the requested error guarantee.

    Carries the best bracket obtained so far, so callers can still use the
    partial result (or hand the lineage to the Monte Carlo fallback):
    ``lower``/``upper`` bound the true probability, ``epsilon``/``relative``
    echo the requested budget, and ``steps`` counts the d-tree expansions
    performed.
    """

    def __init__(
        self,
        lower: float,
        upper: float,
        epsilon: float,
        relative: bool = False,
        steps: int = 0,
    ):
        kind = "relative" if relative else "absolute"
        super().__init__(
            f"approximation stopped after {steps} step(s) with bounds "
            f"[{lower:.6g}, {upper:.6g}], short of the {kind} budget {epsilon:.6g}"
        )
        self.lower = lower
        self.upper = upper
        self.epsilon = epsilon
        self.relative = relative
        self.steps = steps
