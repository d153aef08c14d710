"""Deterministic fault injection for the chaos battery (tests only).

Robust systems are only as trustworthy as the failures they have actually
survived.  This module gives the test suite a way to *script* failures at the
seams where real ones occur — a propagation pass interrupted, a client
connection dropping mid-request, a snapshot write failing on a full disk —
and to replay the exact same failure schedule on every run.  Determinism
matters twice over: the chaos tests must not flake, and the bit-identity
contract means a retried request after a fault must land the same answer as
the no-fault run, which is only checkable when the fault itself is
reproducible.

The mechanism is deliberately tiny.  Production call sites invoke
:func:`fault_point` with a seam name; when no plan is installed (the default,
always, outside tests) that is one global read and a ``None`` check.  A test
installs a :class:`FaultPlan` — either programmatically via :func:`injected`
or through the ``REPRO_FAULTS`` environment variable, which the service
subprocess smoke uses — and the plan raises :class:`repro.errors.InjectedFault`
on the scripted 1-based call numbers of each scripted seam.

Seams (the only valid names, typo-guarded):

``store.propagate``
    Entry of :meth:`SharedLineageStore.refine_round` — before the round is
    planned or committed, so bounds stay exactly where the previous round
    left them (sound by monotonicity).
``http.read``
    Inside the service's request reader: simulates a client connection that
    dies mid-request.  The connection is dropped; the service keeps serving.
``snapshot.write``
    Inside the atomic snapshot writer, before the rename: the temp file is
    discarded and the previous snapshot survives.

``REPRO_FAULTS`` grammar (parsed per call, like every other knob)::

    seam:calls[;seam:calls...]   e.g.  "store.propagate:1,3;http.read:2"
    seed:<int>                   a seeded pseudo-random plan over all seams

A malformed spec raises :class:`repro.errors.ConfigurationError` with the
offending text, mirroring :mod:`repro.config`.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterator, Optional, Sequence

from .errors import ConfigurationError, InjectedFault

__all__ = [
    "SEAMS",
    "FaultPlan",
    "fault_point",
    "install",
    "uninstall",
    "injected",
]

SEAMS = (
    "store.propagate",
    "http.read",
    "snapshot.write",
)

_ENV_VAR = "REPRO_FAULTS"


class FaultPlan:
    """A deterministic schedule of injected failures, keyed by seam.

    ``schedule`` maps a seam name to the *1-based* call numbers that must
    raise.  Call counting is per-plan and thread-safe: the service handles
    requests on one lane thread but reads connections on the asyncio thread,
    and both may consult the same plan.
    """

    def __init__(self, schedule: Dict[str, FrozenSet[int]]):
        for seam in schedule:
            if seam not in SEAMS:
                raise ConfigurationError(
                    f"unknown fault seam {seam!r}; valid seams: {', '.join(SEAMS)}"
                )
        self.schedule = {seam: frozenset(calls) for seam, calls in schedule.items()}
        self._calls = {seam: 0 for seam in self.schedule}
        self._fired = {seam: 0 for seam in self.schedule}
        self._lock = threading.Lock()

    def check(self, seam: str) -> None:
        """Count one call at ``seam``; raise if this call number is scripted."""
        if seam not in self.schedule:
            return
        with self._lock:
            self._calls[seam] += 1
            call = self._calls[seam]
            if call in self.schedule[seam]:
                self._fired[seam] += 1
            else:
                return
        raise InjectedFault(seam, call)

    def fired(self, seam: Optional[str] = None) -> int:
        """How many scripted faults have actually raised (for test asserts)."""
        with self._lock:
            if seam is not None:
                return self._fired.get(seam, 0)
            return sum(self._fired.values())

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar; raise ConfigurationError if bad."""
        text = spec.strip()
        if not text:
            raise ConfigurationError(f"{_ENV_VAR} must not be empty when set")
        if text.startswith("seed:"):
            try:
                seed = int(text[len("seed:") :], 10)
            except ValueError:
                raise ConfigurationError(
                    f"{_ENV_VAR} seed must be an integer, got {spec!r}"
                ) from None
            return cls.seeded(seed)
        schedule: Dict[str, FrozenSet[int]] = {}
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            seam, sep, calls_text = part.partition(":")
            seam = seam.strip()
            if not sep or not calls_text.strip():
                raise ConfigurationError(
                    f"{_ENV_VAR} entries must look like 'seam:1,3', got {part!r}"
                )
            try:
                calls = frozenset(int(c.strip(), 10) for c in calls_text.split(","))
            except ValueError:
                raise ConfigurationError(
                    f"{_ENV_VAR} call numbers must be integers, got {part!r}"
                ) from None
            if any(c < 1 for c in calls):
                raise ConfigurationError(
                    f"{_ENV_VAR} call numbers are 1-based, got {part!r}"
                )
            if seam in schedule:
                calls = schedule[seam] | calls
            schedule[seam] = calls
        if not schedule:
            raise ConfigurationError(f"{_ENV_VAR} contained no seam entries: {spec!r}")
        return cls(schedule)

    @classmethod
    def seeded(
        cls,
        seed: int,
        seams: Sequence[str] = SEAMS,
        faults_per_seam: int = 1,
        window: int = 8,
    ) -> "FaultPlan":
        """A pseudo-random but fully reproducible plan: ``faults_per_seam``
        scripted calls per seam, drawn from the first ``window`` calls."""
        rng = random.Random(seed)
        schedule = {
            seam: frozenset(rng.sample(range(1, window + 1), faults_per_seam))
            for seam in seams
        }
        return cls(schedule)


# The currently installed plan.  ``None`` means fault injection is off, which
# is the permanent production state; the env variable is consulted only when
# no plan is installed programmatically, and its parse is cached per spec
# string so per-call counters survive across fault_point() calls.
_active: Optional[FaultPlan] = None
_env_cache: Optional[tuple] = None  # (raw spec, FaultPlan)


def install(plan: FaultPlan) -> None:
    """Install ``plan`` globally (tests only).  Pair with :func:`uninstall`."""
    global _active
    _active = plan


def uninstall() -> None:
    global _active
    _active = None


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager: install ``plan`` for the block, then restore."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


def _current_plan() -> Optional[FaultPlan]:
    global _env_cache
    if _active is not None:
        return _active
    spec = os.environ.get(_ENV_VAR)
    if spec is None:
        return None
    if _env_cache is not None and _env_cache[0] == spec:
        return _env_cache[1]
    plan = FaultPlan.parse(spec)
    _env_cache = (spec, plan)
    return plan


def fault_point(seam: str) -> None:
    """Consult the installed plan at ``seam``; no-op when none is installed.

    Call sites pass literal seam names; an unknown name is a programming
    error and raises immediately even with no plan installed, so a typo'd
    seam cannot silently disable its battery coverage.
    """
    if seam not in SEAMS:
        raise ConfigurationError(
            f"unknown fault seam {seam!r}; valid seams: {', '.join(SEAMS)}"
        )
    plan = _current_plan()
    if plan is not None:
        plan.check(seam)
