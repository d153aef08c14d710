"""Wall-clock deadlines for anytime degradation.

The paper's central contract — refinement holds sound lower/upper confidence
bounds at every step, so computation can stop *anywhere* and still return a
correct approximation — makes wall-clock deadlines safe: a request that runs
out of time simply stops refining and reports the bounds it holds, with
``decided: false`` and ``degraded: "deadline"``.

The one rule that keeps the determinism contract intact: a deadline is
checked **between** refinement rounds, never inside one.  A round — plan,
compute cofactors, commit, propagate — is the atomic unit of the
bit-identity contract; interrupting it mid-flight would make the refinement
trajectory depend on the clock.  Checking only at round
boundaries means the wall clock chooses a *stopping point* along the exact
same refinement trajectory every configuration walks, so any two runs that
stop at the same point hold bit-identical bounds, and a run with no deadline
(or a generous one) is bit-identical to the unlimited run.
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = ["Deadline"]


class Deadline:
    """A monotonic-clock expiry checked cooperatively at round boundaries."""

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float):
        self.expires_at = expires_at

    @classmethod
    def after_ms(cls, timeout_ms: float) -> "Deadline":
        """A deadline ``timeout_ms`` milliseconds from now (monotonic clock)."""
        return cls(time.monotonic() + timeout_ms / 1000.0)

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def remaining(self) -> float:
        """Seconds left; never negative."""
        return max(0.0, self.expires_at - time.monotonic())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


def expired(deadline: Optional[Deadline]) -> bool:
    """``True`` iff ``deadline`` is set and has passed (None-safe helper)."""
    return deadline is not None and deadline.expired()
