"""One shared parser for the ``REPRO_*`` environment knobs.

Every environment variable the library reads — ``REPRO_SHARED_LINEAGE``,
``REPRO_DTREE_CACHE``, the benchmark knobs — goes
through the two parsers here, so a malformed value raises the same
documented :class:`repro.errors.ConfigurationError` (a :class:`ValueError`
subclass) with the same wording no matter which call site reads it first.
Before this module each knob had its own inline parser and the behaviour
drifted: engine knobs raised ``PlanningError`` with per-knob phrasing while
another knob silently *ignored* malformed values, so a typo for ``false``
ran as the default without a word.

Both parsers re-read the environment per call (never cached) so tests and
CI legs can flip a variable without re-importing anything, and both treat
an unset or empty variable as "use the default".
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import ConfigurationError

__all__ = ["env_flag", "env_int"]

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def env_flag(name: str, default: Optional[bool] = None) -> Optional[bool]:
    """The boolean environment knob ``name``, or ``default`` when unset.

    Accepts ``1/true/yes/on`` and ``0/false/no/off`` (case-insensitive,
    surrounding whitespace ignored).  Anything else raises
    :class:`repro.errors.ConfigurationError` — a malformed flag must fail
    loudly, not silently fall back to the default.
    """
    value = os.environ.get(name, "").strip().lower()
    if not value:
        return default
    if value in _FALSE:
        return False
    if value in _TRUE:
        return True
    raise ConfigurationError(
        f"{name} must be a boolean flag "
        f"({'/'.join(_TRUE)} or {'/'.join(_FALSE)}), got {value!r}"
    )


def env_int(
    name: str,
    default: Optional[int] = None,
    minimum: Optional[int] = None,
) -> Optional[int]:
    """The integer environment knob ``name``, or ``default`` when unset.

    A non-integer value, or one below ``minimum``, raises
    :class:`repro.errors.ConfigurationError` naming the knob and the
    constraint it violated.
    """
    value = os.environ.get(name, "").strip()
    if not value:
        return default
    try:
        parsed = int(value)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer"
            + (f" >= {minimum}" if minimum is not None else "")
            + f", got {value!r}"
        ) from None
    if minimum is not None and parsed < minimum:
        raise ConfigurationError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )
    return parsed
