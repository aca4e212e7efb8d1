"""Validated ``REPRO_*`` environment-variable parsing, in one place.

Every runtime knob the library reads from the environment —
``REPRO_WORKERS``, ``REPRO_CONNECT_RETRY``, ``REPRO_MAX_FRAME_BYTES``,
``REPRO_BACKEND`` and the ``REPRO_SERVICE_*`` family — is parsed
through the helpers below, so a bad value always fails the same way: a
``ConfigError`` (a ``ValueError``) whose message leads with the
variable name, states the expected shape, and quotes the offending
raw string::

    REPRO_WORKERS must be an integer >= 0, got 'many'

The helpers return ``None`` for unset/blank variables (the caller owns
the default), never silently coerce, and never read anything but the
named variable — so call sites stay declarative one-liners and the
error format can never drift between subsystems.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

class ConfigError(ValueError):
    """An environment variable held an invalid value.

    A ``ValueError`` subclass so existing ``except ValueError`` /
    ``pytest.raises(ValueError)`` call sites keep working.
    """


def env_raw(name: str) -> Optional[str]:
    """The stripped value of ``name``, or ``None`` when unset/blank."""
    raw = os.environ.get(name, "").strip()
    return raw or None


def _fail(name: str, expected: str, raw: str) -> ConfigError:
    return ConfigError(f"{name} must be {expected}, got {raw!r}")


def env_int(name: str, *, minimum: Optional[int] = None) -> Optional[int]:
    """Parse an integer variable, or ``None`` when unset/blank.

    ``minimum`` folds the range rule into the one error message, e.g.
    ``REPRO_MAX_FRAME_BYTES must be an integer >= 1, got '0'``.
    """
    raw = env_raw(name)
    if raw is None:
        return None
    expected = "an integer" if minimum is None else f"an integer >= {minimum}"
    try:
        value = int(raw)
    except ValueError:
        raise _fail(name, expected, raw) from None
    if minimum is not None and value < minimum:
        raise _fail(name, expected, raw)
    return value


def env_float(
    name: str,
    *,
    minimum: Optional[float] = None,
    positive: bool = False,
) -> Optional[float]:
    """Parse a float variable, or ``None`` when unset/blank.

    ``minimum`` enforces an inclusive lower bound, ``positive`` a
    strict ``> 0`` one; NaN is always rejected.
    """
    raw = env_raw(name)
    if raw is None:
        return None
    if positive:
        expected = "a number > 0"
    elif minimum is not None:
        expected = f"a number >= {minimum:g}"
    else:
        expected = "a number"
    try:
        value = float(raw)
    except ValueError:
        raise _fail(name, expected, raw) from None
    if value != value:  # NaN
        raise _fail(name, expected, raw)
    if positive and not value > 0.0:
        raise _fail(name, expected, raw)
    if minimum is not None and value < minimum:
        raise _fail(name, expected, raw)
    return value


def env_str(
    name: str, *, choices: Optional[Sequence[str]] = None
) -> Optional[str]:
    """Parse a string variable, optionally validated against ``choices``."""
    raw = env_raw(name)
    if raw is None:
        return None
    if choices is not None and raw not in choices:
        raise _fail(name, f"one of {tuple(choices)}", raw)
    return raw


__all__ = [
    "ConfigError",
    "env_raw",
    "env_int",
    "env_float",
    "env_str",
]
