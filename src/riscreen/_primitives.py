"""What the RI oracle and the closed forms share: the two error types, the
positivity rule and the validating record mixin.

A leaf that imports only ``math``: :mod:`riscreen.ri_core` takes these from
here and nothing else from riscreen, so it stays the closed forms'
independent oracle, and a command that never calls the oracle never runs
its body. ``ri_core`` and ``baseline_game`` re-export the errors, so
``riscreen.X``, ``ri_core.X`` and ``baseline_game.X`` are one object.
"""

import math


class ConvergenceError(RuntimeError):
    """A root search ran out of budget; the message reports the residual."""


class BracketError(RuntimeError):
    """A root search found no sign change to bracket, or a quota was not met.

    ``ri_core.find_root`` raises it when the end values share a sign, and
    ``quota_policy._quota_solution``, which solves the quota's tilt in closed
    form and searches no root, when its rule misses pi_bar = 1/2 by more than
    ``QUOTA_TOL``.
    """


def _positive(name: str, value: float) -> float:
    """value itself, if it is positive and finite: the rule of every lam and every positive model parameter."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


class _Validated:
    """Mixin for a named-tuple record whose ``__new__`` validates: ``_replace`` goes through it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
