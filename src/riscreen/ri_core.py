"""Solver for binary-action rational inattention problems on a finite state space.

A decision maker picks action 1 or action 0 after processing costly
information about an unknown state s. ``advantage[s]`` is the payoff gain
from action 1 over action 0 in state s, and information carries a price of
``lam`` utils per nat of mutual information between the state and the
action taken.

The optimal policy is a conditional action probability q(s). It is either
degenerate (q identically 0 or 1, zero information) or interior, in which
case it follows a two-point logit in the unconditional action probability
q_bar:

    q(s) = q_bar * exp(v(s)/lam) / (q_bar * exp(v(s)/lam) + 1 - q_bar)

with q_bar pinned down by consistency with the prior,
sum_s p(s) q(s) = q_bar. The consistency equation has a unique interior
root, which we locate in the log-odds b = logit(q_bar) with
:func:`find_root`, a safeguarded bracketing root finder (Brent's method)
and the package's only root search: the closed forms elsewhere search for
none, so this solver stays their independent oracle. Everything here
works in natural logarithms; information is measured in nats.

All values are immutable after construction and every function is pure, so
problems and rules can be shared freely across threads.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Sequence

from ._primitives import BracketError, ConvergenceError, _positive, _sigmoid, _Validated

ALWAYS_ACT1 = "always_act1"
ALWAYS_ACT0 = "always_act0"
INTERIOR = "interior"

#: |sum(prior) - 1| must stay below this.
PRIOR_TOL = 1e-12
#: tolerance on the q-space residual of the q_bar fixed point
RESIDUAL_TOL = 1e-10
#: default budget of residual evaluations for a root search
MAX_STEPS = 200
#: log-odds distance past -max(v/lam) and -min(v/lam) beyond which every
#: conditional is within exp(-40) of 0 or 1, so the residual is flat there
_FLAT = 40.0
#: cap on |v/lam|; a state beyond it is decided whatever q_bar is
_Z_MAX = 1e300


def _exp(z: float) -> float:
    """exp that saturates to +inf instead of raising on overflow."""
    try:
        return math.exp(z)
    except OverflowError:
        return math.inf


def _softplus(t: float) -> float:
    """log(1 + exp(t)) = -log(sigmoid(-t)), without overflow."""
    if t > 0.0:
        return t + math.log1p(math.exp(-t))
    return math.log1p(math.exp(t))


def _logsumexp(terms: list) -> float:
    """log(sum(exp(t) for t in terms)), without overflow."""
    if len(terms) == 1:
        return terms[0]
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def find_root(
    func,
    lo: float,
    hi: float,
    f_lo: float | None = None,
    f_hi: float | None = None,
    xtol: float = 0.0,
    max_evals: int = MAX_STEPS,
) -> float:
    """Root of a continuous scalar function on the bracket [lo, hi].

    Brent's method (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4): inverse quadratic or secant steps, replaced by a
    bisection step whenever they would leave the bracket or shrink it too
    slowly, so it converges at least as surely as bisection. Stops when the
    bracket around the best point x is at most 4 eps |x| + xtol wide, or
    when func hits zero exactly; xtol must be positive if the root may be 0.

    f_lo, f_hi are func(lo), func(hi) when the caller already has them;
    missing ones are evaluated here. max_evals bounds the evaluations made
    here. Raises :class:`BracketError` when the end values share a sign and
    :class:`ConvergenceError` when the budget runs out first.
    """
    evals = 0
    if f_lo is None:
        f_lo, evals = func(lo), evals + 1
    if f_hi is None:
        f_hi, evals = func(hi), evals + 1
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketError(
            f"no sign change on [{lo!r}, {hi!r}]: f = {f_lo!r} and {f_hi!r}"
        )
    # b is the best point, a the previous one, and [b, c] brackets the root
    a, fa, b, fb = lo, f_lo, hi, f_hi
    c, fc = a, fa
    step = prev_step = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            step = prev_step = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        tol = 2.0 * sys.float_info.epsilon * abs(b) + 0.5 * xtol
        half = 0.5 * (c - b)
        if abs(half) <= tol or fb == 0.0:
            return b
        if evals >= max_evals:
            raise ConvergenceError(
                f"root search out of budget after {evals} evaluations: residual "
                f"{abs(fb):.3e} at {b!r}, bracket [{min(b, c)!r}, {max(b, c)!r}]"
            )
        if abs(prev_step) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(prev_step * q)):
                prev_step, step = step, p / q
            else:
                prev_step = step = half
        else:
            prev_step = step = half
        a, fa = b, fb
        b += step if abs(step) > tol else math.copysign(tol, half)
        fb, evals = func(b), evals + 1


def neg_entropy(x: float) -> float:
    """Negative Shannon entropy x*ln(x) + (1-x)*ln(1-x) of a coin with bias x.

    Uses the continuity convention 0*ln(0) = 0, so the boundary values are 0;
    the minimum -ln(2) is attained at x = 1/2. Raises ValueError outside [0, 1].
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"probability outside [0, 1]: {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return x * math.log(x) + (1.0 - x) * math.log1p(-x)


class BinaryRIProblem(_Validated, namedtuple("BinaryRIProblem", "states prior advantage lam")):
    """A finite-state decision problem with two actions and a mutual-information cost.

    states:    ordered labels, kept only for reporting
    prior:     probability of each state, sums to one
    advantage: payoff gain of action 1 over action 0, per state
    lam:       price of information in utils per nat, positive and finite
    """

    __slots__ = ()

    def __new__(cls, states: Sequence, prior: Sequence[float], advantage: Sequence[float], lam: float):
        states = tuple(states)
        prior = tuple(float(p) for p in prior)
        advantage = tuple(float(v) for v in advantage)
        n = len(states)
        if n < 2:
            raise ValueError("need at least two states")
        if len(prior) != n or len(advantage) != n:
            raise ValueError("states, prior and advantage must have equal length")
        for p in prior:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"prior entry outside [0, 1]: {p!r}")
        if abs(sum(prior) - 1.0) > PRIOR_TOL:
            raise ValueError(f"prior sums to {sum(prior)!r}, not 1")
        for v in advantage:
            if not math.isfinite(v):
                raise ValueError(f"advantage must be finite, got {v!r}")
        return tuple.__new__(cls, (states, prior, advantage, _positive("lam", lam)))


class ChoiceRule(_Validated, namedtuple("ChoiceRule", "conditional unconditional degenerate info_cost")):
    """Solution of a :class:`BinaryRIProblem`.

    conditional:   probability of action 1 in each state
    unconditional: prior-weighted average action-1 probability (q_bar)
    degenerate:    True when the rule is constant at 0 or 1
    info_cost:     mutual information of the rule in nats (0 when degenerate)
    """

    __slots__ = ()

    def __new__(cls, conditional: Sequence[float], unconditional: float, degenerate: bool, info_cost: float):
        conditional = tuple(float(q) for q in conditional)
        for q in conditional:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"conditional outside [0, 1]: {q!r}")
        if info_cost < 0.0:
            raise ValueError("info_cost must be nonnegative")
        if degenerate and info_cost != 0.0:
            raise ValueError("degenerate rules carry zero information")
        return tuple.__new__(cls, (conditional, unconditional, degenerate, info_cost))


def mutual_information(prior: Sequence[float], rule: ChoiceRule | Sequence[float]) -> float:
    """Mutual information, in nats, between the state and the action.

    Equals sum_s p(s) h(q(s)) - h(q_bar) with h = :func:`neg_entropy` and
    q_bar the prior-weighted mean of the conditionals. Nonnegative, and zero
    exactly when all conditionals coincide.
    """
    cond = rule.conditional if isinstance(rule, ChoiceRule) else rule
    if len(cond) != len(prior):
        raise ValueError("prior and conditional must have equal length")
    q_bar = sum(p * q for p, q in zip(prior, cond))
    value = sum(p * neg_entropy(q) for p, q in zip(prior, cond)) - neg_entropy(min(max(q_bar, 0.0), 1.0))
    # clamp the tiny negative dust that floating point leaves behind
    return value if value > 0.0 else 0.0


def classify(prior: Sequence[float], z: Sequence[float]) -> str:
    """Corner or interior optimum for the scaled advantages z = v/lam.

    Action 1 is taken unconditionally when E[exp(-z)] <= 1, action 0 when
    E[exp(z)] <= 1; otherwise the optimum is interior. A problem in which
    no state of positive prior has z < 0 (or z > 0) is a corner whatever
    the moments say, since a prior summing to a hair above 1 can push them
    past 1; when no state has z of either sign, action 1 is taken.
    """
    down = up = 0.0
    neg = pos = False
    for p, zs in zip(prior, z):
        if p > 0.0:
            down += p * _exp(-zs)
            up += p * _exp(zs)
            if zs < 0.0:
                neg = True
            elif zs > 0.0:
                pos = True
    if not neg or down <= 1.0:
        return ALWAYS_ACT1
    if not pos or up <= 1.0:
        return ALWAYS_ACT0
    return INTERIOR


def _consistency_residual(pos: tuple, neg: tuple, b: float) -> float:
    """Scale-free consistency residual S(b) at the log-odds b = logit(q_bar).

    With z = v/lam, the condition sum_s p(s) sigmoid(b + z_s) = sigmoid(b)
    rearranges to

      sum_{z>0} p (1 - e^-z) sigmoid(b + z) = e^b sum_{z<0} p (1 - e^z) sigmoid(-b - z),

    and S is the log of the left side minus the log of the right:

      S(b) = -b + log sum_{z>0} p (1 - e^-z) sigmoid(b + z)
                - log sum_{z<0} p (1 - e^z) sigmoid(-b - z).

    pos and neg hold (z, log(p (1 - e^-|z|))) for the states with z > 0 and
    z < 0. S has the sign of the plain residual but stays of order one
    where that underflows, and it is constant, to rounding, outside
    [-max z - 40, -min z + 40].
    """
    up = _logsumexp([w - _softplus(-b - z) for z, w in pos])
    down = _logsumexp([w - _softplus(b + z) for z, w in neg])
    return up - down - b


def solve_binary_ri(problem: BinaryRIProblem, max_steps: int = MAX_STEPS) -> ChoiceRule:
    """Solve the problem and return the optimal :class:`ChoiceRule`.

    Degenerate problems return the corresponding constant rule at zero
    information cost. Interior problems are solved for b = logit(q_bar) by
    :func:`find_root` on the residual S of :func:`_consistency_residual`,
    with z = v/lam. S is positive below the root and negative above it, so
    its sign at b = 0 (q_bar = 1/2) gives the side of the root. The root
    lies between 0 and the kink on that side (-min z or -max z), or else at
    most 40 past the kink: S is flat beyond that point, so when rounding
    leaves no sign change even there, the rule at that point equals the
    true rule to within exp(-40). max_steps is the budget of residual
    evaluations, the two or three that build the bracket included. Raises
    :class:`ConvergenceError` when the budget runs out, or when the q-space
    residual sum_s p(s) q(s) - q_bar at the root exceeds RESIDUAL_TOL.
    """
    n = len(problem.prior)
    z = [min(max(v / problem.lam, -_Z_MAX), _Z_MAX) for v in problem.advantage]
    corner = classify(problem.prior, z)
    if corner == ALWAYS_ACT1:
        return ChoiceRule((1.0,) * n, 1.0, True, 0.0)
    if corner == ALWAYS_ACT0:
        return ChoiceRule((0.0,) * n, 0.0, True, 0.0)

    terms = [
        (zs, math.log(p) + math.log(-math.expm1(-abs(zs))))
        for p, zs in zip(problem.prior, z)
        if p > 0.0 and zs != 0.0
    ]
    pos = tuple(t for t in terms if t[0] > 0.0)
    neg = tuple(t for t in terms if t[0] < 0.0)

    def residual(b: float) -> float:
        return _consistency_residual(pos, neg, b)

    # bracket [a, b]: from 0 to the kink, else from the kink to 40 past it
    a, s_a = 0.0, residual(0.0)
    b, s_b, evals = a, s_a, 1
    if s_a != 0.0:
        b = -min(z) if s_a > 0.0 else -max(z)
        s_b, evals = residual(b), 2
        if s_b != 0.0 and (s_b > 0.0) == (s_a > 0.0):
            a, s_a = b, s_b
            b += math.copysign(_FLAT, s_a)
            s_b, evals = residual(b), 3
    if s_b != 0.0 and (s_b > 0.0) != (s_a > 0.0):
        b = find_root(residual, a, b, s_a, s_b, xtol=1e-13, max_evals=max_steps - evals)
    q_bar = _sigmoid(b)
    cond = tuple(_sigmoid(b + zs) for zs in z)
    gap = abs(sum(p * q for p, q in zip(problem.prior, cond)) - q_bar)
    if gap > RESIDUAL_TOL:
        raise ConvergenceError(
            f"consistency residual {gap:.3e} above {RESIDUAL_TOL:.1e} "
            f"at the log-odds root (lam={problem.lam!r})"
        )
    return ChoiceRule(cond, q_bar, False, mutual_information(problem.prior, cond))
