"""Reference solver for the benchmark's output checks.

Imports nothing from ``riscreen``, so the checks do not trust the code they
measure. The principal's signal is the logit fixed point of a binary
rational-inattention problem (Matejka & McKay 2015): with b = logit(q_bar)
and x(d) = v(d)/lam,

    q(d) = sigmoid(b + x(d)),   sum_d p(d) q(d) = sigmoid(b).

Dividing the consistency residual by q_bar (1 - q_bar) gives

    K(b) = sum_d p(d) (e^x - 1) / (1 + q_bar (e^x - 1)),

which is strictly decreasing in b, positive at b = -inf exactly when
E[e^x] > 1 and negative at b = +inf exactly when E[e^-x] > 1. Bisection in
b on that sign therefore finds the interior root for any finite x, however
close q_bar sits to 0 or 1. Everything else here (win probabilities by
enumeration, incentive slacks, revenue and the information bill) is written
from the model's definitions, not from its closed forms.
"""

from __future__ import annotations

import math

HI = "hi"
LO = "lo"
PROFILES = ((HI, HI), (HI, LO), (LO, HI), (LO, LO))
DIFFS = (-1, 0, 1)

#: b bracket; sigmoid(+-800) is exactly 1 or 0 in double precision
_B_EDGE = 800.0


def _sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _exp(z: float) -> float:
    try:
        return math.exp(z)
    except OverflowError:
        return math.inf


def _k_term(x: float, q: float, one_minus_q: float) -> float:
    """(e^x - 1) / (1 + q (e^x - 1)), evaluated without overflow."""
    if x > 0.0:
        e = math.exp(-x)
        return (1.0 - e) / (one_minus_q * e + q)
    e = math.exp(x)
    return (e - 1.0) / (one_minus_q + q * e)


def solve_logit(prior, advantage, lam: float) -> tuple:
    """Optimal conditional action-1 probabilities and q_bar.

    Returns ``(conditionals, q_bar)``; a corner optimum returns constant
    conditionals. Zero-probability states keep their logit conditional.
    """
    xs = [v / lam for v in advantage]
    up = sum(p * _exp(x) for p, x in zip(prior, xs))
    down = sum(p * _exp(-x) for p, x in zip(prior, xs))
    if down <= 1.0:
        return (1.0,) * len(xs), 1.0
    if up <= 1.0:
        return (0.0,) * len(xs), 0.0
    lo, hi = -_B_EDGE, _B_EDGE
    for _ in range(200):
        b = 0.5 * (lo + hi)
        q, one_minus_q = _sigmoid(b), _sigmoid(-b)
        k = sum(p * _k_term(x, q, one_minus_q) for p, x in zip(prior, xs) if p > 0.0)
        if k > 0.0:
            lo = b
        elif k < 0.0:
            hi = b
        else:
            break
        if hi - lo <= 1e-13:
            break
    b = 0.5 * (lo + hi)
    return tuple(_sigmoid(b + x) for x in xs), _sigmoid(b)


def state_probs(mu_m: float, mu_w: float) -> tuple:
    """(P(d = -1), P(d = 0), P(d = 1)) for success probabilities mu_m, mu_w."""
    p_plus = mu_m * (1.0 - mu_w)
    p_minus = mu_w * (1.0 - mu_m)
    return (p_minus, 1.0 - p_plus - p_minus, p_plus)


def mu_of(point, effort: str) -> float:
    return point.mu_hi if effort == HI else point.mu_lo


def signal(mu_m: float, mu_w: float, lam: float) -> tuple:
    """Promotion probabilities of m, (pi(-1), pi(0), pi(1)), and pi_bar."""
    cond, q_bar = solve_logit(state_probs(mu_m, mu_w), DIFFS, lam)
    return cond, q_bar


def profile_signal(point, profile: tuple, lam: float) -> tuple:
    return signal(mu_of(point, profile[0]), mu_of(point, profile[1]), lam)


def win_m(pi: tuple, mu_m: float, mu_w: float) -> float:
    """m's promotion probability at a fixed signal, by enumeration over d."""
    return sum(p * q for p, q in zip(state_probs(mu_m, mu_w), pi))


def ic_slacks(point, profile: tuple, pi: tuple, cost_m: float, cost_w: float) -> tuple:
    """Payoff margin of each agent's prescribed effort over deviating.

    Both are >= 0 exactly when the profile is an equilibrium at signal pi.
    """
    e_m, e_w = profile
    mu_w = mu_of(point, e_w)
    mu_m = mu_of(point, e_m)
    gain_m = win_m(pi, point.mu_hi, mu_w) - win_m(pi, point.mu_lo, mu_w) - cost_m
    gain_w = (1.0 - win_m(pi, mu_m, point.mu_hi)) - (1.0 - win_m(pi, mu_m, point.mu_lo)) - cost_w
    return (gain_m if e_m == HI else -gain_m, gain_w if e_w == HI else -gain_w)


def neg_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return x * math.log(x) + (1.0 - x) * math.log1p(-x)


def mutual_information(prior, cond) -> float:
    q_bar = sum(p * q for p, q in zip(prior, cond))
    return sum(p * neg_entropy(q) for p, q in zip(prior, cond)) - neg_entropy(q_bar)


def profit(point, profile: tuple, pi: tuple, lam: float) -> float:
    """Expected productivity of the promoted agent minus lam times the information bill."""
    prior = state_probs(mu_of(point, profile[0]), mu_of(point, profile[1]))
    revenue = mu_of(point, profile[1]) + sum(p * q * d for p, q, d in zip(prior, pi, DIFFS))
    return revenue - lam * mutual_information(prior, pi)


def classify(point, lam: float, cost_m: float, cost_w: float, tol: float) -> dict:
    """Each profile's status: "in" (both slacks >= tol), "out" (one < -tol) or "edge".

    Also returns each profile's reference profit, keyed by profile.
    """
    status, profits = {}, {}
    for profile in PROFILES:
        pi, _ = profile_signal(point, profile, lam)
        s_m, s_w = ic_slacks(point, profile, pi, cost_m, cost_w)
        if min(s_m, s_w) >= tol:
            status[profile] = "in"
        elif min(s_m, s_w) < -tol:
            status[profile] = "out"
        else:
            status[profile] = "edge"
        profits[profile] = profit(point, profile, pi, lam)
    return status, profits
