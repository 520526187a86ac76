"""Promotion quota analysis: equal average promotion probability for m and w.

A binding quota pi_bar = 1/2 acts like a per-promotion subsidy: the
principal screens with advantage d - nu instead of d, where nu is the
multiplier of the quota constraint. nu is zero when efforts are symmetric,
positive when m works harder, negative in the mirror case. The binding
signal is then the closed-form logit rule at nu (Matejka & McKay 2015),
pi(d) = sigmoid((d - nu)/lam), so no RI problem is solved on this path.
The quota kills exactly the discriminatory equilibria and leaves the
impartial ones alone.
"""

from __future__ import annotations

from typing import NamedTuple

from . import ri_core
from .baseline_game import (
    PROFILES,
    BracketError,
    GameParams,
    PromotionSignal,
    evaluate,
    optimal_signal,
    state_distribution,
    supports_profile,
)

#: |pi_bar - 1/2| at the returned multiplier must be below this
QUOTA_TOL = 1e-9


class QuotaSolution(NamedTuple):
    """Multiplier nu and the signal it induces."""

    nu: float
    signal: PromotionSignal


def subsidized_signal(params: GameParams, profile: tuple, nu: float) -> PromotionSignal:
    """Optimal signal when promoting m is taxed by nu (advantage d - nu)."""
    problem = ri_core.BinaryRIProblem(
        states=(-1, 0, 1),
        prior=state_distribution(params, profile),
        advantage=(-1.0 - nu, -nu, 1.0 - nu),
        lam=params.lam,
    )
    rule = ri_core.solve_binary_ri(problem)
    q = rule.conditional
    return PromotionSignal(q[0], q[1], q[2], rule.unconditional)


def _binding_rule(prior: tuple, lam: float, nu: float) -> tuple:
    """Conditionals sigmoid((d - nu)/lam) for d = -1, 0, 1, and their average.

    The average is taken under prior = (p(-1), p(0), p(1)); it is the
    pi_bar of the taxed logit rule, 1/2 when nu is the quota multiplier.
    """
    q = tuple(ri_core._sigmoid((d - nu) / lam) for d in (-1.0, 0.0, 1.0))
    return q, sum(p * qd for p, qd in zip(prior, q))


def find_multiplier(params: GameParams, profile: tuple) -> QuotaSolution:
    """Multiplier nu making the average promotion probability exactly 1/2.

    Symmetric profiles need no subsidy (complementary slackness: nu = 0).
    Otherwise the binding rule has unconditional probability exactly 1/2
    and conditionals sigmoid((d - nu)/lam), so nu solves the single
    consistency equation sum_d p(d) sigmoid((d - nu)/lam) = 1/2, whose left
    side is strictly decreasing in nu. It is found with
    :func:`ri_core.find_root` on [-1, 1]: every d - nu is >= 0 at nu = -1
    and <= 0 at nu = 1, so the residual changes sign on that bracket. The
    returned signal is the closed-form logit rule at nu,
    pi(d) = sigmoid((d - nu)/lam), with pi_bar = sum_d p(d) pi(d) computed,
    not assumed, and checked against the quota to QUOTA_TOL.
    """
    e_m, e_w = profile
    if e_m == e_w:
        return QuotaSolution(0.0, optimal_signal(params, profile))
    prior = state_distribution(params, profile)
    nu = ri_core.find_root(
        lambda nu: _binding_rule(prior, params.lam, nu)[1] - 0.5, -1.0, 1.0, xtol=1e-15
    )
    q, pi_bar = _binding_rule(prior, params.lam, nu)
    if abs(pi_bar - 0.5) > QUOTA_TOL:
        raise BracketError(f"quota not met at nu={nu!r}: pi_bar={pi_bar!r}")
    return QuotaSolution(nu, PromotionSignal(*q, pi_bar))


def quota_equilibrium_set(params: GameParams) -> list:
    """Equilibria of the game with the quota in force.

    Coincides with the impartial equilibria of the unconstrained game: a
    quota-constrained signal for an asymmetric profile has X > Y > 0, and
    with mu_hi + mu_lo > 1 such a signal cannot satisfy the worker's and the
    shirker's incentive constraints at once. The case mu_hi + mu_lo <= 1 is
    not characterized and is refused. A symmetric profile's quota signal is
    its optimal_signal, so its record equals equilibrium_set's.
    """
    if not params.mu_hi + params.mu_lo > 1.0:
        raise ValueError(
            "quota analysis requires mu_hi + mu_lo > 1 "
            f"(got {params.mu_hi + params.mu_lo!r})"
        )
    found = []
    for profile in PROFILES:
        solution = find_multiplier(params, profile)
        if supports_profile(params, solution.signal, profile):
            found.append(evaluate(params, profile, solution.signal))
    return found

