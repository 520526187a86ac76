"""Promotion quota analysis: equal average promotion probability for m and w.

A binding quota pi_bar = 1/2 acts like a per-promotion subsidy: the
principal screens with advantage d - nu instead of d, where nu is the
multiplier of the quota constraint. nu is zero when efforts are symmetric,
positive when m works harder, negative in the mirror case. The binding
signal is then the closed-form logit rule at nu (Matejka & McKay 2015),
pi(d) = sigmoid((d - nu)/lam), baseline_game._logit_rule at the intercept
-nu/lam, so no RI problem is solved on this path,
and nu itself is the positive root of a cubic in exp(nu/lam), taken in
closed form by baseline_game._cubic_roots: no root is searched either.
The quota keeps the impartial equilibria on the whole domain. Above
mu_hi + mu_lo = 1 it removes the discriminatory ones, except within rounding
of that line; below it, it can create them (see :func:`quota_equilibrium_set`).
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import ri_core
from .baseline_game import (
    GAIN_ALLOWANCE,
    HI,
    LO,
    GameParams,
    PromotionSignal,
    _Game,
    _cubic_roots,
    _equilibria,
    _game,
    _incentive_holds,
    _logit_rule,
    optimal_signal,
    state_distribution,
)
from ._primitives import BracketError

#: |pi_bar - 1/2| at the returned multiplier must be below this
QUOTA_TOL = 1e-9


class QuotaSolution(namedtuple("QuotaSolution", "nu signal")):
    """Multiplier nu and the signal it induces."""

    __slots__ = ()


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


def _tilt(p_minus: float, p_zero: float, p_plus: float, delta: float, lam: float) -> tuple:
    """(s, y) with nu = s + lam y the multiplier of a prior with p(1) > p(-1).

    delta = p(1) - p(-1) > 0, so nu lies in (0, 1). With r = exp(-1/lam),
    u = exp(nu/lam) and the conditionals p(-1) r/(r+u), p(0)/(1+u) and
    p(1)/(1+ru), clearing denominators turns pi_bar = 1/2 into the cubic
    r u^3 + c2 u^2 + c1 u - r = 0 with one positive root. _cubic_roots takes
    it in a variable whose root stays O(1), with coefficients built from
    e = 1 - r = -expm1(-1/lam) and delta, which carry no cancellation:

    - nu <= 1/2 (s = 0): u = 1 + e w, y = nu/lam = log1p(e w), where 1/w is
      the positive root of the reversed cubic
      c0 z^3 + c1 z^2 + e c2 z + e^2 r, c0 = -2 (1 + r) delta,
      c1 = b + delta (4 - 10e + 3e^2), c2 = b + delta (4 - 6e + e^2) and
      b = 8 r p(-1) + (1 + r)^2 p(0); w tends to nu as lam grows.
    - nu > 1/2 (s = 1, only when p(1) > 1/2): v = r u = exp(y),
      y = (nu - 1)/lam, the positive root of v^3 + k2 v^2 + k1 v - r^3,
      k2 = m - (1 - r - r^2) delta, k1 = -r (m + (1 + r - r^2) delta),
      m = 2 r p(-1) + (1 - r + r^2) p(0); as lam -> 0, v -> 2 p(1) - 1
      while u overflows and r underflows.

    The side of 1/2 is the sign of the residual at nu = 1/2. A zero there
    makes 1/2 the root (s = 1/2, y = 0), and so does a cubic without a
    positive root in floating point, which happens only where p(1) is
    within rounding of 1/2 and r underflows. One Newton step on the residual
    sum_d p(d) T(d), T(d) = tanh((d - nu)/(2 lam)), then takes y to full
    precision; it is skipped where that residual is too flat to move y by
    less than 1. The residual is written
    delta T(1) + p(0) T(0) - 4 r p(-1) sinh(x)/(1 + r^2 + 2 r cosh(x)),
    x = nu/lam, which keeps the digits of a small nu, and is evaluated in
    r e^x and expm1(-2x), so nothing overflows.
    """
    r = math.exp(-1.0 / lam)
    s = 0
    if p_plus > 0.5:
        h = 0.25 / lam
        half = p_plus * math.tanh(h) - p_zero * math.tanh(h) - p_minus * math.tanh(3.0 * h)
        if half == 0.0:
            return 0.5, 0.0
        s = int(half > 0.0)
    if s == 0:
        e = -math.expm1(-1.0 / lam)
        b = 8.0 * r * p_minus + (1.0 + r) ** 2 * p_zero
        c0 = -2.0 * (1.0 + r) * delta
        c1 = b + delta * (4.0 - 10.0 * e + 3.0 * e * e)
        c2 = b + delta * (4.0 - 6.0 * e + e * e)
        roots = _cubic_roots(c1 / c0, e * c2 / c0, e * e * r / c0)
    else:
        m = 2.0 * r * p_minus + (1.0 - r + r * r) * p_zero
        k2 = m - (1.0 - r - r * r) * delta
        roots = _cubic_roots(k2, -r * (m + (1.0 + r - r * r) * delta), -r ** 3)
    root = max(roots)  # the one positive root, if any survives rounding
    if not root > 0.0:
        return 0.5, 0.0
    y = math.log1p(e / root) if s == 0 else math.log(root)
    t_minus, t_zero, t_plus = (math.tanh(((d - s) / lam - y) / 2.0) for d in (-1, 0, 1))
    ru, em = math.exp(y + (s - 1) / lam), math.expm1(-2.0 * (y + s / lam))
    resid = delta * t_plus + p_zero * t_zero + 2.0 * p_minus * ru * em / (1.0 + r * r + ru * (2.0 + em))
    slope = (p_minus * (1.0 - t_minus**2) + p_zero * (1.0 - t_zero**2) + p_plus * (1.0 - t_plus**2)) / 2.0
    if abs(resid) < slope:
        y += resid / slope
    return s, y


def find_multiplier(params: GameParams, profile: tuple) -> QuotaSolution:
    """Multiplier nu making the average promotion probability exactly 1/2.

    Symmetric profiles need no subsidy (complementary slackness: nu = 0).
    Otherwise the binding rule has unconditional probability exactly 1/2
    and conditionals sigmoid((d - nu)/lam), so nu solves the single
    consistency equation sum_d p(d) sigmoid((d - nu)/lam) = 1/2, a cubic in
    exp(nu/lam) with one positive root. :func:`_tilt` takes nu from that
    cubic in closed form for (hi, lo), where m works (nu > 0). No root is
    searched. The returned signal is the logit rule of intercept -nu/lam,
    with pi_bar = sum_d p(d) pi(d) computed, not assumed, and checked
    against the quota to QUOTA_TOL (BracketError otherwise). (lo, hi) is
    (hi, lo) with the names swapped: its solution is exactly -nu and the
    mirror of the signal of (hi, lo), its X and Y swapped.
    """
    e_m, e_w = profile
    if e_m == e_w:
        return QuotaSolution(0.0, optimal_signal(params, profile))
    params.mu(e_m), params.mu(e_w)
    nu, signal = _quota_solution(state_distribution(params, (HI, LO)), params.delta_mu, params.lam)
    return QuotaSolution(nu, signal) if e_m == HI else QuotaSolution(-nu, signal.mirrored())


def _quota_solution(prior: tuple, delta: float, lam: float) -> QuotaSolution:
    """find_multiplier's rule for (hi, lo) at its prior (p(-1), p(0), p(1)), delta = p(1) - p(-1): the logit
    rule of intercept -nu/lam = -s/lam - y at the :func:`_tilt` (s, y)."""
    s, y = _tilt(*prior, delta, lam)
    nu, rule = s + lam * y, _logit_rule(-s / lam - y, 1.0 / lam, 1.0 / lam)
    pi_bar = prior[0] * rule.pi_minus + prior[1] * rule.pi_zero + prior[2] * rule.pi_plus
    if not abs(pi_bar - 0.5) <= QUOTA_TOL:
        raise BracketError(f"quota not met at nu={nu!r}: pi_bar={pi_bar!r}")
    return QuotaSolution(nu, rule._replace(pi_bar=pi_bar))


def quota_equilibrium_set(params: GameParams) -> list:
    """Equilibria of the game with the quota in force.

    A symmetric profile's quota signal is its optimal_signal, so its record
    equals equilibrium_set's. An asymmetric profile binds at a multiplier nu
    with 0 < |nu| < 1, and its signal has X > Y > 0 (X and Y swap for
    (lo, hi)). The shirker's gain exceeds the worker's by (mu_hi + mu_lo - 1)(X - Y), so (hi, lo) and
    (lo, hi) hold where c lies between the two. Below mu_hi + mu_lo = 1 that band is open: at
    GameParams(0.6, 0.3, 0.117, 0.5) the quota keeps (hi, lo), (lo, hi) and (lo, lo), equilibrium_set
    (lo, lo) alone. Above it the band is empty, except where both constraints hold to IC_TOL min(1, c):
    within rounding of the line (at GameParams(0.8885586675347767, 0.11144133246522533,
    0.09972474181102377, 1.9056210918215344) the quota keeps (hi, lo), (lo, hi) and (lo, lo)), or where
    lam is near lambda_star and huge (c of about 1e-12 or less), as X - Y is O(1/lam^3) and c 1/(4 lam).

    The worker's gain is at most tanh(1/(4 lam)), the slope bound: past it
    (lo, lo) is the one equilibrium, and the gate of the shared decision step
    (baseline_game._decide) keeps it alone. The shirker's gain is at least
    min(mu_hi, 1/2) tanh(1/lam)/2 (:func:`_asymmetric_open`). Where either bound already
    fails its constraint, the asymmetric profiles are out and no tilt is
    solved, so find_multiplier's QUOTA_TOL check (a BracketError) is not
    run there. Otherwise the one tilt of (hi, lo) is solved, and (lo, hi)
    is tested and valued as (hi, lo) with the names swapped, so the two are
    listed together, with the same profit, bit for bit, even where a gain
    meets c within rounding.
    """
    game = _game(params)
    return _equilibria(game, params.lam, _quota_tilted, game.c, game.c, game.costs, (1.0, 1.0))


def _asymmetric_open(c: float, lam: float, mu_hi: float) -> bool:
    """Can the shirker of (hi, lo) or (lo, hi) stay low under the quota signal at lam?

    Asked only where the worker's gain can meet c, below the slope bound that gates the
    enumeration (:func:`baseline_game._decide`). With 0 < nu < 1, X >= Y >= 0, so the shirker's
    gain is at least min(mu_hi, 1/2)(X + Y), and X + Y, the rise of sigmoid((d - nu)/lam) over a window
    of width 2, is smallest at nu = 1: tanh(1/lam)/2. That floor, less GAIN_ALLOWANCE, goes through
    _incentive_holds.
    """
    floor = min(mu_hi, 0.5) / 2.0 * math.tanh(1.0 / lam)  # tanh(1/lam)/4, bit for bit, where mu_hi >= 1/2
    return _incentive_holds(LO, floor - GAIN_ALLOWANCE, c)


def _quota_tilted(game: _Game, lam: float) -> PromotionSignal | None:
    """The quota's (hi, lo) signal at lam, or None where :func:`_asymmetric_open` rules both asymmetric profiles
    out and no tilt is solved; game.priors[1][3:] is (p(-1), p(0), p(1)) of (hi, lo)."""
    if not _asymmetric_open(game.c, lam, game.mu_hi):
        return None
    return _quota_solution(game.priors[1][3:], game.mu_hi - game.mu_lo, lam).signal

