"""The regime map on every game: the cutpoints predict every equilibrium set.

As a function of lam, equilibrium_set lists (hi, hi) for lam <= lambda_star,
(hi, lo) and (lo, hi) for lambda_low <= lam <= lambda_high, and (lo, lo) for
lam >= lambda_star; quota_equilibrium_set lists the impartial ones, and (hi, lo)
and (lo, hi) only where the quota signal's worker's gain is at least c and its
shirker's at most c, which needs mu_hi + mu_lo < 1 or rounding.
Games are drawn with c = cost_C / delta_mu down to 1e-16 times the
regularity bound mu_hi (1 - mu_hi)/(A + B), and lam at random or next to a
cutpoint, within a few ulps of it or up to a factor e either side. Past
assumption 1 the map is the same: where mu_hi + mu_lo < 1, X_low > X_high, so
lambda_low > lambda_high and no lam lists (hi, lo); where c is past the
regularity bound, a bonus bound the (hi, lo) bonus never reaches has its
cutpoint at 0. The quota is tested on both kinds of game past assumption 1.

The knife band: a constraint holds to IC_TOL min(1, c), so where the exact
gain of a profile's signal (the 60-digit model of :mod:`exact`) lies within
2 IC_TOL min(1, c) of c, rounding may list the profile or not, and the draw
is left out. Outside the band the library's gains, a few ulps from the
model, decide as the model does. For the quota the band also holds where an
asymmetric constraint meets c to 2 IC_TOL min(1, c) in the model and the
other is in the band too or holds: the quota's near-equal gains allow both at
tiny c.
"""

import math
import random
from decimal import Decimal

from riscreen import HI, LO, GameParams, equilibrium_set, find_multiplier, quota_equilibrium_set, thresholds
from riscreen.baseline_game import IC_TOL

import exact
import helpers

#: c = 9.143e-16 and the impartial bonus tanh(1/(2 lam))/2 = 9.259e-16 > c: (hi, hi) alone, though
#: pi(1) - 1/2 rounds to 8.882e-16 < c
HUGE_LAM = GameParams(0.9999999952221139, 0.2516413759674337, 6.842489891370814e-16, 2.7e14)


def regular_game(rng: random.Random) -> GameParams:
    """mu_hi in [0.52, 0.97], mu_lo in [max(1 - mu_hi + 0.01, 0.05), mu_hi - 0.01], c log-uniform
    in [1e-16, 0.98] times the regularity bound, and lam as :func:`near_cutpoint` draws it."""
    mu_hi = rng.uniform(0.52, 0.97)
    return at_cost(rng, mu_hi, rng.uniform(max(1.0 - mu_hi + 0.01, 0.05), mu_hi - 0.01), -16.0, math.log10(0.98))


def sum_below_one_game(rng: random.Random) -> GameParams:
    """Past assumption 1 by mu_hi + mu_lo < 1: mu_hi in [0.05, 0.95], mu_lo in
    [0.01, min(mu_hi, 1 - mu_hi) - 0.01], and c and lam as in :func:`regular_game`."""
    mu_hi = rng.uniform(0.05, 0.95)
    return at_cost(rng, mu_hi, rng.uniform(0.01, min(mu_hi, 1.0 - mu_hi) - 0.01), -16.0, math.log10(0.98))


def costly_game(rng: random.Random) -> GameParams:
    """Past assumption 1 by its cost: mu as in :func:`regular_game`, c log-uniform in [1, 10] times
    the regularity bound, and lam as :func:`near_cutpoint` draws it. lambda_low is 0 there, as the (hi, lo)
    bonus is below X_high at every lam, and so is lambda_high once X_low reaches the bonus's cap too."""
    mu_hi = rng.uniform(0.52, 0.97)
    return at_cost(rng, mu_hi, rng.uniform(max(1.0 - mu_hi + 0.01, 0.05), mu_hi - 0.01), 0.0, 1.0)


def at_cost(rng: random.Random, mu_hi: float, mu_lo: float, lo: float, hi: float) -> GameParams:
    """The game of mu_hi and mu_lo with c 10^[lo, hi] times the regularity bound mu_hi (1 - mu_hi)/(A + B),
    at a lam from :func:`near_cutpoint`."""
    probe = GameParams(mu_hi, mu_lo, 1.0, 1.0)
    bound = mu_hi * (1.0 - mu_hi) / (probe.A + probe.B)
    return near_cutpoint(rng, probe._replace(cost_C=bound * 10.0 ** rng.uniform(lo, hi) * probe.delta_mu))


def near_cutpoint(rng: random.Random, game: GameParams) -> GameParams:
    """game at a lam that is one of: log-uniform in [1e-4, 1e4]; a cutpoint (lambda_star, lambda_low,
    lambda_high or lambda_breve) moved by up to 64 ulps; or a cutpoint times exp([-1, 1]) or
    1 + [-1e-9, 1e-9]. A cutpoint of 0 or inf gives the log-uniform lam."""
    cuts = thresholds(game)
    cut = rng.choice((cuts.lambda_star, cuts.lambda_low, cuts.lambda_high, cuts.lambda_breve))
    mode = rng.choice(("random", "ulps", "factor", "near"))
    if mode == "random" or not 0.0 < cut < math.inf:
        lam = 10.0 ** rng.uniform(-4.0, 4.0)
    elif mode == "ulps":
        lam = cut + rng.randint(-64, 64) * math.ulp(cut)
    elif mode == "factor":
        lam = cut * math.exp(rng.uniform(-1.0, 1.0))
    else:
        lam = cut * (1.0 + rng.uniform(-1e-9, 1e-9))
    return game._replace(lam=lam)


def in_band(game, profile, intercept, shift=0.0):
    """Whether m's and whether w's gain of the profile's logit rule meets c within the knife band: within
    2 IC_TOL min(1, c) of c, or on both sides of it, in the 60-digit model at some lam within 8 ulps of
    game.lam and some intercept within shift of intercept(lam) (None: a corner, where both gains are 0)."""
    c = Decimal(game.c)
    tol, step = 2 * Decimal(IC_TOL) * Decimal(min(1.0, game.c)), 8 * Decimal(math.ulp(game.lam))
    mu_m, mu_w = (Decimal(game.mu(e)) for e in profile)
    gaps = [], []
    for lam in (Decimal(game.lam) + k * step for k in (-1, 0, 1)):
        s = intercept(lam)
        for d in (-Decimal(shift), Decimal(0), Decimal(shift)):
            X, Y = exact.logit_rule(s + d, lam)[3:] if s is not None else (0, 0)
            gaps[0].append((1 - mu_w) * X + mu_w * Y - c)
            gaps[1].append(mu_m * X + (1 - mu_m) * Y - c)
    return tuple(min(g) <= tol and max(g) >= -tol for g in gaps)


def predicted(game, cuts):
    """The profiles the cutpoints predict for equilibrium_set, in PROFILES order."""
    lam, out = game.lam, []
    if lam <= cuts.lambda_star:
        out.append((HI, HI))
    if cuts.lambda_low <= lam <= cuts.lambda_high:
        out += [(HI, LO), (LO, HI)]
    if lam >= cuts.lambda_star:
        out.append((LO, LO))
    return out


@helpers.draws(600, seed=42101, cases=[dict(game=HUGE_LAM)], game=regular_game)
def test_the_enumeration_matches_the_cutpoints_outside_the_knife_band(game):
    check_enumeration(game)


@helpers.draws(300, seed=45101, below=sum_below_one_game, costly=costly_game)
def test_the_enumeration_matches_the_cutpoints_past_assumption_1(below, costly):
    for game in (below, costly):
        assert not game.assumption1, game
        check_enumeration(game)


def check_enumeration(game):
    """equilibrium_set(game) is the cutpoints' prediction, unless a gain is in the knife band."""
    with exact.digits(60):
        s = exact.intercept(game.A, game.B, game.lam)
        shift = 2 * math.ulp(float(s)) if s is not None else 0.0
        if any(in_band(game, (HI, HI), lambda lam: 0) + in_band(
                game, (HI, LO), lambda lam: exact.intercept(game.A, game.B, lam), shift)):
            return
    cuts = thresholds(game)
    assert [r.profile for r in equilibrium_set(game)] == predicted(game, cuts), (game, cuts)


@helpers.draws(200, seed=42102, cases=[dict(game=HUGE_LAM)], game=regular_game)
def test_the_quota_keeps_the_impartial_cutpoint_outside_the_knife_band(game):
    check_quota(game)


@helpers.draws(200, seed=45102, game=costly_game)
def test_the_quota_keeps_the_impartial_cutpoint_past_the_regularity_bound(game):
    assert not game.assumption1 and game.mu_hi + game.mu_lo > 1.0, game
    check_quota(game)


@helpers.draws(200, seed=45103, cases=[dict(game=GameParams(0.6, 0.3, 0.117, 0.5))], game=sum_below_one_game)
def test_the_quota_adds_the_asymmetric_pair_below_the_line(game):
    assert not game.assumption1 and game.mu_hi + game.mu_lo < 1.0, game
    check_quota(game)


def check_quota(game):
    """quota_equilibrium_set(game) is the impartial record the cutpoints predict, with (hi, lo) and (lo, hi)
    where the 60-digit worker's gain of the quota signal is at least c and the shirker's at most c, unless
    the outcome turns on a gain in the knife band."""
    nu = find_multiplier(game, (HI, LO)).nu
    with exact.digits(60):
        def intercept(lam):
            return -exact.quota_multiplier(game.mu_hi, game.mu_lo, lam, nu) / lam

        X, Y = exact.logit_rule(intercept(Decimal(game.lam)), game.lam)[3:]
        mu_hi, mu_lo, c = Decimal(game.mu_hi), Decimal(game.mu_lo), Decimal(game.c)
        held = ((1 - mu_lo) * X + mu_lo * Y >= c, mu_hi * X + (1 - mu_hi) * Y <= c)
        near = in_band(game, (HI, LO), intercept, 4 * math.ulp(nu / game.lam))
        if any(in_band(game, (HI, HI), lambda lam: 0)) or (any(near) and all(a or b for a, b in zip(near, held))):
            return
    asymmetric = [(HI, LO), (LO, HI)] if all(held) else []
    want = [(HI, HI), *asymmetric] if game.lam <= thresholds(game).lambda_star else [*asymmetric, (LO, LO)]
    assert [r.profile for r in quota_equilibrium_set(game)] == want, game


def test_the_huge_lam_game_lists_only_high_effort():
    assert [r.profile for r in equilibrium_set(HUGE_LAM)] == [(HI, HI)]
