"""The shared closed-form signal kernel and the root isolation of mixed_equilibria.

mixed_equilibria finds the roots of each indifference condition without a
grid or a root search: in closed form on the balanced branch
(nu_m + nu_w = 1), and as the roots of a cubic in the outcome odds
rho = A/B on the two branches where one agent mixes. It is held to three
oracles written here:

* the 400-point scalar scan it replaced: every root the scan finds must be
  returned, to 1e-10 in sigma and with the same label (the scan can only
  miss roots, never invent them, so this is a lower bound on the output);
* exact arithmetic: at every returned root the indifference gap changes
  sign between sigma - 1e-9 and sigma + 1e-9, evaluated with
  fractions.Fraction at the float r = exp(-1/lam);
* a 20,000-point scan of the same gaps: the counts agree.

Near lambda_star both scans also sample the balanced gap at geometric
offsets from nu_m = 1/2, which its two roots straddle there, and refine
those roots in exact arithmetic, since rounding moves a float root of the
nearly tangent gap by up to about 3e-10.

A game on which the 400-point scan misses a pair of roots inside one grid
cell is pinned as a regression; games at lam = lambda_star and where r
underflows to 0 are explicit examples of the property test. The cubic's
roots are also held to the Brent search it replaced
(``helpers.odds_roots_by_search``) and, where the two differ, to a
60-digit root.
"""

import contextlib
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from riscreen import (
    DISCRIMINATORY,
    HI,
    IMPARTIAL,
    GameParams,
    MixedEquilibrium,
    MixedProfile,
    PromotionSignal,
    mixed_equilibria,
    optimal_signal,
    ri_core,
    variants,
)
from riscreen.baseline_game import lambda_star

import exact
import helpers

_SIGMA_EDGE = 1e-6
_IC_TOL = 1e-12


def reference_signal(params, nu_m, nu_w):
    """The optimal signal at success probabilities nu_m, nu_w by the exact kernel; None at a corner."""
    r, A, B = math.exp(-1.0 / params.lam), nu_m * (1.0 - nu_w), nu_w * (1.0 - nu_m)
    if exact.interior(A, B, r):
        pi_minus, pi_bar, pi_plus = exact.kernel(A, B, r)
        return PromotionSignal(pi_minus, pi_bar, pi_plus, pi_bar)


def branch_odds(game, branch, sigma, num=float):
    """(nu_m, nu_w, w_x, w_y) of a branch's indifference gap w_x X + w_y Y - c at sigma.

    sigma is sigma_m on the "m" and "balanced" branches and sigma_w on "w";
    num converts the game's floats (Fraction for exact arithmetic). Plain
    arithmetic, so floats, numpy arrays and Fractions all work.
    """
    mu_lo, mu_hi, delta_mu = num(game.mu_lo), num(game.mu_hi), num(game.delta_mu)
    if branch == "m":
        return mu_lo + sigma * delta_mu, mu_lo, 1 - mu_lo, mu_lo
    if branch == "w":
        return mu_hi, mu_lo + sigma * delta_mu, mu_hi, 1 - mu_hi
    nu_m = mu_lo + sigma * delta_mu
    return nu_m, 1 - nu_m, nu_m, 1 - nu_m


def gap(game, branch, sigma, num=float):
    """A branch's gap, -c where the signal is degenerate, by the exact model's
    kernel at the float r: on numpy arrays of sigma (num=float, the array
    scan, which skips the calling test where numpy is absent), or at one
    Fraction sigma in exact rational arithmetic (num=Fraction)."""
    r, c = num(math.exp(-1.0 / game.lam)), num(game.c)
    errstate = contextlib.nullcontext()
    if num is float:
        np = pytest.importorskip("numpy")
        sigma, errstate = np.asarray(sigma, dtype=float), np.errstate(divide="ignore", invalid="ignore")
    nu_m, nu_w, w_x, w_y = branch_odds(game, branch, sigma, num)
    A, B = nu_m * (1 - nu_w), nu_w * (1 - nu_m)
    with errstate:
        X, Y = exact.bonuses(A, B, r)
    value, inside = w_x * X + w_y * Y - c, exact.interior(A, B, r)
    if num is float:
        return np.where(inside, value, -c)
    return value if inside else -c


def exact_root(game, branch, sigma, width=1e-9, steps=24):
    """sigma moved to the sign change of the exact gap within sigma +- width, by
    bisection down to 2 width / 2**steps; sigma itself where there is none."""
    lo, hi = Fraction(sigma) - Fraction(width), Fraction(sigma) + Fraction(width)
    below = gap(game, branch, lo, Fraction) > 0
    if below == (gap(game, branch, hi, Fraction) > 0):
        return sigma
    for _ in range(steps):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if (gap(game, branch, mid, Fraction) > 0) == below else (lo, mid)
    return float((lo + hi) / 2)


def reference_scan(gap, lo, hi, samples, extra=()):
    """Zero samples and refined sign changes of gap on `samples` uniform points
    and `extra`: the array scan, which skips the calling test where numpy is absent."""
    np = pytest.importorskip("numpy")
    xs = np.union1d(lo + (hi - lo) * np.arange(samples) / (samples - 1), extra)
    vals = gap(xs)
    roots = []
    for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)).tolist():
        x0, x1, v0, v1 = float(xs[i]), float(xs[i + 1]), float(vals[i]), float(vals[i + 1])
        roots.append(x0 if v0 == 0.0 else ri_core.find_root(lambda x: float(gap(x)), x0, x1, v0, v1, xtol=1e-13))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def _label(sig):
    return IMPARTIAL if sig.impartial else DISCRIMINATORY


#: offsets from nu_m = 1/2 added to the balanced scan near lambda_star, where
#: its two roots straddle 1/2 closer than a uniform grid resolves; at 1e-8 the
#: gap at lam = lambda_star is still about 80 ulps of c from 0 (at the first
#: example below), so rounding makes no sign change there
_NEAR_HALF = helpers.geomspace(1e-8, 1e-3, 200)


def reference_mixed_equilibria(game, samples=400):
    """mixed_equilibria as a grid scan of each branch's gap.

    Within 1e-6 relative of lambda_star the balanced scan also samples
    nu_m = 1/2 +- _NEAR_HALF, so it resolves a root pair down to about 1e-8
    either side of 1/2. There the balanced gap is nearly tangent to 0, and its
    rounding moves a float root by up to about 3e-10, so each root is refined
    with :func:`exact_root`.
    """
    c, mu_lo, delta_mu = game.c, game.mu_lo, game.delta_mu
    found = []

    if abs(game.lam - lambda_star(game)) <= 1e-9:
        signal = optimal_signal(game, (HI, HI))
        found.append(MixedEquilibrium(MixedProfile(0.5, 0.5), signal, _label(signal)))

    if mu_lo < 0.5:
        lo = max(mu_lo, 1.0 - game.mu_hi) + 1e-9
        hi = min(game.mu_hi, 1.0 - mu_lo) - 1e-9
        if lo < hi:
            def balanced(nu_m):
                return gap(game, "balanced", (nu_m - mu_lo) / delta_mu)

            tangent = abs(game.lam / lambda_star(game) - 1.0) <= 1e-6
            near = [x for d in _NEAR_HALF for x in (0.5 - d, 0.5 + d) if lo < x < hi] if tangent else ()
            for nu_m in reference_scan(balanced, lo, hi, samples, near):
                if tangent:
                    nu_m = mu_lo + exact_root(game, "balanced", (nu_m - mu_lo) / delta_mu) * delta_mu
                sig = reference_signal(game, nu_m, 1.0 - nu_m)
                sigma_m = (nu_m - mu_lo) / delta_mu
                sigma_w = (1.0 - nu_m - mu_lo) / delta_mu
                if sig is not None and all(_SIGMA_EDGE < s < 1.0 - _SIGMA_EDGE for s in (sigma_m, sigma_w)):
                    found.append(MixedEquilibrium(MixedProfile(sigma_m, sigma_w), sig, _label(sig)))

    for sigma in reference_scan(lambda s: gap(game, "m", s), _SIGMA_EDGE, 1.0 - _SIGMA_EDGE, samples):
        nu_m = mu_lo + sigma * delta_mu
        sig = reference_signal(game, nu_m, mu_lo)
        if sig is not None and nu_m * sig.X + (1.0 - nu_m) * sig.Y <= c + _IC_TOL * min(1.0, c):
            found.append(MixedEquilibrium(MixedProfile(sigma, 0.0), sig, _label(sig)))

    for sigma in reference_scan(lambda s: gap(game, "w", s), _SIGMA_EDGE, 1.0 - _SIGMA_EDGE, samples):
        nu_w = mu_lo + sigma * delta_mu
        sig = reference_signal(game, game.mu_hi, nu_w)
        if sig is not None and (1.0 - nu_w) * sig.X + nu_w * sig.Y >= c - _IC_TOL * min(1.0, c):
            found.append(MixedEquilibrium(MixedProfile(1.0, sigma), sig, _label(sig)))

    return found


def branch_of(eq):
    p = eq.profile
    return "m" if p.sigma_w == 0.0 else "w" if p.sigma_m == 1.0 else "balanced"


def check_against_oracles(game):
    """Assert the three oracles of the module docstring; return the equilibria."""
    got = mixed_equilibria(game)
    for want in reference_mixed_equilibria(game):
        assert any(
            eq.classification == want.classification
            and abs(eq.profile.sigma_m - want.profile.sigma_m) <= 1e-10
            and abs(eq.profile.sigma_w - want.profile.sigma_w) <= 1e-10
            for eq in got
        ), (game, want, got)
    step = Fraction(1, 10**9)
    order = []
    for eq in got:
        if eq.profile == MixedProfile(0.5, 0.5) and abs(game.lam - lambda_star(game)) <= 1e-9:
            continue  # the representative of the symmetric family, not a root
        branch = branch_of(eq)
        sigma = eq.profile.sigma_w if branch == "w" else eq.profile.sigma_m
        below = gap(game, branch, Fraction(sigma) - step, Fraction)
        above = gap(game, branch, Fraction(sigma) + step, Fraction)
        assert below * above <= 0, (game, eq, float(below), float(above))
        order.append((("balanced", "m", "w").index(branch), sigma))
    assert order == sorted(order), (game, got)  # the scan's order: by branch, then sigma
    assert len(got) == len(reference_mixed_equilibria(game, samples=20_000)), (game, got)
    return got


@helpers.draws(
    200,
    seed=31015,
    cases=[
        # lam = lambda_star: u = 2, the balanced gap only touches 0 at nu = 1/2
        dict(game=GameParams(0.75, 0.25, 0.08275317458487116, 1.453635679629572)),
        # exp(-1/lam) underflows to 0 (lam below about 1/745): the quartic's u is 1/k
        dict(game=GameParams(0.889626626266012, 0.08700055843059516, 0.1718723373731984, 0.00015899821749638233)),
        # m's indifference has two roots, split at the critical point of the cubic
        dict(game=GameParams(0.9368641636882881, 0.6938578056329902, 0.07941401136421603, 0.6495333980073986)),
        # 3.4e-11 below lambda_star: the balanced roots lie 1.5e-6 either side of sigma = 1/2
        dict(game=GameParams(0.75, 0.25, 0.125, 0.9102392265930936)),
        # 5.9e-11 below lambda_star at r = 0.954 and near it at r = 0.79: a u - 2 formed by
        # subtraction put the balanced sigma 2.8e-10 and 1.8e-10 off
        dict(game=GameParams(0.75, 0.25, 0.005859375, 21.32942650971451)),
        dict(game=GameParams(0.5010808493470605, 0.3179167529378243, 0.01066504072394105, 4.2740833939723055)),
        # 1.4e-13 below lambda_star at r = 0.029 (2c >= 1/2): an e - 2c(1 + r) formed by
        # subtraction put the balanced sigma 5.3e-10 off
        dict(game=GameParams(0.7182399803446649, 0.4931375835895383, 0.10626623731596745, 0.2816839431148405)),
    ],
    game=helpers.near_star_game,
)
def test_mixed_equilibria_match_scalar_scan(game):
    check_against_oracles(game)


def test_mixed_equilibria_match_scalar_scan_on_mixing_games():
    # a fixed set that finds equilibria on all three branches
    branches = set()

    @helpers.draws(
        40,
        seed=33015,
        mu_lo=lambda rng: rng.uniform(0.1, 0.9),
        hi_frac=lambda rng: rng.random(),
        cost_frac=lambda rng: rng.uniform(0.2, 0.9),
        lam_factor=lambda rng: rng.uniform(0.5, 2.0),
    )
    def check(mu_lo, hi_frac, cost_frac, lam_factor):
        # mu_hi uniform in [mu_lo + 0.05, 0.99], c = cost_frac / 2, lam = lambda_star times lam_factor
        mu_hi = mu_lo + 0.05 + hi_frac * (0.94 - mu_lo)
        cost = cost_frac * 0.5 * (mu_hi - mu_lo)
        lam = lambda_star(GameParams(mu_hi, mu_lo, cost, 1.0)) * lam_factor
        branches.update(branch_of(eq) for eq in check_against_oracles(GameParams(mu_hi, mu_lo, cost, lam)))

    check()
    assert branches == {"m", "w", "balanced"}


# at lam near 7,600 the balanced roots lie 1e-4 apart in sigma, inside one
# cell of the 400-point scan, which therefore reports only the w branch
SCAN_CELL_PAIR = GameParams(0.6236792197440802, 0.3199750795940246, 7.382364218763797e-07, 7597.416805125792)


def test_pair_inside_one_scan_cell_is_found():
    got = mixed_equilibria(SCAN_CELL_PAIR)
    assert [branch_of(eq) for eq in got] == ["balanced", "balanced", "w"]
    (a, b), (c, d) = [(eq.profile.sigma_m, eq.profile.sigma_w) for eq in got[:2]]
    assert math.isclose(a, d, rel_tol=1e-12) and math.isclose(b, c, rel_tol=1e-12)
    assert round(a, 5) == 0.59271 and round(b, 5) == 0.59282
    assert round(got[2].profile.sigma_w, 5) == 0.9999


def test_pair_inside_one_scan_cell_meets_the_oracles():
    check_against_oracles(SCAN_CELL_PAIR)
    assert len(reference_mixed_equilibria(SCAN_CELL_PAIR)) == 1


# the two traps of the closed-form cubic: at large lam (r near 1) the expanded
# coefficients put the root 2.5e-11 off; at r = 6.5e-290 the monic cubic's roots
# span more than the float range; and r = exp(-1/lam) underflowing to 0
LARGE_LAMBDA = GameParams(0.5625, 0.501953125, 0.00070953369140625, 21.32942651096404)
TINY_R = GameParams(0.9360937099164971, 0.6245296784819083, 0.03907889662273058, 0.0015017652823926325)
ZERO_R = GameParams(0.8, 0.3, 0.2, 1e-3)


@pytest.mark.parametrize("game", [LARGE_LAMBDA, TINY_R, ZERO_R])
def test_cubic_traps_match_scalar_scan(game):
    check_against_oracles(game)


def odds_roots_calls(game):
    """mixed_equilibria(game), and (arguments, roots) of each _odds_roots call it made."""
    calls = []
    real = variants._odds_roots

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variants, "_odds_roots", spy)
        return mixed_equilibria(game), calls


@helpers.draws(
    300,
    seed=31016,
    cases=[dict(game=LARGE_LAMBDA), dict(game=TINY_R), dict(game=ZERO_R)],
    game=helpers.edge_game,
)
def test_odds_roots_match_the_root_search(game):
    # the closed form and the Brent search it replaced find the same roots,
    # to 1e-12 relative, or the closed form's is the nearer to a 60-digit root
    found, calls = odds_roots_calls(game)
    for args, got in calls:
        want = helpers.odds_roots_by_search(*args)
        assert len(got) == len(want), (game, args, got, want)
        for a, b in zip(got, want):
            if abs(a - b) > 1e-12 * b:
                with exact.digits(60):
                    root = exact.odds_root(*args[:4], b)
                bound = max(abs(Decimal(b) - root), Decimal(1e-12) * root)
                assert abs(Decimal(a) - root) <= bound, (game, args, a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variants, "_odds_roots", helpers.odds_roots_by_search)
        assert len(mixed_equilibria(game)) == len(found)


@helpers.draws(200, seed=31017, game=lambda rng: rng.choice((helpers.domain_game, helpers.edge_game))(rng))
def test_mixed_equilibria_return_on_domain_and_edge_games(game):
    mixed_equilibria(game)
