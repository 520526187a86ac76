"""The one logit kernel: every closed-form signal of the game is logit pi(d) = s + d/lam.

``baseline_game._logit_rule`` forms the conditionals sigmoid(s + d/lam) and
the bonuses X = pi(1) - pi(0) and Y = pi(0) - pi(-1) without cancellation.
Each is held to the 60-digit model of :mod:`exact` at a few of its own ulps,
allowing a lam moved by a few ulps (``exact.within_backward_error``) and, for
the (hi, lo) signal, an intercept moved by an ulp or two: the library
carries s as a float, and X is about e^-|s| where |s| is large, so the
rounding of s alone moves X by up to |s| ulps.
"""

import math
from decimal import Decimal

import pytest

from riscreen import HI, LO, PROFILES, GameParams, PromotionSignal, find_multiplier, mixed_equilibria, optimal_signal
from riscreen.baseline_game import _logit_rule, signal_from_odds

import exact
import helpers

FIELDS = ("pi_minus", "pi_zero", "pi_plus", "X", "Y")

#: pi(1) of the (hi, lo) signal rounded to 1.0000000000000002 here when it was A - rB over (1 - r^2) A
ABOVE_ONE = GameParams(0.9, 0.0005, 0.001, 0.10206553168417985)


def assert_near_model(signal, model, lam, shift=0.0):
    """Each conditional, X and Y of signal within backward error of model(lam, d)[field]."""
    for i, field in enumerate(FIELDS):
        value = getattr(signal, field)
        assert exact.within_backward_error(value, lambda l, d: model(l, d)[i], lam, shift), (field, signal)


def assert_odds_signal_near_model(A, B, lam, signal):
    """signal, the optimal one at odds A : B, within backward error of the model, or a corner where the
    model is one; draws where the interior-vs-corner test flips within the lam interval are left out."""
    corners = {exact.intercept(A, B, Decimal(lam) * (1 + k * Decimal(2) ** -50)) is None for k in (-1, 0, 1)}
    if corners == {True}:
        assert signal is None or signal.degenerate, signal
    elif corners == {False}:
        s = float(exact.intercept(A, B, lam))
        assert_near_model(signal, lambda l, d: exact.logit_rule(exact.intercept(A, B, l) + d, l), lam, 2 * math.ulp(s))


@helpers.draws(250, seed=42001, cases=[dict(params=ABOVE_ONE)], params=helpers.any_domain_game)
def test_optimal_signals_are_within_a_few_ulps_of_the_exact_model(params):
    with exact.digits(60):
        assert_near_model(optimal_signal(params, (HI, HI)), lambda l, d: exact.logit_rule(0, l), params.lam)
        assert_odds_signal_near_model(params.A, params.B, params.lam, optimal_signal(params, (HI, LO)))


@helpers.draws(200, seed=42005, nu_m=lambda rng: 10.0 ** rng.uniform(-6.0, 0.0),
               nu_w=lambda rng: 1.0 - 10.0 ** rng.uniform(-6.0, 0.0), lam=lambda rng: 10.0 ** rng.uniform(-4.0, 4.0))
def test_signals_at_any_odds_are_within_a_few_ulps_of_the_exact_model(nu_m, nu_w, lam):
    # the mixed and continuous-effort signals: A = nu_m (1 - nu_w) may lie far below B = nu_w (1 - nu_m)
    A, B = nu_m * (1.0 - nu_w), nu_w * (1.0 - nu_m)
    with exact.digits(60):
        assert_odds_signal_near_model(A, B, lam, signal_from_odds(A, B, lam))


@helpers.draws(2000, seed=42002, cases=[dict(params=ABOVE_ONE)], params=helpers.any_domain_game)
def test_no_conditional_lies_outside_the_unit_interval(params):
    signals = [optimal_signal(params, profile) for profile in PROFILES]
    signals += [find_multiplier(params, profile).signal for profile in PROFILES]
    signals += [eq.signal for eq in mixed_equilibria(params)]
    for signal in signals:
        assert all(0.0 <= p <= 1.0 for p in (*signal.as_tuple(), signal.pi_bar)), (params, signal)
        assert signal.X >= 0.0 and signal.Y >= 0.0, (params, signal)


@helpers.draws(20000, seed=42003, s=lambda rng: rng.uniform(-60.0, 60.0) * 10.0 ** rng.uniform(-12.0, 0.0),
               lam=lambda rng: 10.0 ** rng.uniform(-4.0, 4.0))
def test_the_bonuses_of_mirror_intercepts_swap_bit_for_bit(s, lam):
    # the game's equal slopes 1/lam, and unequal ones, which the mirror swaps
    inv = 1.0 / lam
    for a, b in ((inv, inv), (inv, 2.0 * inv)):
        rule, mirror = _logit_rule(s, a, b), _logit_rule(-s, b, a)
        assert (rule.X, rule.Y) == (mirror.Y, mirror.X), (a, b)


@helpers.draws(500, seed=42004, params=helpers.any_domain_game)
def test_a_mirrored_signal_swaps_the_stored_bonuses(params):
    hi_lo, lo_hi = optimal_signal(params, (HI, LO)), optimal_signal(params, (LO, HI))
    assert (lo_hi.X, lo_hi.Y) == (hi_lo.Y, hi_lo.X)
    assert lo_hi.as_tuple() == tuple(1.0 - p for p in reversed(hi_lo.as_tuple()))


def test_a_signal_built_without_bonuses_takes_the_differences():
    signal = optimal_signal(helpers.canonical(), (HI, LO))
    built = PromotionSignal(*signal[:4])
    assert (built.X, built.Y) == (signal.pi_plus - signal.pi_zero, signal.pi_zero - signal.pi_minus)
    assert signal.X == pytest.approx(built.X, rel=1e-14) and signal.Y == pytest.approx(built.Y, rel=1e-14)


def test_the_impartial_bonus_keeps_its_digits_at_huge_lam():
    # pi(1) - 1/2 rounds to 8.882e-16 at lam = 2.7e14; the bonus is tanh(1/(2 lam))/2 = 1/(4 lam) there
    lam = 2.7e14
    signal = optimal_signal(GameParams(0.8, 0.6, 0.07, lam), (HI, HI))
    assert signal.X == signal.Y == pytest.approx(1.0 / (4.0 * lam), rel=1e-15)


def test_the_kernel_stays_finite_where_one_over_lam_overflows():
    rule = _logit_rule(0.0, 1.0 / 1e-310, 1.0 / 1e-310)  # slopes 1/lam = inf
    assert rule == (0.0, 0.5, 1.0, 0.5, 0.5, 0.5)
    # odds 2 : 1 at r = 0: pi_bar = 2/3, X = 1 - 2/3 and Y = 2/3 - 0
    tilted = signal_from_odds(0.5, 0.25, 1e-310)
    assert (tilted.pi_minus, tilted.pi_plus) == (0.0, 1.0)
    assert (tilted.pi_zero, tilted.X, tilted.Y) == pytest.approx((2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0), rel=1e-15)


def test_odds_within_rounding_of_a_corner_give_the_corner():
    # B is an ulp above r A, so the products call the signal interior, but b = B - rA rounds to -0.0
    A, lam = 0.7661368727868479, 0.10477944722643714
    B = math.nextafter(math.exp(-1.0 / lam) * A, 1.0)
    assert signal_from_odds(A, B, lam) is None
