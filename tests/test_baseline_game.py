"""Tests for the closed-form promotion game analysis."""

import math
import random
from decimal import Decimal

import pytest

from riscreen import (
    AGENT_M,
    AGENT_W,
    DISCRIMINATORY,
    HI,
    IMPARTIAL,
    LO,
    PROFILES,
    GameParams,
    bind_high_effort,
    equilibrium_set,
    evaluate,
    f_func,
    f_inverse,
    find_multiplier,
    g_func,
    g_inverse,
    incentive_gain,
    most_profitable,
    optimal_signal,
    profit,
    ri_core,
    state_distribution,
    thresholds,
    welfare_ordering,
)
from riscreen.baseline_game import (
    IC_TOL,
    _cubic_roots,
    _profile_prior,
    _supports,
    most_profitable_among,
    signal_oracle_residual,
    supports_profile,
)

import exact
import helpers

GAME = helpers.canonical()

# frozen outputs at (mu_hi, mu_lo, C, lam) = (.8, .6, .07, .3)
TABLE1 = (0.093977614213083, 0.744088048450016, 0.987879461288866)
LAM_STAR = 0.576501436392967
LAM_LOW = 0.227906268271863
LAM_HIGH = 0.483555215271755
LAM_BREVE = 1.019545447823266
EPS = 2.0**-52


class TestGameParams:
    def test_derived_constants(self):
        assert GAME.delta_mu == pytest.approx(0.2)
        assert GAME.c == pytest.approx(0.35)
        assert GAME.A == pytest.approx(0.32)
        assert GAME.B == pytest.approx(0.12)
        assert GAME.assumption1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu_hi=0.6, mu_lo=0.8, cost_C=0.07, lam=0.3),
            dict(mu_hi=0.8, mu_lo=0.8, cost_C=0.07, lam=0.3),
            dict(mu_hi=1.0, mu_lo=0.6, cost_C=0.07, lam=0.3),
            dict(mu_hi=0.8, mu_lo=0.6, cost_C=0.0, lam=0.3),
            dict(mu_hi=0.8, mu_lo=0.6, cost_C=0.07, lam=-1.0),
            dict(mu_hi=0.8, mu_lo=0.6, cost_C=0.07, lam=math.inf),
            dict(mu_hi=0.8, mu_lo=0.6, cost_C=0.07, lam=math.nan),
            dict(mu_hi=0.8, mu_lo=0.6, cost_C=math.inf, lam=0.3),
            dict(mu_hi=0.8, mu_lo=0.6, cost_C=math.nan, lam=0.3),
        ],
    )
    def test_rejects_bad_primitives(self, kwargs):
        with pytest.raises(ValueError):
            GameParams(**kwargs)

    @pytest.mark.parametrize("lam", [1e-3, 1e-4])
    @pytest.mark.parametrize("mus", [(0.8, 0.6), (0.9, 0.35), (0.7, 0.59)])
    def test_gamma_past_overflow_is_the_costless_limit(self, lam, mus):
        # exp(1/lam) overflows here; at gamma = +inf the curves take their limits
        p = GameParams(*mus, 0.07, lam)
        with pytest.raises(OverflowError):
            math.exp(1.0 / lam)
        assert g_func(math.inf) == 0.5
        assert f_func(p, math.inf) == p.B / (p.A + p.B)

    def test_assumption1_fails_for_large_cost(self):
        bound = GAME.mu_hi * (1 - GAME.mu_hi) / (GAME.A + GAME.B)
        big = GameParams(0.8, 0.6, (bound + 0.01) * 0.2, 0.3)
        assert not big.assumption1


class TestStateDistribution:
    def test_hi_lo(self):
        d = state_distribution(GAME, (HI, LO))
        assert (d.p_plus, d.p_zero, d.p_minus) == pytest.approx((0.32, 0.56, 0.12))

    def test_symmetric(self):
        d = state_distribution(GAME, (HI, HI))
        assert d.p_plus == pytest.approx(d.p_minus)
        assert d.p_plus == pytest.approx(0.16)

    def test_mirror(self):
        d = state_distribution(GAME, (LO, HI))
        assert (d.p_plus, d.p_zero, d.p_minus) == pytest.approx((0.12, 0.56, 0.32))


class TestCurves:
    def test_g_at_one(self):
        assert g_func(1.0) == 0.0

    def test_g_increasing_to_half(self):
        gammas = helpers.linspace(1.0, 400.0, 200)
        vals = [g_func(g) for g in gammas]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert g_func(1e12) == pytest.approx(0.5, abs=1e-10)

    def test_f_root_at_ratio(self):
        assert f_func(GAME, GAME.A / GAME.B) == pytest.approx(0.0, abs=1e-15)

    def test_f_value_is_table1_bonus(self):
        gamma = math.exp(1.0 / GAME.lam)
        assert f_func(GAME, gamma) == pytest.approx(0.243791412838850, abs=1e-12)
        # equals pi(1) - pi(0) from the generic solver
        sig = optimal_signal(GAME, (HI, LO))
        assert f_func(GAME, gamma) == pytest.approx(sig.X, abs=1e-12)

    def test_f_increasing_to_limit(self):
        gammas = helpers.linspace(GAME.A / GAME.B, 1e4, 200)
        vals = [f_func(GAME, g) for g in gammas]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert f_func(GAME, 1e14) == pytest.approx(GAME.B / (GAME.A + GAME.B), abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            g_func(0.99)
        with pytest.raises(ValueError):
            f_func(GAME, GAME.A / GAME.B - 1e-6)

    def test_inverses_round_trip(self):
        for x in (0.05, 0.2, 0.35, 0.49):
            assert g_func(g_inverse(x)) == pytest.approx(x, abs=1e-14)
        cap = GAME.B / (GAME.A + GAME.B)
        for x in (0.01, 0.1, 0.2, cap * 0.999):
            gamma = f_inverse(GAME, x)
            assert f_func(GAME, gamma) == pytest.approx(x, abs=1e-12)

    def test_inverse_caps(self):
        assert g_inverse(0.5) == math.inf
        assert f_inverse(GAME, GAME.B / (GAME.A + GAME.B)) == math.inf

    # at the last pair's nextafter(cap, 0), AB - k rounds to 0 and gamma is +inf
    @pytest.mark.parametrize("mus", [(0.8, 0.6), (0.9, 0.2), (0.55, 0.5), (0.999, 0.001),
                                     (0.7406087119000457, 0.049551753165835107)])
    def test_inverse_near_cap_is_as_accurate_as_its_conditioning(self, mus):
        # backward error a few ulps; forward error of r = 1/gamma (0 at the
        # cap, where gamma may be +inf) within eps times the condition
        # number x / (cap - x), against the quadratic in 60 digits
        game = GameParams(*mus, 0.01, 1.0)
        A, B = game.A, game.B
        cap = B / (A + B)
        eps = EPS
        for x in [cap * (1.0 - 10.0**-e) for e in range(4, 15)] + [math.nextafter(cap, 0.0)]:
            gamma = f_inverse(game, x)
            assert abs(f_func(game, gamma) - x) <= 4.0 * eps * x
            with exact.digits(60):
                want = exact.f_inverse(A, B, x)
                rel = float(abs(1 / Decimal(gamma) - 1 / want) * want)
            assert rel <= eps * x / (cap - x)

    def test_quadratic_inverse_agrees_with_bisection(self):
        # independent bisection on f over an expanding bracket
        for x in (0.175, 0.2625):
            lo, hi = GAME.A / GAME.B + 1e-12, 1e6
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f_func(GAME, mid) < x:
                    lo = mid
                else:
                    hi = mid
            assert f_inverse(GAME, x) == pytest.approx(0.5 * (lo + hi), rel=1e-9)


class TestOptimalSignal:
    def test_table1(self):
        sig = optimal_signal(GAME, (HI, LO))
        assert sig.as_tuple() == pytest.approx(TABLE1, abs=1e-12)
        assert sig.pi_bar == pytest.approx(0.744088048450016, abs=1e-12)
        assert sig.pi_zero == sig.pi_bar
        assert not sig.impartial

    def test_asymmetric_bonus_ratio(self):
        sig = optimal_signal(GAME, (HI, LO))
        assert sig.Y / sig.X == pytest.approx(GAME.A / GAME.B, abs=1e-10)
        assert sig.X > 0 and sig.Y > 0

    def test_symmetric_profiles_impartial(self):
        for profile in ((HI, HI), (LO, LO)):
            sig = optimal_signal(GAME, profile)
            assert sig.pi_zero == 0.5
            assert sig.pi_bar == 0.5
            assert sig.impartial
            assert sig.X == pytest.approx(sig.Y, abs=1e-15)
            assert sig.X == pytest.approx(0.465554804333789, abs=1e-12)
            assert sig.pi_plus + sig.pi_minus == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_above_breve(self):
        sig = optimal_signal(GAME._replace(lam=2.0), (HI, LO))
        assert sig.degenerate
        assert sig.as_tuple() == (1.0, 1.0, 1.0)

    def test_mirror_profile(self):
        hilo = optimal_signal(GAME, (HI, LO))
        lohi = optimal_signal(GAME, (LO, HI))
        assert lohi.pi_plus == pytest.approx(1.0 - hilo.pi_minus, abs=1e-15)
        assert lohi.pi_bar == pytest.approx(1.0 - hilo.pi_bar, abs=1e-15)
        assert lohi == hilo.mirrored()
        assert optimal_signal(GAME, [LO, HI]) == lohi  # any sequence of labels, not only the tuple

    def test_matches_generic_solver_on_small_grid(self):
        worst = 0.0
        for mu_hi in (0.55, 0.7, 0.9):
            for mu_lo in (0.2, 0.45, 0.65):
                if mu_lo >= mu_hi - 0.02:
                    continue
                for lam in (0.05, 0.3, 1.0, 3.0):
                    game = GameParams(mu_hi, mu_lo, 0.05, lam)
                    for profile in PROFILES:
                        worst = max(worst, signal_oracle_residual(game, profile))
        assert worst <= 1e-8

    def test_tiny_lambda_stays_finite(self):
        # the closed forms are evaluated in 1/gamma, so attention costs far
        # below the exp overflow point still produce the costless limit
        for lam in (0.002, 1e-4, 1e-8):
            game = GAME._replace(lam=lam)
            sig = optimal_signal(game, (HI, LO))
            pb = profit(game, (HI, LO))
            assert all(math.isfinite(v) for v in sig.as_tuple() + (sig.pi_bar, pb.V, pb.I))
            assert pb.V == pytest.approx(0.92, abs=1e-6)
        limit = optimal_signal(GAME._replace(lam=1e-9), (HI, LO))
        assert limit.as_tuple() == (0.0, GAME.A / (GAME.A + GAME.B), 1.0)

    def test_bonuses_shrink_with_lambda(self):
        xs, ys = [], []
        for lam in helpers.linspace(0.15, 1.0, 30):
            sig = optimal_signal(GAME._replace(lam=lam), (HI, LO))
            xs.append(sig.X)
            ys.append(sig.Y)
        assert all(b < a for a, b in zip(xs, xs[1:]))
        assert all(b < a for a, b in zip(ys, ys[1:]))


class TestIncentives:
    def test_m_deviation_loss(self):
        sig = optimal_signal(GAME, (HI, LO))
        gain = GAME.delta_mu * incentive_gain(GAME, sig, AGENT_M, LO)
        assert gain == pytest.approx(0.097516565135540, abs=1e-12)
        assert gain == pytest.approx(0.098, abs=1e-3)

    def test_w_gain_matches_win_probability_oracle(self):
        sig = optimal_signal(GAME, (HI, LO))
        gain = GAME.delta_mu * incentive_gain(GAME, sig, AGENT_W, HI)
        brute = (helpers.win_probabilities(sig, GAME.mu_hi, GAME.mu_hi)[1]
                 - helpers.win_probabilities(sig, GAME.mu_hi, GAME.mu_lo)[1])
        assert gain == pytest.approx(brute, abs=1e-6)
        assert gain == pytest.approx(0.0650, abs=5e-4)

    def test_knife_edge_signal(self):
        from riscreen import PromotionSignal

        c = GAME.c
        sig = PromotionSignal(0.5 - c, 0.5, 0.5 + c, 0.5)
        for agent in (AGENT_M, AGENT_W):
            for other in (HI, LO):
                assert incentive_gain(GAME, sig, agent, other) == pytest.approx(c, abs=1e-15)


EFFORT_ERROR = "effort must be 'hi' or 'lo', got 'mid'"


class TestLabels:
    """Unknown effort and agent labels raise ValueError naming the label."""

    SIG = optimal_signal(GAME, (HI, LO))

    @pytest.mark.parametrize("profile", [(HI, "mid"), ("mid", HI), ("mid", LO), (LO, "mid"), ("mid", "mid")])
    def test_unknown_effort(self, profile):
        for call in (
            lambda: supports_profile(GAME, self.SIG, profile),
            lambda: optimal_signal(GAME, profile),
            lambda: evaluate(GAME, profile, self.SIG),
            lambda: state_distribution(GAME, profile),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == EFFORT_ERROR

    @pytest.mark.parametrize("profile", [("bad", "mid"), ("mid", "bad")])
    def test_supports_profile_names_w_first(self, profile):
        with pytest.raises(ValueError) as info:
            supports_profile(GAME, self.SIG, profile)
        assert str(info.value) == f"effort must be 'hi' or 'lo', got {profile[1]!r}"

    def test_incentive_gain_labels(self):
        for agent in (AGENT_M, AGENT_W, "x"):
            with pytest.raises(ValueError) as info:
                incentive_gain(GAME, self.SIG, agent, "mid")
            assert str(info.value) == EFFORT_ERROR
        for other in (HI, LO):
            with pytest.raises(ValueError) as info:
                incentive_gain(GAME, self.SIG, "x", other)
            assert str(info.value) == "agent must be 'm' or 'w', got 'x'"


@helpers.draws(1000, seed=32001, domain=helpers.domain_game, near_half=helpers.near_half_game)
def test_a_tie_promotes_the_majority(domain, near_half):
    # the principal "ignores minorities unless they surprise him": in (hi, lo), m is the
    # majority, and a tie (d = 0) promotes m with pi(0) = pi_bar > 1/2, as
    # 2 pi_bar - 1 = (1 + r)(A - B)/((1 - r)(A + B)); the minority w needs d = -1
    for params in (domain, near_half):
        if params.A > params.B:
            tilted = optimal_signal(params, (HI, LO))
            assert tilted.pi_zero == tilted.pi_bar > 0.5, params
            assert optimal_signal(params, (LO, HI)).pi_zero < 0.5, params
        for record in equilibrium_set(params):
            if record.profile == (HI, LO):
                assert record.signal.pi_zero > 0.5, params


@helpers.draws(60, seed=31001, params=helpers.domain_game)
def test_gains_keep_their_operand_order(params):
    # m's gain is (1 - mu_w) X + mu_w Y and w's is mu_m X + (1 - mu_m) Y, bit for bit
    for profile in PROFILES:
        sig = optimal_signal(params, profile)
        mu_m, mu_w = params.mu(profile[0]), params.mu(profile[1])
        X, Y = sig.pi_plus - sig.pi_zero, sig.pi_zero - sig.pi_minus
        gain_m, gain_w = (1.0 - mu_w) * X + mu_w * Y, mu_m * X + (1.0 - mu_m) * Y
        assert incentive_gain(params, sig, AGENT_M, profile[1]).hex() == gain_m.hex()
        assert incentive_gain(params, sig, AGENT_W, profile[0]).hex() == gain_w.hex()
        # costs a few ulps either side of where m's constraint flips: a gain
        # off by one ulp would flip it at another cost; the slack is IC_TOL min(1, c),
        # so the flips sit within an ulp of gain_m (1 +- IC_TOL) below 1
        def holds(effort, gain, c):
            tol = IC_TOL * min(1.0, c)
            return gain >= c - tol if effort == HI else gain <= c + tol

        ok_w = holds(profile[1], gain_w, params.c)
        prior = _profile_prior(params.mu_hi, params.mu_lo, profile)
        band = IC_TOL * min(1.0, gain_m)
        for edge in (gain_m + band, gain_m - band):
            c_m = edge
            for _ in range(3):
                c_m = math.nextafter(c_m, -math.inf)
            for _ in range(7):
                ok_m = holds(profile[0], gain_m, c_m)
                assert _supports(prior, sig, c_m, params.c) == (ok_m and ok_w)
                c_m = math.nextafter(c_m, math.inf)


def test_a_zero_gain_never_meets_a_cost_below_the_slack(capsys):
    # the incentive slack is IC_TOL min(1, c): with an absolute IC_TOL, a cost
    # c < IC_TOL let the zero gains of an always-promote signal pass the
    # high-effort test, so (hi, lo) and (lo, hi) were listed above lambda_high
    from riscreen import cli

    assert cli.main(["equilibria", "--mu-hi", ".8", "--mu-lo", ".6", "--cost", "1e-13", "--lambda", "50"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == ["(hi,hi)", "*"]
    # derandomized games with cost_C in [1e-16, 1e-12] against the enumeration of
    # win probabilities, whose slack is the same IC_TOL c in utility
    rng = random.Random(1612)
    for _ in range(300):
        mu_a, mu_b = (rng.choice((rng.uniform(1e-6, 1e-3), rng.uniform(1.0 - 1e-3, 1.0 - 1e-6),
                                  rng.uniform(1e-3, 1.0 - 1e-3))) for _ in range(2))
        game = GameParams(max(mu_a, mu_b), min(mu_a, mu_b), 10.0 ** rng.uniform(-16.0, -12.0),
                          10.0 ** rng.uniform(-4.0, 4.0))
        want = helpers.direct_ic_equilibria(game, tol=IC_TOL * game.cost_C)
        assert [r.profile for r in equilibrium_set(game)] == want, game


class TestThresholds:
    def test_frozen_values(self):
        cuts = thresholds(GAME)
        assert cuts.lambda_star == pytest.approx(LAM_STAR, abs=1e-12)
        assert cuts.lambda_low == pytest.approx(LAM_LOW, abs=1e-12)
        assert cuts.lambda_high == pytest.approx(LAM_HIGH, abs=1e-12)
        assert cuts.lambda_breve == pytest.approx(LAM_BREVE, abs=1e-12)
        assert cuts.X_high == pytest.approx(0.2625, abs=1e-12)
        assert cuts.X_low == pytest.approx(0.175, abs=1e-12)
        # four-digit reference values: lambda* ~ .5766, gamma roots ~ 80.46 and ~ 7.909
        assert cuts.lambda_star == pytest.approx(0.5766, abs=1.5e-4)
        assert math.exp(1.0 / cuts.lambda_low) == pytest.approx(80.46, abs=5e-3)
        assert math.exp(1.0 / cuts.lambda_high) == pytest.approx(7.909, abs=5e-4)

    def test_gamma_star_closed_form(self):
        assert g_inverse(GAME.c) == pytest.approx((1 + 2 * GAME.c) / (1 - 2 * GAME.c), rel=1e-14)

    def test_ordering_flags(self):
        cuts = thresholds(GAME)
        assert 0 < cuts.lambda_low < cuts.lambda_star
        assert cuts.lambda_low < cuts.lambda_high < cuts.lambda_breve
        assert not cuts.condition5  # lambda_star > lambda_high here
        assert cuts.assumption1
        assert cuts.regular

    def test_non_regular_cost_flagged(self):
        big = GameParams(0.8, 0.6, 0.12, 0.3)  # c = .6 >= 1/2
        cuts = thresholds(big)
        assert cuts.lambda_star == 0.0
        assert not cuts.assumption1
        assert not cuts.regular

    @helpers.draws(50, seed=33005, params=helpers.sample_condition5)
    def test_gamma_hat_is_crossing(self, params):
        cuts = thresholds(params)
        assert cuts.gamma_hat is not None
        psi = f_func(params, cuts.gamma_hat) * params.A / (params.mu_hi * (1.0 - params.mu_hi))
        assert g_func(cuts.gamma_hat) == pytest.approx(psi, abs=1e-9)

    def test_no_root_search(self, monkeypatch):
        # every cutpoint of these games is a closed form, gamma_hat included
        from riscreen import ri_core

        games = (GAME, helpers.sample_condition5(random.Random(33006)))
        calls = []
        real = ri_core.find_root
        monkeypatch.setattr(ri_core, "find_root", lambda *a, **k: calls.append(a) or real(*a, **k))
        for params in games:
            assert thresholds(params).gamma_hat is not None
        assert calls == []

    def test_inverse_near_the_cap_makes_no_root_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("find_root called")

        monkeypatch.setattr(ri_core, "find_root", refuse)
        for mus in ((0.8, 0.6), (0.999, 0.001), (0.7406087119000457, 0.049551753165835107)):
            game = GameParams(*mus, 0.01, 1.0)
            cap = game.B / (game.A + game.B)
            for x in (cap * (1.0 - 1e-13), cap * (1.0 - 1e-15), math.nextafter(cap, 0.0)):
                assert f_inverse(game, x) > game.A / game.B
        # X_high of this game is within an ulp of the cap: lambda_low is 0 (gamma = +inf)
        game = GameParams(0.7406087119000457, 0.049551753165835107, 0.18521755123136274, 1.0)
        assert thresholds(game).lambda_low == 0.0


@helpers.draws(
    2000,
    seed=33007,
    z1=lambda rng: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 8.0),
    re=lambda rng: rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3.0, 3.0),
    im=lambda rng: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0),
    complex_pair=lambda rng: rng.random() < 0.5,
)
def test_cubic_roots_recover_known_roots(z1, re, im, complex_pair):
    # cubics built from their roots, which span 16 decades: three real roots,
    # or one real root and a complex pair re +- i im, the real root as small as
    # 1e-8 times the pair (Cardano's root cancels there, so the reversed
    # cubic's root is taken, whatever the sign of c)
    if complex_pair:
        p, q = -2.0 * re, re * re + im * im
        coefs, truth = (p - z1, q - z1 * p, -z1 * q), [z1]
    else:
        z2, z3 = re, im
        coefs, truth = (-(z1 + z2 + z3), z1 * z2 + z1 * z3 + z2 * z3, -z1 * z2 * z3), [z1, z2, z3]
    got = _cubic_roots(*coefs)
    assert len(got) == len(truth), (coefs, got, truth)
    assert all(min(abs(g - t) for g in got) <= 1e-9 * abs(t) for t in truth), (coefs, got, truth)


@helpers.draws(
    200,
    seed=31002,
    cases=[
        dict(params=GameParams(0.8, 0.5, 0.07, 0.3)),
        dict(params=GameParams(1.0 - 1e-6, 0.5 + 2.0**-53, 1e-6, 1e4)),
        dict(params=GameParams(0.8, 0.6, 0.2e-6, 0.3)),  # c = 1e-6
        dict(params=GameParams(0.6 + 1e-6, 0.6, 1e-3, 0.3)),  # delta_mu = 1e-6
    ],
    params=lambda rng: rng.choice((helpers.domain_game, helpers.near_half_game))(rng),
)
def test_thresholds_on_the_whole_domain(params):
    cuts = thresholds(params)
    values = [getattr(cuts, name) for name in cuts._fields if name != "gamma_hat"]
    assert all(math.isfinite(v) for v in values), cuts
    with exact.digits(60):
        wants = exact.lambda_star(params.c), exact.lambda_breve(params.mu_hi, params.mu_lo)
    for got, want in zip((cuts.lambda_star, cuts.lambda_breve), wants):
        assert float(abs(Decimal(got) - want)) <= 1e-14 * float(want), (params, got)
    assert (cuts.gamma_hat is None) == (params.mu_lo <= 0.5)
    if cuts.gamma_hat is not None:
        with exact.digits(60):
            gamma_hat = exact.gamma_hat(params.mu_hi, params.mu_lo)
        assert math.isfinite(cuts.gamma_hat) and cuts.gamma_hat > params.A / params.B
        assert float(abs(Decimal(cuts.gamma_hat) - gamma_hat) / gamma_hat) <= 1e-14, (params, cuts.gamma_hat)


class TestEquilibria:
    def test_intermediate_lambda_has_discrimination(self):
        profiles = [r.profile for r in equilibrium_set(helpers.canonical(0.25))]
        assert profiles == [(HI, HI), (HI, LO), (LO, HI)]

    def test_high_lambda_low_effort_only(self):
        profiles = [r.profile for r in equilibrium_set(helpers.canonical(1.0))]
        assert profiles == [(LO, LO)]

    def test_knife_edge_has_both_impartial(self):
        profiles = [r.profile for r in equilibrium_set(helpers.canonical(LAM_STAR))]
        assert (HI, HI) in profiles and (LO, LO) in profiles

    def test_discriminatory_interval_is_closed(self):
        for edge in (LAM_LOW, LAM_HIGH):
            inside = [r.profile for r in equilibrium_set(helpers.canonical(edge))]
            assert (HI, LO) in inside and (LO, HI) in inside
        for lam in (LAM_LOW - 1e-6, LAM_HIGH + 1e-6):
            outside = [r.profile for r in equilibrium_set(helpers.canonical(lam))]
            assert (HI, LO) not in outside

    def test_classification_tracks_profile_symmetry(self):
        for lam in (0.25, 0.45, 1.0):
            for rec in equilibrium_set(helpers.canonical(lam)):
                expected = IMPARTIAL if rec.profile[0] == rec.profile[1] else DISCRIMINATORY
                assert rec.classification == expected


class TestProfit:
    def test_table1_revenue(self):
        pb = profit(GAME, (HI, LO))
        assert pb.V == pytest.approx(0.904844113906867, abs=1e-12)
        assert pb.V == pytest.approx(0.9048, abs=5e-3)
        assert pb.I == pytest.approx(0.191876468668156, abs=1e-12)

    def test_costless_benchmark(self):
        assert 1 - (1 - GAME.mu_hi) * (1 - GAME.mu_lo) == pytest.approx(0.92, abs=1e-15)
        assert profit(GAME._replace(lam=0.01), (HI, LO)).V == pytest.approx(0.92, abs=1e-9)

    def test_degenerate_region(self):
        # always-promote-m yields the worker's expected productivity at zero bill
        pb = profit(GAME._replace(lam=2.0), (HI, LO))
        assert pb.V == GAME.mu_hi
        assert pb.I == 0.0

    def test_evaluate_solves_no_signal(self, monkeypatch):
        # evaluate values the signal it is given: no signal formula, no generic bill
        import riscreen.baseline_game as bg
        from riscreen import ri_core

        games = [GAME._replace(lam=lam) for lam in (1e-4, 0.05, 0.3, 0.7, 1.5, 1e4)]
        held = {(game, p): optimal_signal(game, p) for game in games for p in PROFILES}
        held.update({(game, (HI, HI)): bind_high_effort(game).signal for game in games})
        held.update({(game, (HI, LO)): find_multiplier(game, (HI, LO)).signal for game in games})
        calls = []
        for module, name in ((bg, "optimal_signal"), (bg, "signal_from_odds"), (ri_core, "mutual_information")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real: calls.append(args) or real(*args))
        for (game, profile), signal in held.items():
            evaluate(game, profile, signal)
        assert calls == []

    def test_profit_solves_one_signal(self, monkeypatch):
        # profit is evaluate at optimal_signal; (lo, hi) is valued as (hi, lo)
        import riscreen.baseline_game as bg

        calls = []
        real = bg.optimal_signal
        monkeypatch.setattr(bg, "optimal_signal", lambda *args: calls.append(args) or real(*args))
        for lam in (1e-4, 0.05, 0.3, 0.7, 1.5, 1e4):
            game = GAME._replace(lam=lam)
            for profile in PROFILES:
                calls.clear()
                pb = profit(game, profile)
                assert len(calls) == 1
                assert tuple(pb) == evaluate(game, calls[0][1], real(*calls[0]))[3:6]
            assert profit(game, (LO, HI)) == profit(game, (HI, LO))

    def test_evaluate_refuses_an_inconsistent_pi_bar(self):
        signal = optimal_signal(GAME, (HI, LO))
        with pytest.raises(ValueError, match="is not the prior mean"):
            evaluate(GAME, (HI, LO), signal._replace(pi_bar=signal.pi_bar + 1e-9))
        # a pi_bar off by rounding only is accepted
        assert evaluate(GAME, (HI, LO), signal._replace(pi_bar=signal.pi_bar + 1e-13)).profit > 0.0

    def test_difference_derivatives_match_finite_differences(self):
        # d/dgamma of the revenue and information gaps across profiles
        for gamma in (4.0, 8.0, 20.0, 60.0):
            h = gamma * 1e-6
            dmu = GAME.delta_mu

            def gaps(g):
                game = GAME._replace(lam=1.0 / math.log(g))
                hi_hi, hi_lo, lo_lo = (
                    profit(game, (HI, HI)),
                    profit(game, (HI, LO)),
                    profit(game, (LO, LO)),
                )
                return (hi_hi.V - hi_lo.V, hi_lo.V - lo_lo.V, hi_hi.I - hi_lo.I, hi_lo.I - lo_lo.I)


            up, down = gaps(gamma + h), gaps(gamma - h)
            dv1 = (up[0] - down[0]) / (2 * h)
            dv2 = (up[1] - down[1]) / (2 * h)
            di1 = (up[2] - down[2]) / (2 * h)
            di2 = (up[3] - down[3]) / (2 * h)
            assert dv1 == pytest.approx(dmu * (1 - 2 * GAME.mu_hi) / (gamma + 1) ** 2, rel=1e-5)
            assert dv2 == pytest.approx(dmu * (1 - 2 * GAME.mu_lo) / (gamma + 1) ** 2, rel=1e-5)
            assert di1 == pytest.approx(
                dmu * (1 - 2 * GAME.mu_hi) * math.log(gamma) / (gamma + 1) ** 2, rel=1e-5
            )
            assert di2 == pytest.approx(
                dmu * (1 - 2 * GAME.mu_lo) * math.log(gamma) / (gamma + 1) ** 2, rel=1e-5
            )


def decimal_valuation(params, profile, signal):
    with exact.digits(60):
        return exact.valuation(*(params.mu(e) for e in profile), signal.as_tuple(), params.lam)


def divergence_terms(signal):
    """sum_d |pi ln(pi/pi_bar)| + |(1 - pi) ln((1 - pi)/(1 - pi_bar))|, the size
    of the terms the bill adds up (0 for a sure decision)."""
    b, total = signal.pi_bar, 0.0
    if 0.0 < b < 1.0:
        for a in signal.as_tuple():
            if 0.0 < a:
                total += abs(a * math.log(a / b))
            if a < 1.0:
                total += abs((1.0 - a) * math.log((1.0 - a) / (1.0 - b)))
    return total


def valued_signals(params):
    """Every kind of signal the package values: the four optimal signals, both
    asymmetric quota signals and the bound (hi, hi) rule."""
    out = [(p, optimal_signal(params, p)) for p in PROFILES]
    out += [(p, find_multiplier(params, p).signal) for p in ((HI, LO), (LO, HI))]
    bound = bind_high_effort(params)
    if bound is not None:
        out.append(((HI, HI), bound.signal))
    return out


#: the (lo, lo) row at lambda = 1000 + 9000 * 20/39 of
#: `regimes --mu-hi .8 --mu-lo .6 --cost .07 --lambda-range 1000 10000 --lambda-steps 40`
LARGE_LAM = GameParams(0.8, 0.6, 0.07, 1000.0 + 9000.0 * 20 / 39)


@helpers.draws(
    200,
    seed=31003,
    cases=[
        dict(params=LARGE_LAM),
        dict(params=GameParams(0.8, 0.6, 0.07, 2.0)),  # degenerate (hi, lo) signal
        # just below lambda_breve: pi_bar rounds to 1 while pi(-1) = 1 - 6e-16
        dict(params=GameParams(0.7653730981678712, 0.19577267848062543, 0.01, 0.38531271033885767)),
    ],
    params=helpers.domain_game,
)
def test_evaluate_matches_a_50_digit_valuation(params):
    # V to 1e-15 relative; I and profit to 4 eps of the size of the terms they add up
    for profile, signal in valued_signals(params):
        rec = evaluate(params, profile, signal)
        V, info, value = decimal_valuation(params, profile, signal)
        terms = divergence_terms(signal)
        sure = signal.pi_bar in (0.0, 1.0)
        assert float(abs(Decimal(rec.revenue) - V) / V) <= 1e-15, (params, profile)
        if sure:  # conditionals within rounding of a sure decision carry no bill
            assert rec.info_cost == 0.0 and info <= Decimal(1e-14), (params, profile)
        else:
            assert float(abs(Decimal(rec.info_cost) - info)) <= 4 * EPS * terms, (params, profile)
            # and relative accuracy: the divergence kernel has no cancellation near pi_bar
            assert float(abs(Decimal(rec.info_cost) - info)) <= 1e-14 * float(info), (params, profile)
        slack = 4 * EPS * (float(V) + params.lam * terms) + (params.lam * float(info) if sure else 0.0)
        assert float(abs(Decimal(rec.profit) - value)) <= slack, (params, profile)
        # the generic solver's oracle agrees to its own rounding
        mi = ri_core.mutual_information(state_distribution(params, profile), signal.as_tuple())
        assert abs(rec.info_cost - mi) <= 1e-14, (params, profile)
    # the mirror records differ by rounding only, and profit makes them equal
    hi_lo, lo_hi = (evaluate(params, p, optimal_signal(params, p)) for p in ((HI, LO), (LO, HI)))
    terms = divergence_terms(hi_lo.signal)
    assert abs(lo_hi.revenue - hi_lo.revenue) <= 4e-16 * hi_lo.revenue
    assert abs(lo_hi.info_cost - hi_lo.info_cost) <= 8 * EPS * terms
    assert abs(lo_hi.profit - hi_lo.profit) <= 4e-16 * (hi_lo.revenue + params.lam * terms)
    assert profit(params, (LO, HI)) == profit(params, (HI, LO))


#: mu_m and mu_w at opposite edges, where 1 - p(1) - p(-1) kept p(0) to 1e-12 only
EDGE_GAME = GameParams(0.999991, 4.65e-5, 1e-3, 0.3)


def test_prior_at_opposite_edges_has_its_digits():
    for profile in ((HI, LO), (LO, HI)):
        with exact.digits(60):
            want = exact.prior(*(Decimal(EDGE_GAME.mu(e)) for e in profile))[1]
        p_zero = state_distribution(EDGE_GAME, profile).p_zero
        assert float(abs(Decimal(p_zero) - want) / want) <= EPS, profile
        # the quota bill reads that prior inline
        for lam in (1e-4, 0.3, 1e4):
            game = EDGE_GAME._replace(lam=lam)
            signal = find_multiplier(game, profile).signal
            info = decimal_valuation(game, profile, signal)[1]
            bill = evaluate(game, profile, signal).info_cost
            assert float(abs(Decimal(bill) - info) / info) <= 4 * EPS, (profile, lam)


def test_large_lambda_profit_has_its_exact_digits():
    # the closed forms printed 0.600010684932 in this sweep row
    assert f"{LARGE_LAM.lam:.12g}" == "5615.38461538"
    value = profit(LARGE_LAM, (LO, LO)).profit
    want = decimal_valuation(LARGE_LAM, (LO, LO), optimal_signal(LARGE_LAM, (LO, LO)))[2]
    assert f"{value:.12g}" == f"{float(want):.12g}" == "0.600010684931"


class TestWelfareAndSelection:
    def test_symmetric_profile_utilities(self):
        records = {r.profile: r for r in equilibrium_set(helpers.canonical(LAM_STAR))}
        hi = records[(HI, HI)]
        lo = records[(LO, LO)]
        assert hi.utility_m == pytest.approx(0.5 - GAME.cost_C, abs=1e-12)
        assert hi.utility_w == pytest.approx(0.5 - GAME.cost_C, abs=1e-12)
        assert lo.utility_m == pytest.approx(0.5, abs=1e-12)

    def test_discriminatory_utilities(self):
        rec = [r for r in equilibrium_set(GAME) if r.profile == (HI, LO)][0]
        assert rec.utility_m == pytest.approx(0.674088048450016, abs=1e-9)
        assert rec.utility_w == pytest.approx(0.255911951549984, abs=1e-9)
        assert rec.utility_m > rec.utility_w  # the working agent is better off

    @helpers.draws(25, seed=33009, base=helpers.sample_condition5)
    def test_welfare_ordering_when_all_coexist(self, base):
        cuts = thresholds(base)
        lam = 0.5 * (max(cuts.lambda_low, cuts.lambda_star * 0.99) + cuts.lambda_star)
        records = equilibrium_set(base._replace(lam=lam))
        if len(records) < 3:
            return
        ranked = welfare_ordering(records)
        joint = [r.utility_m + r.utility_w for r in ranked]
        assert joint == sorted(joint, reverse=True)
        assert ranked[0].profile == (LO, LO) or ranked[0].classification == DISCRIMINATORY
        assert ranked[-1].profile == (HI, HI)

    def test_most_profitable_regimes(self):
        # below both cutpoints the impartial high-effort record wins
        low = most_profitable(helpers.canonical(0.1))
        assert [r.profile for r in low] == [(HI, HI)]
        # between lambda_low and lambda_star the impartial record still wins
        mid = most_profitable(helpers.canonical(0.3))
        assert [r.profile for r in mid] == [(HI, HI)]

    def test_ranking_no_records_raises(self):
        with pytest.raises(ValueError, match="no equilibrium records to rank"):
            most_profitable_among([])
