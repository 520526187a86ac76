"""Tests for the model variants."""

import math
import random
import sys
from collections import Counter
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
    HeterogeneousParams,
    PromotionSignal,
    ReferencePriorProblem,
    bind_high_effort,
    commitment_solve,
    continuous_effort_equilibria,
    equilibrium_set,
    evaluate,
    heterogeneous_equilibrium_set,
    incentive_gain,
    mixed_equilibria,
    most_profitable,
    optimal_signal,
    prior_invariant_signal,
    state_distribution,
    thresholds,
)
from riscreen import _sweep, ri_core, variants
from riscreen.baseline_game import _gains, _incentive_holds, lambda_star, signal_from_odds, supports_profile
from riscreen.ri_core import BracketError, ConvergenceError

import exact
import helpers

GAME = helpers.canonical()


def hexed(obj):
    """obj with every float replaced by its hex text, so -0.0 and NaN compare exactly."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (tuple, list)):
        return [hexed(x) for x in obj]
    return obj


def success_signal(lam, nu_m, nu_w):
    """The optimal signal at success probabilities (nu_m, nu_w); None at a corner."""
    return signal_from_odds(nu_m * (1.0 - nu_w), nu_w * (1.0 - nu_m), lam)
#: attention costs at which exp(1/lam) overflows a double
TINY_LAMS = (1.0 / 720.0, 1e-3, 1e-4)


class TestHeterogeneous:
    def test_effective_cost_ordering_enforced(self):
        with pytest.raises(ValueError):
            HeterogeneousParams(0.08, 0.07).effective_costs(0.2)
        # risk aversion can reverse the raw cost ordering
        ok = HeterogeneousParams(0.08, 0.07, du_m=2.0, du_w=1.0)
        c_m, c_w = ok.effective_costs(0.2)
        assert c_m < c_w

    @helpers.draws(
        40,
        seed=33016,
        base=helpers.sample_assumption1,
        m_scale=lambda rng: rng.uniform(0.5, 1.0),
        w_scale=lambda rng: rng.uniform(1.0, 1.6),
        lams=lambda rng: [rng.uniform(0.05, 2.0) for _ in range(6)],
    )
    def test_agrees_with_direct_ic_enumeration(self, base, m_scale, w_scale, lams):
        # a gain slack of 1e-12 is a utility slack of 1e-12 delta_mu
        het = HeterogeneousParams(base.cost_C * m_scale, base.cost_C * w_scale)
        for lam in lams:
            game = base._replace(lam=lam)
            got = [r.profile for r in heterogeneous_equilibrium_set(game, het)]
            want = helpers.direct_ic_equilibria(game, 1e-12 * game.delta_mu, (het.cost_m, het.cost_w))
            assert got == want, lam

    def test_disjoint_impartial_regimes(self):
        # with c_m < c_w < 1/2 there is a gap holding no impartial equilibrium
        c_m, c_w = 0.25, 0.40
        het = HeterogeneousParams(c_m * GAME.delta_mu, c_w * GAME.delta_mu)
        lam_hi_edge = lambda_star(GAME._replace(cost_C=het.cost_w))   # below: (hi, hi)
        lam_lo_edge = lambda_star(GAME._replace(cost_C=het.cost_m))   # above: (lo, lo)
        assert lam_hi_edge < lam_lo_edge
        lam = 0.5 * (lam_hi_edge + lam_lo_edge)
        profiles = [r.profile for r in heterogeneous_equilibrium_set(GAME._replace(lam=lam), het)]
        assert (HI, HI) not in profiles and (LO, LO) not in profiles

    def test_low_sum_productivity_discrimination(self):
        # mu_hi + mu_lo < 1 supports (hi, lo) when w's cost is enough higher
        game = GameParams(0.6, 0.3, 0.1 * 0.3, 1.0)
        het = HeterogeneousParams(0.1 * 0.3, 0.15 * 0.3)
        # m works while X reaches c_m (1-mu_hi)/(1-mu_lo), below lambda_high at c_m; w shirks while
        # X stays below c_w mu_lo/mu_hi, above lambda_low at c_w
        lo = thresholds(game._replace(cost_C=het.cost_w)).lambda_low
        hi = thresholds(game._replace(cost_C=het.cost_m)).lambda_high
        assert lo < hi
        lam = 0.5 * (lo + hi)
        profiles = [r.profile for r in heterogeneous_equilibrium_set(game._replace(lam=lam), het)]
        assert (HI, LO) in profiles
        assert (HI, LO) in helpers.direct_ic_equilibria(game._replace(lam=lam), 1e-12 * game.delta_mu,
                                                        (het.cost_m, het.cost_w))
        # but not when the cost ratio sits below the bound
        het_close = HeterogeneousParams(0.1 * 0.3, 0.105 * 0.3)
        assert thresholds(game._replace(cost_C=het_close.cost_w)).lambda_low > hi
        assert (HI, LO) not in [r.profile for r in heterogeneous_equilibrium_set(game._replace(lam=lam), het_close)]

    def test_records_value_raw_costs_and_weights(self):
        # raw costs 0.06 > 0.05, but du_m > du_w makes m's effective cost lower
        het = HeterogeneousParams(0.06, 0.05, du_m=1.5, du_w=0.9)
        seen = set()
        for lam in (0.4, 1.2):
            game = GAME._replace(lam=lam)
            baseline = {r.profile: r for r in equilibrium_set(game)}
            for rec in heterogeneous_equilibrium_set(game, het):
                seen.add(rec.profile)
                e_m, e_w = rec.profile
                pi_bar = rec.signal.pi_bar
                assert rec.signal == optimal_signal(game, rec.profile)
                assert rec.utility_m == pytest.approx(1.5 * pi_bar - 0.06 * (e_m == HI), abs=1e-15)
                assert rec.utility_w == pytest.approx(0.9 * (1.0 - pi_bar) - 0.05 * (e_w == HI), abs=1e-15)
                base = baseline[rec.profile]
                assert (rec.revenue, rec.info_cost, rec.profit) == (base.revenue, base.info_cost, base.profit)
        assert seen == {(HI, HI), (HI, LO), (LO, LO)}

    @pytest.mark.parametrize("lam", TINY_LAMS)
    def test_tiny_lambda_matches_baseline(self, lam, capsys):
        # exp(1/lam) overflows a double here; the regimes are read in exp(-1/lam)
        from riscreen import cli

        for game in (GAME._replace(lam=lam), GameParams(0.6, 0.3, 0.03, lam), GameParams(0.9, 0.2, 0.3, lam)):
            het = HeterogeneousParams(game.cost_C, game.cost_C)
            assert heterogeneous_equilibrium_set(game, het) == equilibrium_set(game)
        code = cli.main(["variants", "--which", "heterogeneous", "--mu-hi", ".8", "--mu-lo", ".6",
                         "--lambda", repr(lam), "--cost-m", ".07", "--cost-w", ".07"])
        assert code == 0
        assert capsys.readouterr().out.startswith("(hi,hi) impartial")

    @helpers.draws(20, seed=33017, base=helpers.sample_assumption1)
    def test_tiny_lambda_matches_baseline_on_random_games(self, base):
        for game in (base._replace(lam=lam) for lam in TINY_LAMS):
            het = HeterogeneousParams(game.cost_C, game.cost_C)
            assert heterogeneous_equilibrium_set(game, het) == equilibrium_set(game), game.lam


class TestCommitment:
    def test_low_lambda_keeps_impartial_optimum(self):
        sol = commitment_solve(helpers.canonical(0.3))
        assert sol.induced_profile == (HI, HI)
        assert sol.nu_m == 0.0
        assert sol.signal.impartial
        assert sol.profit == pytest.approx(
            max(r.profit for r in equilibrium_set(helpers.canonical(0.3))), abs=1e-12
        )

    def test_zero_multiplier_reproduces_unconstrained_signal(self):
        # at lambda_star the unpriced impartial rule already has X = Y = c
        game = GAME._replace(lam=lambda_star(GAME))
        bound = bind_high_effort(game)
        assert abs(bound.nu) <= 1e-12
        assert bound.signal.as_tuple() == pytest.approx(optimal_signal(game, (HI, HI)).as_tuple(), rel=0.0, abs=1e-12)

    @helpers.draws(
        40,
        seed=33018,
        mu_hi=lambda rng: rng.uniform(0.52, 0.99),
        lo_frac=lambda rng: rng.random(),
        log_gap=lambda rng: rng.uniform(-12.0, -1.0),
    )
    def test_profit_is_the_evaluated_bound_rule(self, mu_hi, lo_frac, log_gap):
        # the bound rule is valued once per game: its profit at each lam is evaluate's, bit for bit;
        # mu_lo uniform in [0.01, mu_hi - 0.01] and c = 1/2 - 10**log_gap
        mu_lo = 0.01 + lo_frac * (mu_hi - 0.02)
        base = GameParams(mu_hi, mu_lo, (0.5 - 10.0**log_gap) * (mu_hi - mu_lo), 1.0)
        for factor in (0.5, 0.999, 1.001, 3.0):
            game = base._replace(lam=lambda_star(base) * factor)
            bound = bind_high_effort(game)
            assert bound.profit.hex() == evaluate(game, (HI, HI), bound.signal).profit.hex(), factor

    def test_priced_constraints_keep_impartiality(self):
        game = GAME._replace(lam=lambda_star(GAME) * 1.02)
        sol = bind_high_effort(game)
        assert sol.nu > 0.0
        assert sol.signal.impartial and sol.signal.pi_bar == 0.5
        assert sol.signal.X == pytest.approx(game.c, abs=1e-15)
        # pricing raises the bonus above the unpriced g(gamma) < c
        assert sol.signal.X > optimal_signal(game, (HI, HI)).X

    def test_binding_either_agent_ties_by_symmetry(self):
        game = GAME._replace(lam=0.62)
        sol = commitment_solve(game)
        assert sol.induced_profile == (HI, HI) and sol.binding_agent == "m,w"
        for agent in (AGENT_M, AGENT_W):
            assert abs(incentive_gain(game, sol.signal, agent, HI) - game.c) <= 1e-12

    @helpers.draws(20, seed=33019, base=helpers.sample_assumption1)
    def test_high_profile_is_a_candidate_above_lambda_star(self, base):
        for factor in (1.01, 1.5, 4.0):
            sol = commitment_solve(base._replace(lam=lambda_star(base) * factor))
            assert (HI, HI) in sol.candidates, factor
            assert sol.profit == max(sol.candidates.values()), factor

    @helpers.draws(20, seed=33020, base=helpers.sample_assumption1, factor=lambda rng: rng.uniform(1.001, 6.0))
    def test_rule_is_the_logit_optimum_at_the_reported_tilt(self, base, factor):
        # the tilt +-(1 + nu/s) prices both constraints; the generic solver's
        # optimum there must be the committed rule
        game = base._replace(lam=lambda_star(base) * factor)
        bound, sol = bind_high_effort(game), commitment_solve(game)
        if sol.induced_profile == (HI, HI):
            assert (sol.nu_m, sol.signal) == (bound.nu, bound.signal)
        tilt = 1.0 + bound.nu / (game.mu_hi * (1.0 - game.mu_hi))
        prior = tuple(state_distribution(game, (HI, HI)))
        rule = ri_core.solve_binary_ri(ri_core.BinaryRIProblem((-1, 0, 1), prior, (-tilt, 0.0, tilt), game.lam))
        got = (*bound.signal.as_tuple(), bound.signal.pi_bar)
        assert (*rule.conditional, rule.unconditional) == pytest.approx(got, rel=0.0, abs=1e-10)

    @helpers.draws(5, seed=33021, base=helpers.sample_condition5, noise_seed=lambda rng: rng.getrandbits(32))
    def test_condition5_band_prefers_discrimination(self, base, noise_seed):
        # between lambda_star and lambda_high the best equilibrium discriminates,
        # but a committed principal does better with the impartial X = c rule,
        # and no feasible rule near it earns more: 200 perturbations by N(0, 0.02)
        # in each conditional, clipped to [0, 1]
        noise = random.Random(noise_seed)
        cuts = thresholds(base)
        for frac in (0.25, 0.75):
            game = base._replace(lam=cuts.lambda_star + frac * (cuts.lambda_high - cuts.lambda_star))
            assert most_profitable(game)[0].classification == DISCRIMINATORY
            sol = commitment_solve(game)
            assert sol.induced_profile == (HI, HI) and sol.signal.impartial
            assert sol.profit > sol.candidates[(HI, LO)]
            prior = tuple(state_distribution(game, (HI, HI)))
            for _ in range(200):
                pi = [min(max(p + noise.gauss(0.0, 0.02), 0.0), 1.0) for p in sol.signal.as_tuple()]
                trial = PromotionSignal(*pi, sum(q * p for q, p in zip(prior, pi)))
                if supports_profile(game, trial, (HI, HI)):
                    assert evaluate(game, (HI, HI), trial).profit <= sol.profit + 1e-12, (frac, trial)


@helpers.draws(200, seed=31018, game=helpers.domain_game)
def test_commitment_on_the_whole_domain(game):
    try:
        sol = commitment_solve(game)
    except (ValueError, BracketError, ConvergenceError) as err:
        assert str(err)
        return
    assert math.isfinite(sol.profit)
    assert sol.profit >= max(r.profit for r in equilibrium_set(game)) - 1e-9
    # above lambda_star with c < 1/2, (hi, hi) is held by both constraints binding
    bound = bind_high_effort(game)
    assert (bound is None) == (game.c >= 0.5)
    if bound is not None and game.lam > lambda_star(game) + 1e-15:
        assert sol.candidates[(HI, HI)] == bound.profit and bound.nu > 0.0
        assert bound.signal.impartial
        for agent in (AGENT_M, AGENT_W):
            assert abs(incentive_gain(game, bound.signal, agent, HI) - game.c) <= 1e-12


def above_star_game(rng):
    """A game above lambda_star: a condition-5 game in (lambda_star, lambda_high), where the committed
    (hi, lo) rule is self-enforcing, or a game of helpers.any_domain_game moved to lambda_star
    exp([1e-3, 4]); a lambda_star of 0 (c >= 1/2) keeps the draw's lam."""
    if rng.random() < 0.5:
        game = helpers.sample_condition5(rng)
        cuts = thresholds(game)
        return game._replace(lam=cuts.lambda_star + rng.random() * (cuts.lambda_high - cuts.lambda_star))
    game, factor = helpers.any_domain_game(rng), math.exp(rng.uniform(1e-3, 4.0))
    star = lambda_star(game)
    return game._replace(lam=star * factor) if 0.0 < star * factor < math.inf else game


@helpers.draws(400, seed=51001, game=above_star_game)
def test_each_committed_outcome_has_the_envelope_slope(game):
    # above lambda_star, d profit / d lam = -I for every committed outcome: the (lo, lo) and (hi, lo) rules are
    # optima at lam (envelope theorem), and the bound (hi, hi) rule reads no lam, so V - lam I has slope -I exactly.
    # With h = 1e-5 lam the central difference is off by its rounding and its truncation. Each profit is within
    # 4 eps of S = V + lam I (the revenue and the bill, each rounded), which the quotient turns into 4 eps S / h;
    # the truncation h^2/6 |P'''| = h^2/6 |I''| is at most (h/lam)^2 I, as I'' <= 6 I / lam^2 for a bill that falls
    # no faster than 1/lam^2, the logit rule's at large lam (0 for the bound rule)
    h = 1e-5 * game.lam
    if not game.lam - h > lambda_star(game) + 1e-15:
        return
    try:
        below, at, above = (commitment_solve(game._replace(lam=game.lam + d)) for d in (-h, 0.0, h))
    except (ValueError, BracketError, ConvergenceError) as err:
        assert str(err)
        return
    if not below.candidates.keys() == at.candidates.keys() == above.candidates.keys():
        return  # the candidate set changes within the step
    for profile in at.candidates:
        signal = bind_high_effort(game).signal if profile == (HI, HI) else optimal_signal(game, profile)
        rec = evaluate(game, profile, signal)
        assert rec.profit == at.candidates[profile], profile
        slope = (above.candidates[profile] - below.candidates[profile]) / (2.0 * h)
        tol = 4.0 * sys.float_info.epsilon * (rec.revenue + game.lam * rec.info_cost) / h
        tol += (h / game.lam) ** 2 * rec.info_cost
        assert abs(slope + rec.info_cost) <= tol, (profile, slope, rec.info_cost, tol)


@helpers.draws(
    100,
    seed=51002,
    cases=[dict(game=GameParams(0.6, 0.3, 0.117, 1.0), lo=0.2, span=5.0, steps=5)],
    game=helpers.any_domain_game,
    lo=lambda rng: 10.0 ** rng.uniform(-4.0, 3.0),
    span=lambda rng: 10.0 ** rng.uniform(0.1, 1.0),
    steps=lambda rng: rng.randint(2, 12),
)
def test_the_variants_sweep_row_is_the_public_solutions(game, lo, span, steps):
    # a variants sweep row ranks _commitment's outcomes and counts _mixed's triples itself: at each point
    # of the grid from lo to lo * span its cells are commitment_solve's and len(mixed_equilibria), bit for bit
    va = variants._variants_game(game)
    for i in range(steps):
        lam = lo + (lo * span - lo) * i / (steps - 1)
        point = game._replace(lam=lam)
        sol = commitment_solve(point)
        want = [lam, f"{sol.induced_profile[0]},{sol.induced_profile[1]}", sol.profit, len(mixed_equilibria(point))]
        assert hexed(_sweep._variants_row(va, lam)) == hexed(want), lam


@helpers.draws(
    200,
    seed=31019,
    game=helpers.domain_game,
    log_ratio=lambda rng: rng.uniform(0.0, 3.0),
    log_du=lambda rng: rng.uniform(-0.3, 0.3),
)
def test_equilibrium_sets_on_the_whole_domain(game, log_ratio, log_du):
    # c_w / c_m = 10**log_ratio >= 1, so m is the agent with the lower effective cost
    du_m, du_w = 10.0**log_du, 10.0**-log_du
    het = HeterogeneousParams(game.cost_C, game.cost_C * du_w / du_m * 10.0**log_ratio, du_m, du_w)
    for solve in (lambda: equilibrium_set(game), lambda: heterogeneous_equilibrium_set(game, het)):
        try:
            records = solve()
        except (ValueError, BracketError, ConvergenceError) as err:
            assert str(err)
            continue
        for rec in records:
            assert rec.profile in PROFILES and rec.classification in (IMPARTIAL, DISCRIMINATORY)
            numbers = (*rec.signal, rec.revenue, rec.info_cost, rec.profit, rec.utility_m, rec.utility_w)
            assert all(math.isfinite(v) for v in numbers), (game, het, rec)


class TestPriorInvariant:
    def test_matching_reference_prior_reduces_to_baseline(self):
        for profile in ((HI, LO), (HI, HI), (LO, HI)):
            for lam in (0.2, 0.3, 0.8):
                game = GAME._replace(lam=lam)
                dist = tuple(state_distribution(game, profile))
                result = prior_invariant_signal(ReferencePriorProblem(dist, dist, lam))
                assert result.interior
                base = optimal_signal(game, profile)
                worst = max(
                    abs(a - b) for a, b in zip(result.signal.as_tuple(), base.as_tuple())
                )
                assert worst <= 1e-9

    def test_symmetric_reference_keeps_impartiality(self):
        p = tuple(state_distribution(GAME, (HI, HI)))
        q = (0.25, 0.5, 0.25)
        result = prior_invariant_signal(ReferencePriorProblem(p, q, 0.3))
        assert result.interior and result.signal.impartial

    def test_asymmetric_reference_breaks_impartiality(self):
        p = tuple(state_distribution(GAME, (HI, HI)))
        result = prior_invariant_signal(ReferencePriorProblem(p, (0.3, 0.5, 0.2), 0.3))
        assert result.interior
        assert not result.signal.impartial

    def test_balanced_average_bonus_formulas(self):
        # pi(+-1) is the logit at base ln(pi_bar_q/(1 - pi_bar_q)) tilted by the
        # log-tilts a = p(1)/(lam q(1)) and -b = -p(-1)/(lam q(-1))
        p = tuple(state_distribution(GAME, (HI, HI)))
        for q in ((0.3, 0.5, 0.2), (0.25, 0.5, 0.25), (0.1, 0.3, 0.6)):
            for lam in (0.05, 0.3, 2.0):
                result = prior_invariant_signal(ReferencePriorProblem(p, q, lam))
                assert result.interior
                a, b = p[2] / (lam * q[2]), p[0] / (lam * q[0])
                base = math.log(result.pi_bar_q / (1.0 - result.pi_bar_q))
                sig = result.signal
                assert sig.pi_plus == pytest.approx(1.0 / (1.0 + math.exp(-(base + a))), abs=1e-12)
                assert sig.pi_minus == pytest.approx(1.0 / (1.0 + math.exp(-(base - b))), abs=1e-12)
                assert sig.pi_zero == result.pi_bar_q

    def test_full_support_required(self):
        with pytest.raises(ValueError):
            ReferencePriorProblem((0.2, 0.5, 0.3), (0.0, 0.5, 0.5), 0.3)

    def test_tiny_lambda_does_not_overflow(self, capsys):
        # exp(p(1)/(lam q(1))) = exp(1066.7) overflows a double; the log-tilts do not
        from riscreen import cli

        code = cli.main(["variants", "--which", "prior-invariant", "--mu-hi", ".8", "--mu-lo", ".6",
                         "--lambda", "0.001", "--ref-prior", ".3,.4,.3"])
        assert code == 0
        assert capsys.readouterr().out == "pi=(0.0000, 0.5000, 1.0000) pi_bar_q=0.5000 impartial=True\n"


def _log_weights(rng) -> tuple:
    """Three log10 weights of a reference prior, each in [-12, 0]."""
    return tuple(rng.uniform(-12.0, 0.0) for _ in range(3))


def test_log_weights_stay_in_their_box():
    rng = random.Random(31024)
    draws = [_log_weights(rng) for _ in range(300)]
    assert all(len(w) == 3 and all(-12.0 <= x <= 0.0 for x in w) for w in draws)


@helpers.draws(
    300,
    seed=31020,
    cases=[dict(game=GameParams(0.8, 0.6, 0.07, 1e-3), profile=(HI, LO), log_weights=(0.0, math.log10(4.0 / 3.0), 0.0))],
    game=helpers.domain_game,
    profile=lambda rng: rng.choice(PROFILES),
    log_weights=_log_weights,
)
def test_prior_invariant_on_the_whole_domain(game, profile, log_weights):
    weights = [10.0 ** w for w in log_weights]
    ref = tuple(w / sum(weights) for w in weights)
    dist = tuple(state_distribution(game, profile))
    try:
        result = prior_invariant_signal(ReferencePriorProblem(dist, ref, game.lam))
        mirror = prior_invariant_signal(ReferencePriorProblem(dist[::-1], ref[::-1], game.lam))
    except ConvergenceError as err:
        assert str(err)
        return
    assert result.interior == mirror.interior
    if not result.interior:
        assert result.signal is None
        return
    sig = result.signal
    values = (*sig.as_tuple(), sig.pi_bar)
    assert all(0.0 <= v <= 1.0 for v in values)
    assert sig.pi_minus <= sig.pi_zero <= sig.pi_plus
    residual = sum(q * pi for q, pi in zip(ref, sig.as_tuple())) - sig.pi_bar
    assert abs(residual) <= 1e-10
    flipped = mirror.signal.mirrored()
    assert (*flipped.as_tuple(), flipped.pi_bar) == pytest.approx(values, rel=0.0, abs=1e-12)


@helpers.draws(
    300,
    seed=31021,
    cases=[
        # a symmetric true prior at lam = 1e4: up and down are each about lam q(1) q(-1) / p(d)
        dict(game=GameParams(0.99, 0.5, 0.05, 1e4), profile=(HI, HI),
             log_weights=(0.0, -1.0, math.log10(3.0)), symmetric_reference=False),
    ],
    game=helpers.domain_game,
    profile=lambda rng: rng.choice(PROFILES),
    log_weights=_log_weights,
    symmetric_reference=lambda rng: rng.random() < 0.5,
)
def test_prior_invariant_matches_a_60_digit_reference(game, profile, log_weights, symmetric_reference):
    weights = [10.0 ** w for w in log_weights]
    if symmetric_reference:
        weights[2] = weights[0]
    ref = tuple(w / sum(weights) for w in weights)
    dist = tuple(state_distribution(game, profile))
    try:
        result = prior_invariant_signal(ReferencePriorProblem(dist, ref, game.lam))
    except ConvergenceError:
        return
    if not result.interior:
        return
    with exact.digits(60):
        want = exact.prior_invariant(dist, ref, game.lam)
        assert want is not None
        X, Y = float(want[2] - want[0]), float(want[0] - want[1])
    pi_bar_q, pi_minus, pi_plus = (float(v) for v in want)
    assert abs(result.pi_bar_q - pi_bar_q) <= 1e-12 * pi_bar_q, (result.pi_bar_q, pi_bar_q)
    assert abs(result.signal.pi_minus - pi_minus) <= 1e-12, (result.signal.pi_minus, pi_minus)
    assert abs(result.signal.pi_plus - pi_plus) <= 1e-12, (result.signal.pi_plus, pi_plus)
    # the logit kernel forms X and Y without cancellation: the worst of these draws is 1.8e-15 relative,
    # while X and Y taken as differences of the conditionals are up to 1.1e-5 and 1.4e-8 off
    assert abs(result.signal.X - X) <= 4e-15 * X and abs(result.signal.Y - Y) <= 4e-15 * Y, (result.signal, X, Y)


@helpers.draws(
    300,
    seed=48001,
    game=helpers.domain_game,
    profile=lambda rng: rng.choice(PROFILES),
    log_weights=lambda rng: tuple(rng.uniform(-6.0, 0.0) for _ in range(3)),
)
def test_prior_invariant_matches_the_generic_solver(game, profile, log_weights):
    # the rule solves the binary RI problem on the reference prior q with advantage d p(d)/q(d), which
    # the oracle solves without the closed form: ri_core decides interior versus corner, and the
    # 60-digit bisection, fed the exact advantages, gives the conditionals. They are held to 1e-12
    # relative, the 60-digit reference test's bound on pi_bar_q: the library rounds the slopes
    # p(d)/(q(d) lam), which shifts a logit t by |t| ulps (1.3e-13 relative at worst on these draws).
    # solve_binary_ri's own conditionals are not compared: where p(1) = p(-1) the problem is
    # ill-conditioned, and at a (hi, hi) draw at lam 4,198 rounding the advantages to floats alone
    # moves the 60-digit pi_bar_q by 2.2e-9.
    weights = [10.0 ** w for w in log_weights]
    ref = tuple(w / sum(weights) for w in weights)
    dist = tuple(state_distribution(game, profile))
    result = prior_invariant_signal(ReferencePriorProblem(dist, ref, game.lam))
    advantage = (-dist[0] / ref[0], 0.0, dist[2] / ref[2])
    rule = ri_core.solve_binary_ri(ri_core.BinaryRIProblem((-1, 0, 1), ref, advantage, game.lam))
    assert result.interior == (not rule.degenerate), (result, rule)
    if not result.interior:
        return
    with exact.digits(60):
        advantage = (-Decimal(dist[0]) / Decimal(ref[0]), Decimal(0), Decimal(dist[2]) / Decimal(ref[2]))
        conditionals, _ = exact.binary_ri_rule(ref, advantage, game.lam)
    for got, want in zip(result.signal.as_tuple(), conditionals):
        assert abs(got - want) <= 1e-12 * want, (result.signal, conditionals)


class TestMixed:
    def test_no_both_mixing_away_from_star(self):
        # mu_lo > 1/2 rules out the balanced branch entirely
        for lam in (0.2, 0.3, 0.45, 0.7, 1.2):
            for eq in mixed_equilibria(helpers.canonical(lam)):
                assert eq.profile.sigma_w == 0.0 or eq.profile.sigma_m == 1.0

    def test_star_admits_symmetric_mixing(self):
        cuts = thresholds(GAME)
        eqs = mixed_equilibria(helpers.canonical(cuts.lambda_star))
        both = [e for e in eqs if 0 < e.profile.sigma_m < 1 and 0 < e.profile.sigma_w < 1]
        assert len(both) == 1
        sig = both[0].signal
        assert sig.impartial
        assert sig.X == pytest.approx(GAME.c, abs=1e-9)

    def test_one_sided_solutions_verify_indifference(self):
        eqs = mixed_equilibria(helpers.canonical(0.3))
        assert eqs
        for eq in eqs:
            nu_m = GAME.mu_lo + eq.profile.sigma_m * GAME.delta_mu
            nu_w = GAME.mu_lo + eq.profile.sigma_w * GAME.delta_mu
            sig = success_signal(GAME.lam, nu_m, nu_w)
            if 0 < eq.profile.sigma_m < 1:
                mixing_gain = (1 - nu_w) * sig.X + nu_w * sig.Y
            else:
                mixing_gain = nu_m * sig.X + (1 - nu_m) * sig.Y
            assert mixing_gain == pytest.approx(GAME.c, abs=1e-8)

    @pytest.mark.parametrize("lam", [1e-4, 0.3, 1.0, 3.0, 1e4])
    @pytest.mark.parametrize(
        "edge, near",
        [
            # mu_lo (1 - nu) underflows to 0 in the odds edges of m's branch
            (GameParams(0.7, 5e-324, 0.01, 1.0), GameParams(0.7, 1e-300, 0.01, 1.0)),
            # the mirror: mu_hi within an ulp of 1
            (GameParams(0.9999999999999999, 0.3, 0.01, 1.0), GameParams(1.0 - 1e-12, 0.3, 0.01, 1.0)),
        ],
        ids=["mu-lo-subnormal", "mu-hi-near-one"],
    )
    def test_mu_at_the_float_edges(self, edge, near, lam):
        edge, near = edge._replace(lam=lam), near._replace(lam=lam)
        got = mixed_equilibria(edge)
        want = mixed_equilibria(near)
        assert [e.classification for e in got] == [e.classification for e in want]
        for eq, ref in zip(got, want):
            assert eq.profile.sigma_m == pytest.approx(ref.profile.sigma_m, abs=1e-9)
            assert eq.profile.sigma_w == pytest.approx(ref.profile.sigma_w, abs=1e-9)
            assert all(0.0 <= p <= 1.0 for p in eq.signal.as_tuple())
            nu_m = edge.mu_lo + eq.profile.sigma_m * edge.delta_mu
            nu_w = edge.mu_lo + eq.profile.sigma_w * edge.delta_mu
            sig = success_signal(edge.lam, nu_m, nu_w)
            gain_m = (1 - nu_w) * sig.X + nu_w * sig.Y
            gain_w = nu_m * sig.X + (1 - nu_m) * sig.Y
            if 0 < eq.profile.sigma_m < 1:
                assert gain_m == pytest.approx(edge.c, abs=1e-8)
            if 0 < eq.profile.sigma_w < 1:
                assert gain_w == pytest.approx(edge.c, abs=1e-8)

    def test_balanced_branch_when_low_effort_is_weak(self):
        # mu_lo < 1/2 opens the branch with nu_m + nu_w = 1
        game = GameParams(0.8, 0.4, 0.14, 0.5)
        eqs = mixed_equilibria(game)
        balanced = [
            e for e in eqs if 0 < e.profile.sigma_m < 1 and 0 < e.profile.sigma_w < 1
        ]
        assert balanced
        for eq in balanced:
            nu_m = game.mu_lo + eq.profile.sigma_m * game.delta_mu
            nu_w = game.mu_lo + eq.profile.sigma_w * game.delta_mu
            assert nu_m + nu_w == pytest.approx(1.0, abs=1e-7)
            assert eq.classification == DISCRIMINATORY
            # both agents indifferent at the supporting signal
            sig = success_signal(game.lam, nu_m, 1.0 - nu_m)
            gain_m = (1 - (1 - nu_m)) * sig.X + (1 - nu_m) * sig.Y
            gain_w = nu_m * sig.X + (1 - nu_m) * sig.Y
            assert gain_m == pytest.approx(game.c, abs=1e-8)
            assert gain_w == pytest.approx(game.c, abs=1e-8)


def low_sum_game(rng):
    """A game where the pure agent's check binds: mu_lo in [0.01, 0.49], mu_hi in (mu_lo, 1 - mu_lo),
    so mu_hi + mu_lo < 1, c in [0.01, 0.49] and lam lambda_star exp([-1.5, 0.5])."""
    mu_lo = rng.uniform(0.01, 0.49)
    mu_hi = mu_lo + rng.uniform(0.02, 0.98) * (1.0 - 2.0 * mu_lo)
    game = GameParams(mu_hi, mu_lo, rng.uniform(0.01, 0.49) * (mu_hi - mu_lo), 1.0)
    return game._replace(lam=lambda_star(game) * math.exp(rng.uniform(-1.5, 0.5)))


def pure_agent_verdicts(game):
    """(branch, interval rule, signal check) at each root of either one-sided branch of _mixed whose signal is
    interior: nu_m >= 1 - mu_lo against w's shirking at the signal, nu_w >= 1 - mu_hi against m's working."""
    va, lam, c, mu_hi, mu_lo = variants._variants_game(game), game.lam, game.c, game.mu_hi, game.mu_lo
    r = math.exp(-1.0 / lam)
    k = c * (1.0 - r * r)
    verdicts = []
    for rho in variants._odds_roots(r, k, 1.0 - mu_lo, mu_lo, *va.rho_m):
        nu_m = rho * mu_lo / (1.0 - mu_lo + rho * mu_lo)
        sig = signal_from_odds(nu_m * (1.0 - mu_lo), mu_lo * (1.0 - nu_m), lam)
        if sig is not None:
            verdicts.append(("m", nu_m >= 1.0 - mu_lo, _incentive_holds(LO, _gains(nu_m, mu_lo, sig)[1], c)))
    for rho in variants._odds_roots(r, k, mu_hi, 1.0 - mu_hi, *va.rho_w):
        nu_w = mu_hi / (mu_hi + rho * (1.0 - mu_hi))
        sig = signal_from_odds(mu_hi * (1.0 - nu_w), nu_w * (1.0 - mu_hi), lam)
        if sig is not None:
            verdicts.append(("w", nu_w >= 1.0 - mu_hi, _incentive_holds(HI, _gains(mu_hi, nu_w, sig)[0], c)))
    return verdicts


def test_the_pure_agent_check_is_an_interval_in_nu():
    # at a root of one agent's indifference the other's gain differs from c by (nu + mu - 1)(X - Y), X <= Y,
    # so the check that _mixed makes on nu alone keeps a root exactly when the signal's incentive test does
    rng, kept, rejected = random.Random(51003), Counter(), Counter()
    samplers = (helpers.domain_game, helpers.edge_game, helpers.near_half_game, helpers.near_star_game, low_sum_game)
    for sampler in samplers:
        for i in range(600):
            for branch, interval, check in pure_agent_verdicts(sampler(rng)):
                assert interval == check, (sampler.__name__, i, branch)
                (kept if check else rejected)[branch] += 1
    # both verdicts are met on both branches, so the test is not vacuous
    assert min(kept["m"], kept["w"], rejected["m"], rejected["w"]) >= 20, (kept, rejected)


def test_the_row_at_a_rejected_root():
    # at (.6, .3, .117) and lam 0.4 the balanced pair and one root on each side are the candidates, and the
    # root of m's indifference is dropped: w would work there (nu_m < 1 - mu_lo); at lam 0.2, its one root is dropped
    game = GameParams(0.6, 0.3, 0.117, 0.4)
    assert [(branch, check) for branch, _, check in pure_agent_verdicts(game)] == [("m", False), ("w", True)]
    assert len(mixed_equilibria(game)) == 3
    assert _sweep._variants_row(variants._variants_game(game), 0.4)[3] == 3
    assert [(branch, check) for branch, _, check in pure_agent_verdicts(game._replace(lam=0.2))] == [("m", False)]
    assert mixed_equilibria(game._replace(lam=0.2)) == []


class TestContinuousEffort:
    def test_symmetric_fixed_point_everywhere(self):
        results = continuous_effort_equilibria(0.65, helpers.linspace(0.1, 5.0, 25), 100)
        assert all(r.symmetric for r in results)

    def test_large_lambda_drives_effort_to_zero(self):
        (res,) = continuous_effort_equilibria(0.65, [500.0], 100)
        assert res.symmetric
        assert min(fp[0] for fp in res.symmetric) == 0.0

    def test_interior_symmetric_effort_tracks_incentive(self):
        for lam in (0.3, 0.8, 2.0):
            (res,) = continuous_effort_equilibria(0.65, [lam], 100)
            target = exact.g(math.exp(1.0 / lam)) / 0.65
            nearest = min(helpers.linspace(0.0, 1.0, 100), key=lambda x: abs(x - target))
            assert any(fp == (nearest, nearest) for fp in res.symmetric)

    def test_matches_scalar_recomputation_on_small_grid(self):
        # re-derive the best responses cell by cell with the generic solver
        from riscreen import ri_core

        lam, kappa, n = 0.4, 0.65, 21
        (res,) = continuous_effort_equilibria(kappa, [lam], n)
        grid = helpers.linspace(0.0, 1.0, n)
        fixed = set()
        for i, mu_m in enumerate(grid):
            for j, mu_w in enumerate(grid):
                p_plus = mu_m * (1 - mu_w)
                p_minus = mu_w * (1 - mu_m)
                prior = (p_minus, 1 - p_plus - p_minus, p_plus)
                if p_plus > 0 and p_minus > 0:
                    rule = ri_core.solve_binary_ri(
                        ri_core.BinaryRIProblem((-1, 0, 1), prior, (-1.0, 0.0, 1.0), lam)
                    )
                    q = rule.conditional
                else:
                    ratio_up = p_plus > 0
                    q = (1.0, 1.0, 1.0) if ratio_up else (0.0, 0.0, 0.0) if p_minus > 0 else (0.5, 0.5, 0.5)
                X, Y = q[2] - q[1], q[1] - q[0]
                g_m = (1 - mu_w) * X + mu_w * Y
                g_w = mu_m * X + (1 - mu_m) * Y
                br_m = max(range(n), key=lambda k: (grid[k] * g_m - 0.5 * kappa * grid[k] ** 2, -k))
                br_w = max(range(n), key=lambda k: (grid[k] * g_w - 0.5 * kappa * grid[k] ** 2, -k))
                if br_m == i and br_w == j:
                    fixed.add((round(float(mu_m), 12), round(float(mu_w), 12)))
        got = {(round(a, 12), round(b, 12)) for a, b in res.fixed_points}
        assert got == fixed

    @helpers.draws(
        60,
        seed=31022,
        cases=[
            dict(log_kappa=0.0, log_lams=[0.0], grid_size=2),
            dict(log_kappa=0.0, log_lams=[-4.0, 4.0], grid_size=3),
        ],
        log_kappa=lambda rng: rng.uniform(-2.0, 2.0),
        log_lams=lambda rng: [rng.uniform(-4.0, 4.0) for _ in range(rng.randint(1, 4))],
        grid_size=lambda rng: rng.randint(2, 200),
    )
    def test_equals_the_exhaustive_scan(self, log_kappa, log_lams, grid_size):
        kappa, lams = 10.0**log_kappa, [10.0**x for x in log_lams]
        got = continuous_effort_equilibria(kappa, lams, grid_size)
        assert got == helpers.continuous_effort_scan(kappa, lams, grid_size)

    @pytest.mark.parametrize(
        "lams",
        [
            [0.1 + (5.0 - 0.1) * i / 11 for i in range(12)],  # the CLI grid of the benchmark's sweep
            helpers.linspace(0.1, 5.0, 100),
        ],
    )
    def test_equals_the_exhaustive_scan_on_the_sweeps(self, lams):
        assert continuous_effort_equilibria(0.65, lams, 100) == helpers.continuous_effort_scan(0.65, lams, 100)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            continuous_effort_equilibria(0.0, [0.5], 10)
        with pytest.raises(ValueError):
            continuous_effort_equilibria(0.65, [0.5], 1)
