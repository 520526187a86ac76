"""Tests for the model variants."""

import math
import random

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
    f_inverse,
    heterogeneous_equilibrium_set,
    incentive_gain,
    mixed_equilibria,
    most_profitable,
    optimal_signal,
    prior_invariant_signal,
    state_distribution,
    thresholds,
)
from riscreen import ri_core
from riscreen.baseline_game import lambda_star, supports_profile
from riscreen.ri_core import BracketError, ConvergenceError
from riscreen.variants import _signal_for_success_probs

import exact
import helpers

GAME = helpers.canonical()
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
        from riscreen import g_inverse

        c_m, c_w = 0.25, 0.40
        het = HeterogeneousParams(c_m * GAME.delta_mu, c_w * GAME.delta_mu)
        lam_hi_edge = 1.0 / math.log(g_inverse(c_w))   # below: (hi, hi)
        lam_lo_edge = 1.0 / math.log(g_inverse(c_m))   # above: (lo, lo)
        assert lam_hi_edge < lam_lo_edge
        lam = 0.5 * (lam_hi_edge + lam_lo_edge)
        profiles = [r.profile for r in heterogeneous_equilibrium_set(GAME._replace(lam=lam), het)]
        assert (HI, HI) not in profiles and (LO, LO) not in profiles

    def test_low_sum_productivity_discrimination(self):
        # mu_hi + mu_lo < 1 supports (hi, lo) when w's cost is enough higher
        game = GameParams(0.6, 0.3, 0.1 * 0.3, 1.0)
        het = HeterogeneousParams(0.1 * 0.3, 0.15 * 0.3)
        # m works while X reaches c_m (1-mu_hi)/(1-mu_lo); w shirks while X stays below c_w mu_lo/mu_hi
        lo = f_inverse(game, 0.1 * (1.0 - game.mu_hi) / (1.0 - game.mu_lo))
        hi = f_inverse(game, 0.15 * game.mu_lo / game.mu_hi)
        assert lo < hi
        lam = 1.0 / math.log(0.5 * (lo + hi))
        profiles = [r.profile for r in heterogeneous_equilibrium_set(game._replace(lam=lam), het)]
        assert (HI, LO) in profiles
        assert (HI, LO) in helpers.direct_ic_equilibria(game._replace(lam=lam), 1e-12 * game.delta_mu,
                                                        (het.cost_m, het.cost_w))
        # but not when the cost ratio sits below the bound
        het_close = HeterogeneousParams(0.1 * 0.3, 0.105 * 0.3)
        lo2 = f_inverse(game, 0.1 * (1.0 - game.mu_hi) / (1.0 - game.mu_lo))
        hi2 = f_inverse(game, 0.105 * game.mu_lo / game.mu_hi)
        assert lo2 > hi2
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

    def test_makes_no_root_search(self, monkeypatch):
        calls = []
        find_root = ri_core.find_root

        def counted(*args, **kwargs):
            calls.append(None)
            return find_root(*args, **kwargs)

        monkeypatch.setattr(ri_core, "find_root", counted)
        for lam in helpers.linspace(0.1, 3.0, 30):
            commitment_solve(helpers.canonical(lam))
        assert calls == []

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
    pi_bar_q, pi_minus, pi_plus = (float(v) for v in want)
    assert abs(result.pi_bar_q - pi_bar_q) <= 1e-12 * pi_bar_q, (result.pi_bar_q, pi_bar_q)
    assert abs(result.signal.pi_minus - pi_minus) <= 1e-12, (result.signal.pi_minus, pi_minus)
    assert abs(result.signal.pi_plus - pi_plus) <= 1e-12, (result.signal.pi_plus, pi_plus)


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
            sig = _signal_for_success_probs(math.exp(-1.0 / GAME.lam), nu_m, nu_w)
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
            sig = _signal_for_success_probs(math.exp(-1.0 / edge.lam), nu_m, nu_w)
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
            sig = _signal_for_success_probs(math.exp(-1.0 / game.lam), nu_m, 1.0 - nu_m)
            gain_m = (1 - (1 - nu_m)) * sig.X + (1 - nu_m) * sig.Y
            gain_w = nu_m * sig.X + (1 - nu_m) * sig.Y
            assert gain_m == pytest.approx(game.c, abs=1e-8)
            assert gain_w == pytest.approx(game.c, abs=1e-8)


class TestContinuousEffort:
    def test_symmetric_fixed_point_everywhere(self):
        results = continuous_effort_equilibria(0.65, helpers.linspace(0.1, 5.0, 25), 100)
        assert all(r.symmetric for r in results)

    def test_large_lambda_drives_effort_to_zero(self):
        (res,) = continuous_effort_equilibria(0.65, [500.0], 100)
        assert res.symmetric
        assert min(fp[0] for fp in res.symmetric) == 0.0

    def test_interior_symmetric_effort_tracks_incentive(self):
        from riscreen import g_func

        for lam in (0.3, 0.8, 2.0):
            (res,) = continuous_effort_equilibria(0.65, [lam], 100)
            target = g_func(math.exp(1.0 / lam)) / 0.65
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
