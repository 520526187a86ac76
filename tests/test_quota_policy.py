"""Tests for the equal-promotion quota analysis."""

import math
from decimal import Decimal

import pytest

from riscreen import (
    AGENT_M,
    AGENT_W,
    HI,
    IMPARTIAL,
    LO,
    PROFILES,
    GameParams,
    equilibrium_set,
    find_multiplier,
    incentive_gain,
    mutual_information,
    optimal_signal,
    quota_equilibrium_set,
    subsidized_signal,
    state_distribution,
)

from riscreen.baseline_game import supports_profile
from riscreen.quota_policy import GAIN_ALLOWANCE

import exact
import helpers
from test_regime_map import sum_below_one_game

GAME = helpers.canonical()
LAM_STAR = 0.576501436392967


class TestSubsidizedSignal:
    def test_zero_subsidy_is_baseline(self):
        for profile in PROFILES:
            base = optimal_signal(GAME, profile)
            sub = subsidized_signal(GAME, profile, 0.0)
            assert sub.as_tuple() == pytest.approx(base.as_tuple(), abs=1e-9)

    def test_average_falls_with_subsidy(self):
        # symmetric profile: pi_bar slides below 1/2 as nu grows
        bars = [subsidized_signal(GAME, (HI, HI), nu).pi_bar for nu in helpers.linspace(0.0, 1.5, 16)]
        assert bars[0] == pytest.approx(0.5, abs=1e-9)
        assert all(b < a + 1e-12 for a, b in zip(bars, bars[1:]))

    def test_monotone_for_asymmetric_profile(self):
        # weakly decreasing overall; flat only on the degenerate plateaus
        bars = [subsidized_signal(GAME, (HI, LO), nu).pi_bar for nu in helpers.linspace(-2.0, 2.0, 21)]
        assert all(b <= a + 1e-12 for a, b in zip(bars, bars[1:]))
        interior = [(a, b) for a, b in zip(bars, bars[1:]) if 0.0 < b and a < 1.0]
        assert interior and all(b < a for a, b in interior)


class TestFindMultiplier:
    def test_symmetric_profiles_need_no_subsidy(self):
        for profile in ((HI, HI), (LO, LO)):
            sol = find_multiplier(GAME, profile)
            assert sol.nu == 0.0
            assert sol.signal.pi_bar == pytest.approx(0.5, abs=1e-12)

    def test_asymmetric_profile_binds(self):
        sol = find_multiplier(GAME, (HI, LO))
        assert sol.nu > 0.0
        assert sol.signal.pi_bar == pytest.approx(0.5, abs=1e-9)
        # verified through the full solver as well
        again = subsidized_signal(GAME, (HI, LO), sol.nu)
        assert again.pi_bar == pytest.approx(0.5, abs=1e-9)

    def test_mirror_multiplier_flips_sign(self):
        plus = find_multiplier(GAME, (HI, LO))
        minus = find_multiplier(GAME, (LO, HI))
        assert minus == (-plus.nu, plus.signal.mirrored())

    def test_bisection_from_two_brackets_agrees(self):
        # pi_bar - 1/2 of the binding logit rule sigmoid((d - nu)/lam), decreasing in nu
        prior = tuple(state_distribution(GAME, (HI, LO)))

        def residual(nu):
            return sum(p / (1.0 + math.exp((nu - d) / GAME.lam)) for p, d in zip(prior, (-1, 0, 1))) - 0.5

        sol = find_multiplier(GAME, (HI, LO))
        for lo, hi in ((-3.0, 3.0), (-40.0, 40.0)):
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if residual(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            assert sol.nu == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_binding_quota_shape(self):
        for lam in (0.15, 0.3, 0.6, 1.5):
            game = GAME._replace(lam=lam)
            sol = find_multiplier(game, (HI, LO))
            sig = sol.signal
            assert sol.nu > 0.0
            assert sig.pi_zero < 0.5
            assert sig.X > sig.Y > 0.0
            # X/Y of the logit rule at nu, (e^((nu+1)/lam) + 1) / (e^(1/lam) + e^(nu/lam))
            ratio = (math.exp((sol.nu + 1.0) / lam) + 1.0) / (math.exp(1.0 / lam) + math.exp(sol.nu / lam))
            assert sig.X / sig.Y == pytest.approx(ratio, abs=1e-8)

    def test_find_multiplier_meets_the_quota_across_lambda(self):
        games = [GAME._replace(lam=lam) for lam in (1e-4, 0.01, 0.3, 2.0, 1e4)]
        games += [GameParams(0.999, 0.0011, 0.07, lam) for lam in (1e-4, 0.01, 0.3, 1e4)]
        for game in games:
            for profile in PROFILES:
                assert find_multiplier(game, profile).signal.pi_bar == pytest.approx(0.5, abs=1e-12)

    def test_edge_branches(self):
        # nu -> 1 as lam -> 0 once p(1) > 1/2, through 1 + lam ln(2 p(1) - 1)
        game = GameParams(0.999, 0.0011, 0.07, 1e-4)
        p_plus = state_distribution(game, (HI, LO)).p_plus
        limit = 1.0 + game.lam * math.log(2.0 * p_plus - 1.0)
        for profile, sign in (((HI, LO), 1.0), ((LO, HI), -1.0)):
            assert find_multiplier(game, profile).nu == pytest.approx(sign * limit, rel=1e-12)
        # nu -> p(1) - p(-1) = mu_hi - mu_lo as lam grows
        wide = GAME._replace(lam=1e4)
        assert find_multiplier(wide, (HI, LO)).nu == pytest.approx(0.2, rel=1e-4)
        # p(1) rounds to 1/2: the residual at nu = 1/2 is 0 in floating point, so 1/2 is the root
        flat = GameParams(0.75, 1.0 / 3.0, 0.07, 1e-4)
        assert state_distribution(flat, (HI, LO)).p_plus == 0.5
        sol = find_multiplier(flat, (HI, LO))
        assert sol.nu == 0.5 and sol.signal.pi_bar == 0.5

    def test_prior_is_built_once(self, monkeypatch):
        from riscreen import quota_policy

        calls = []
        real = quota_policy.state_distribution
        monkeypatch.setattr(quota_policy, "state_distribution", lambda *a: calls.append(a) or real(*a))
        for lam in (1e-4, 0.3, 1e4):
            game = GAME._replace(lam=lam)
            for profile in ((HI, LO), (LO, HI)):
                calls.clear()
                find_multiplier(game, profile)
                assert calls == [(game, (HI, LO))]  # (lo, hi) is solved as (hi, lo)


class TestQuotaEquilibria:
    def test_canonical_drops_discrimination(self):
        profiles = [r.profile for r in quota_equilibrium_set(GAME)]
        assert profiles == [(HI, HI)]

    def test_high_lambda(self):
        profiles = [r.profile for r in quota_equilibrium_set(helpers.canonical(1.0))]
        assert profiles == [(LO, LO)]

    def test_knife_edge_keeps_both_impartial(self):
        profiles = [r.profile for r in quota_equilibrium_set(helpers.canonical(LAM_STAR))]
        assert profiles == [(HI, HI), (LO, LO)]

    def test_creates_discrimination_below_the_line(self):
        # mu_hi + mu_lo = 0.9: the worker's gain is the larger, and c = 0.39 lies between the two
        skewed = GameParams(0.6, 0.3, 0.117, 0.5)
        signal = find_multiplier(skewed, (HI, LO)).signal
        assert incentive_gain(skewed, signal, AGENT_W, HI) < skewed.c < incentive_gain(skewed, signal, AGENT_M, LO)
        assert [r.profile for r in quota_equilibrium_set(skewed)] == [(HI, LO), (LO, HI), (LO, LO)]
        assert [r.profile for r in equilibrium_set(skewed)] == [(LO, LO)]


def _primal_grid_value(game, profile, center, span, step):
    """Best objective over signals satisfying the quota, on a (pi1, pi0) grid.
    An array oracle: the calling test skips where numpy is absent."""
    np = pytest.importorskip("numpy")
    dist = state_distribution(game, profile)
    p_m, p_0, p_p = tuple(dist)
    pi1 = np.arange(max(0.0, center[0] - span), min(1.0, center[0] + span) + step, step)
    pi0 = np.arange(max(0.0, center[1] - span), min(1.0, center[1] + span) + step, step)
    P1, P0 = np.meshgrid(pi1, pi0, indexing="ij")
    PM = (0.5 - p_p * P1 - p_0 * P0) / p_m
    ok = (PM >= 0.0) & (PM <= 1.0)
    P1, P0, PM = P1[ok], P0[ok], PM[ok]

    def h(x):
        out = np.zeros_like(x)
        m = (x > 0) & (x < 1)
        out[m] = x[m] * np.log(x[m]) + (1 - x[m]) * np.log1p(-x[m])
        return out

    bar = p_p * P1 + p_0 * P0 + p_m * PM
    info = p_p * h(P1) + p_0 * h(P0) + p_m * h(PM) - h(bar)
    value = (p_p * P1 - p_m * PM) + game.mu(profile[1]) - game.lam * np.maximum(info, 0.0)
    best = int(np.argmax(value))
    return float(value[best]), (float(P1[best]), float(P0[best]))


class TestDuality:
    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
    def test_lagrangian_value_matches_primal_grid(self, lam):
        game = GAME._replace(lam=lam)
        sol = find_multiplier(game, (HI, LO))
        sig = sol.signal
        dist = state_distribution(game, (HI, LO))
        solution_value = (
            sum(p * q * d for p, q, d in zip(tuple(dist), sig.as_tuple(), (-1.0, 0.0, 1.0)))
            + game.mu_lo
            - game.lam * mutual_information(tuple(dist), sig.as_tuple())
        )
        coarse, argmax = _primal_grid_value(game, (HI, LO), (0.5, 0.5), 0.5, 5e-3)
        fine, _ = _primal_grid_value(game, (HI, LO), argmax, 0.02, 2e-4)
        assert fine <= solution_value + 1e-9
        assert fine == pytest.approx(solution_value, abs=1e-6)


class TestClosedFormBindingSignal:
    """The binding signal is the logit rule at nu; no RI problem is re-solved."""

    def test_ill_conditioned_large_lambda(self, capsys):
        from riscreen import cli

        game = GameParams(0.8, 0.6, 0.07, 5000.0)
        impartial = [r.profile for r in equilibrium_set(game) if r.classification == IMPARTIAL]
        assert [r.profile for r in quota_equilibrium_set(game)] == impartial == [(LO, LO)]
        code = cli.main(["quota", "--mu-hi", ".8", "--mu-lo", ".6", "--cost", ".07", "--lambda", "5000"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.endswith("quota equilibria: (lo,lo)\n")

    @helpers.draws(25, seed=33010, base=helpers.sample_assumption1)
    def test_agrees_with_the_generic_solver_where_well_conditioned(self, base):
        for lam in (0.01, 0.05, 0.2, 0.6, 1.5, 4.0, 10.0):
            game = base._replace(lam=lam)
            for profile in ((HI, LO), (LO, HI)):
                sol = find_multiplier(game, profile)
                again = subsidized_signal(game, profile, sol.nu)
                assert max(
                    abs(a - b)
                    for a, b in zip(
                        (*sol.signal.as_tuple(), sol.signal.pi_bar),
                        (*again.as_tuple(), again.pi_bar),
                    )
                ) <= 1e-12, (lam, profile)


@helpers.draws(
    300,
    seed=31008,
    cases=[
        dict(game=GameParams(0.8, 0.6, 0.07, 5000.0)),
        dict(game=GameParams(0.999, 0.998, 1e-6, 1e4)),
        dict(game=GameParams(0.999, 0.001 + 1e-9, 1.0, 1e-4)),
    ],
    game=helpers.quota_game,
)
def test_quota_equilibria_are_the_impartial_ones(game):
    quota = quota_equilibrium_set(game)
    impartial = [r.profile for r in equilibrium_set(game) if r.classification == IMPARTIAL]
    assert [r.profile for r in quota] == impartial
    assert all(r.classification == IMPARTIAL for r in quota)


@helpers.draws(
    200,
    seed=31009,
    cases=[
        dict(game=GameParams(0.7352835494332178, 0.5124275134332898, 1.3550873596748262e-06, 355.85635386923724)),
        dict(game=GameParams(0.9391453249292385, 0.13701941881382593, 0.0010696936521694754, 3217.749153833079)),
    ],
    game=helpers.quota_game,
)
def test_shared_impartial_records_are_equal(game):
    # the quota game's symmetric records hold optimal_signal, so they are
    # valued as equilibrium_set values them (the generic sums printed other
    # 12-digit profits at both examples)
    baseline = {r.profile: r for r in equilibrium_set(game)}
    for rec in quota_equilibrium_set(game):
        assert rec == baseline[rec.profile]


def quota_or_sum_below_one_game(rng):
    """A draw of helpers.quota_game or of test_regime_map.sum_below_one_game, where mu_hi + mu_lo < 1."""
    return rng.choice((helpers.quota_game, sum_below_one_game))(rng)


@helpers.draws(
    600,
    seed=31010,
    cases=[
        dict(game=GameParams(0.999, 0.0011, 0.07, 1e-4)),  # nu -> 1: the shifted branch
        dict(game=GameParams(0.999, 0.0011, 0.07, 1e4)),
        dict(game=GameParams(0.8, 0.6, 0.07, 1e-4)),
        dict(game=GameParams(0.8, 0.6, 0.07, 1e4)),
        # the multiplier is 1.1e-16 for (hi, lo): a residual pi_bar - 1/2 gave the oracle -6.2e-13
        dict(game=GameParams(0.6375755851878737, 0.6375755851878736, 1.0, 5623.413251903491)),
    ],
    game=quota_or_sum_below_one_game,
)
def test_find_multiplier_agrees_with_the_root_search(game):
    # to 1e-12 relative or 1e-15, or closer than the oracle to a 60-digit root
    for profile in ((HI, LO), (LO, HI)):
        nu = find_multiplier(game, profile).nu
        oracle = helpers.quota_multiplier_by_root(game, profile).nu
        if not math.isclose(nu, oracle, rel_tol=1e-12, abs_tol=1e-15):
            with exact.digits(60):
                root = exact.quota_multiplier(*(game.mu(e) for e in profile), game.lam, nu)
            assert abs(Decimal(nu) - root) <= abs(Decimal(oracle) - root), (game, profile, nu, oracle)


def quota_side(rng):
    """A game the quota analyses: a domain game, on either side of mu_hi + mu_lo = 1, or a quota or
    knife-edge game."""
    return rng.choice((helpers.domain_game, helpers.quota_game, helpers.quota_knife_game))(rng)


@helpers.draws(600, seed=39002, game=quota_side)
def test_asymmetric_quota_gains_lie_within_the_gain_bounds(game):
    # the worker's gain at most tanh(1/(4 lam)), the slope bound of the gate ahead of the quota
    # enumeration (baseline_game._out_of_reach), and the shirker's at least min(mu_hi, 1/2) tanh(1/lam)/2,
    # the floor of quota_policy._asymmetric_open, each to GAIN_ALLOWANCE
    most, least = math.tanh(0.25 / game.lam), min(game.mu_hi, 0.5) * math.tanh(1.0 / game.lam) / 2.0
    for profile, worker, shirker in (((HI, LO), AGENT_M, AGENT_W), ((LO, HI), AGENT_W, AGENT_M)):
        signal = find_multiplier(game, profile).signal
        assert incentive_gain(game, signal, worker, LO) <= most + GAIN_ALLOWANCE, profile
        assert incentive_gain(game, signal, shirker, HI) >= least - GAIN_ALLOWANCE, profile


def quota_or_knife_game(rng):
    """A draw of helpers.quota_game or helpers.quota_knife_game."""
    return rng.choice((helpers.quota_game, helpers.quota_knife_game))(rng)


@helpers.draws(5000, seed=40002, params=quota_or_knife_game)
def test_the_quota_lists_mirror_profiles_together(params):
    """Mirror symmetry of quota_equilibrium_set, also in the knife band of
    helpers.quota_knife_game, where a shirker's gain meets c within rounding."""
    helpers.assert_mirrored(quota_equilibrium_set(params))


def test_the_mirrors_do_not_split_at_the_knife_edge():
    # a gain meets c within rounding here, so mirror signals formed apart (sigmoid(-t) against
    # 1 - sigmoid(t)) would split the pair; in the 60-digit model m's gain is 1.8e-17 below c
    # and w's 2.0e-17 below c + IC_TOL c (3.1e-16): both constraints hold to IC_TOL c
    game = GameParams(0.8352000459997866, 0.1648019293130466, 0.00020554994269688886, 815.371222997398)
    records = quota_equilibrium_set(game)
    helpers.assert_mirrored(records)
    assert [r.profile for r in records] == list(PROFILES)


#: supports_profile on the mirrored signal of (lo, hi) said False here while the enumeration listed
#: (lo, hi): the mirror's differences 1 - q rounded m's gain 0.2279348764555444 above c + IC_TOL c,
#: where (hi, lo)'s shirker had 0.22793487645554433; the stored bonuses swap instead
SUPPORT_EDGE = GameParams(0.5088518373618705, 0.49114816275985945, 0.0040352848832145, 1.0160944994304026)


@helpers.draws(1000, seed=42201, cases=[dict(params=SUPPORT_EDGE)], params=helpers.quota_knife_game)
def test_supports_profile_agrees_with_the_quota_enumeration(params):
    listed = [r.profile for r in quota_equilibrium_set(params)]
    supported = [p for p in PROFILES if supports_profile(params, find_multiplier(params, p).signal, p)]
    assert supported == listed, params


def test_root_search_keeps_the_sign_of_a_tiny_multiplier():
    # pi_bar - 1/2 is rounding noise 1e-12 wide in nu here; the tanh residual is not
    game = GameParams(0.6375755851878737, 0.6375755851878736, 1.0, 5623.413251903491)
    for profile, sign in (((HI, LO), 1.0), ((LO, HI), -1.0)):
        with exact.digits(60):
            root = exact.quota_multiplier(*(game.mu(e) for e in profile), game.lam, sign * 1e-16)
        assert math.isclose(float(root), sign * 1.1102230257557554e-16, rel_tol=1e-15)
        assert math.isclose(helpers.quota_multiplier_by_root(game, profile).nu, float(root), rel_tol=1e-8)
