"""One bill values every signal, and the envelope identity holds wherever no constraint involves lam.

baseline_game._bill is the one home of the prior-mean check and of the V and I
formulas: the record of evaluate takes its V and I from it, and the callers that
read only the profit (the committed outcomes, the bound rule, the multitask
payoffs) take V - lam * I from it, so both agree bit for bit.

The profit of a fixed profile is the maximum of V - lam I over rules, so
d profit / d lam = -I (the envelope theorem); the same holds at the quota rule,
whose constraint pi_bar = 1/2 does not involve lam, and for the multitask payoff,
a sum of per-task profits weighted by arrivals. Each slope is a central
difference at h = 1e-5 lam. Its rounding error is at most 4 eps S / h, S = V + lam I
(each profit is within 4 eps of S), and its truncation h^2/6 |I''| at most
(h/lam)^2 I, as I'' <= 6 I / lam^2 for a bill that falls no faster than 1/lam^2.
"""

import sys

import pytest

from riscreen import HI, LO, PROFILES, bind_high_effort, evaluate, find_multiplier
from riscreen import multitask_equilibrium_set, optimal_signal, profit
from riscreen.baseline_game import _bill, _profile_prior, signal_from_odds
from riscreen.ri_core import BracketError

import helpers

EPS = sys.float_info.epsilon
SAMPLERS = dict(domain=helpers.domain_game, edge=helpers.edge_game, half=helpers.near_half_game,
                star=helpers.near_star_game)


def hexed(*values):
    return [v.hex() for v in values]


def rules(game):
    """(profile, signal) of each rule the bill values at game: the four profiles at optimal_signal, the quota
    rule of (hi, lo) and of (lo, hi) where find_multiplier meets its quota, and the bound (hi, hi) rule."""
    found = [(p, optimal_signal(game, p)) for p in PROFILES]
    for p in ((HI, LO), (LO, HI)):
        try:
            found.append((p, find_multiplier(game, p).signal))
        except BracketError:
            pass
    bound = bind_high_effort(game)
    if bound is not None:
        found.append(((HI, HI), bound.signal))
    return found


@helpers.draws(100, seed=52001, **SAMPLERS)
def test_the_profit_only_path_is_the_record_bit_for_bit(domain, edge, half, star):
    for game in (domain, edge, half, star):
        for profile, signal in rules(game):
            rec = evaluate(game, profile, signal)
            V, I = _bill(_profile_prior(game.mu_hi, game.mu_lo, profile), signal)
            assert hexed(V, I, V - game.lam * I) == hexed(rec.revenue, rec.info_cost, rec.profit), (profile, signal)
        bound = bind_high_effort(game)
        if bound is not None:
            assert bound.profit.hex() == evaluate(game, (HI, HI), bound.signal).profit.hex()


@helpers.draws(100, seed=52002, **SAMPLERS)
def test_the_bill_raises_the_record_s_error_off_the_prior_mean(domain, edge, half, star):
    for game in (domain, edge, half, star):
        for profile in PROFILES:
            signal = optimal_signal(game, profile)
            off = signal._replace(pi_bar=signal.pi_bar + (1e-9 if signal.pi_bar < 0.5 else -1e-9))
            with pytest.raises(ValueError) as from_record:
                evaluate(game, profile, off)
            with pytest.raises(ValueError) as from_bill:
                _bill(_profile_prior(game.mu_hi, game.mu_lo, profile), off)
            assert str(from_bill.value) == str(from_record.value)
            assert "is not the prior mean" in str(from_bill.value)


def envelope_error(profits: tuple, info_cost: float, revenue: float, lam: float) -> tuple:
    """(|slope + I|, its tolerance) for the profits at lam - h, lam, lam + h, h = 1e-5 lam."""
    h = 1e-5 * lam
    slope = (profits[2] - profits[0]) / (2.0 * h)
    tol = 4.0 * EPS * (revenue + lam * info_cost) / h + (h / lam) ** 2 * info_cost
    return abs(slope + info_cost), tol


def steps(game):
    h = 1e-5 * game.lam
    return [game._replace(lam=game.lam + d) for d in (-h, 0.0, h)]


@helpers.draws(60, seed=52003, **SAMPLERS)
def test_each_profile_s_profit_has_the_envelope_slope(domain, edge, half, star):
    for game in (domain, edge, half, star):
        points = steps(game)
        corners = {signal_from_odds(p.A, p.B, p.lam) is None for p in points}
        for profile in PROFILES:
            if profile[0] != profile[1] and len(corners) > 1:
                continue  # the (hi, lo) rule reaches its corner within the step
            at = [profit(p, profile) for p in points]
            err, tol = envelope_error([a.profit for a in at], at[1].I, at[1].V, game.lam)
            assert err <= tol, (profile, err, tol)


@helpers.draws(60, seed=52004, **SAMPLERS)
def test_the_quota_rule_s_profit_has_the_envelope_slope(domain, edge, half, star):
    # the quota's constraint pi_bar = 1/2 does not involve lam, so its multiplier leaves the slope at -I
    for game in (domain, edge, half, star):
        try:
            at = [evaluate(p, (HI, LO), find_multiplier(p, (HI, LO)).signal) for p in steps(game)]
        except BracketError:
            continue
        err, tol = envelope_error([a.profit for a in at], at[1].info_cost, at[1].revenue, game.lam)
        assert err <= tol, (err, tol)


@helpers.draws(60, seed=52005, case=helpers.multitask_game)
def test_the_multitask_payoff_has_the_envelope_slope(case):
    # payoff = alpha1 (V1 - lam I1) + alpha2 (V2 - lam I2), so its slope is -(alpha1 I1 + alpha2 I2)
    game, tasks = case
    alphas = [t.alpha for t in tasks]
    sets = [{(r.investment_m, r.investment_w): r.payoff for r in multitask_equilibrium_set(p, tasks)}
            for p in steps(game)]
    if not sets[0].keys() == sets[1].keys() == sets[2].keys():
        return  # the equilibrium set changes within the step
    for inv_m, inv_w in sets[1]:
        bills = [profit(game, pair) for pair in zip(inv_m, inv_w)]  # signals and profits read no cost
        info_cost = sum(a * b.I for a, b in zip(alphas, bills))
        revenue = sum(a * b.V for a, b in zip(alphas, bills))
        err, tol = envelope_error([s[inv_m, inv_w] for s in sets], info_cost, revenue, game.lam)
        assert err <= tol, (inv_m, inv_w, err, tol)
