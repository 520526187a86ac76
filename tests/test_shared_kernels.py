"""The enumerations solve two screening problems per lambda, not four.

(lo, lo) shares the impartial signal of (hi, hi), and (lo, hi) is (hi, lo)
with the agents' names swapped: it is tested with (hi, lo)'s gains swapped and
valued as (hi, lo), its signal the mirror of (hi, lo)'s. Under the quota the
one tilt of (hi, lo) is solved only where the closed-form gain bounds leave the
asymmetric profiles open. Each enumeration tests every cost against one table
of gains, and past the slope bound of the logit rule the enumerations keep
(lo, lo) alone and form no (hi, lo) signal, and the variants search no mixed
root and form no committed (hi, lo) signal. The shared and pruned results must
equal the per-profile and unpruned ones bit for bit.
"""

import math
import random

import pytest

from riscreen import HI, LO, PROFILES, GameParams, equilibrium_set, optimal_signal, quota_equilibrium_set
from riscreen import PromotionSignal, TaskParams, baseline_game, multitask_equilibrium_set, variants
from riscreen.baseline_game import (
    GAIN_ALLOWANCE,
    IC_TOL,
    _band,
    _gain_table,
    _gains,
    _gains_can_reach,
    _game,
    _incentive_holds,
    _logit_rule,
    _profile_prior,
    _supported,
    _supports,
    signal_from_odds,
)
from riscreen.quota_policy import _asymmetric_open

import helpers


def hexed(obj):
    """obj with every float replaced by its hex text, so -0.0 and NaN compare exactly."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (tuple, list)):
        return tuple(map(hexed, obj))
    return obj


def kernels(game, lam):
    """The two kernels at lam: the impartial signal of (hi, hi) and (lo, lo), and the (hi, lo) signal, which
    (lo, hi) mirrors, None at its corner."""
    return _logit_rule(0.0, 1.0 / lam, 1.0 / lam), signal_from_odds(game.A, game.B, lam)


def outcome(f, *args):
    """hexed result of f(*args), or the type and message of what it raised."""
    try:
        return hexed(f(*args))
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


@helpers.draws(200, seed=31014, game=helpers.domain_game)
def test_shared_signals_and_tilt_equal_the_per_profile_solves(game):
    impartial, tilted = kernels(game, game.lam)
    tilted = tilted or PromotionSignal(1.0, 1.0, 1.0, 1.0)  # the corner: m is always promoted
    per_profile = (impartial, tilted, tilted.mirrored(), impartial)
    assert hexed(per_profile) == tuple(hexed(optimal_signal(game, p)) for p in PROFILES)
    # mu -> 1 - mu flips mu_hi + mu_lo across 1, so the quota is compared on both sides of the line
    games = [game]
    if 1.0 - game.mu_hi < 1.0 - game.mu_lo:
        games.append(GameParams(1.0 - game.mu_lo, 1.0 - game.mu_hi, game.cost_C, game.lam))
    for g in games:
        assert outcome(quota_equilibrium_set, g) == outcome(helpers.reference_quota_equilibrium_set, g)


#: mu_hi + mu_lo - 1 = 2.0e-15: both asymmetric constraints hold to IC_TOL under the quota
KNIFE_EDGE = GameParams(0.8885586675347767, 0.11144133246522533, 0.09972474181102377, 1.9056210918215344)


def test_the_quota_keeps_asymmetric_records_at_the_knife_edge():
    assert _asymmetric_open(KNIFE_EDGE.c, KNIFE_EDGE.lam, KNIFE_EDGE.mu_hi)
    assert [r.profile for r in quota_equilibrium_set(KNIFE_EDGE)] == [("hi", "lo"), ("lo", "hi"), ("lo", "lo")]


@helpers.draws(600, seed=39001, cases=[dict(game=KNIFE_EDGE)], game=helpers.quota_knife_game)
def test_the_gain_bounds_change_no_knife_edge_result(game):
    assert outcome(quota_equilibrium_set, game) == outcome(helpers.reference_quota_equilibrium_set, game)


# canonical c = 0.35: from lam 0.7 on, m's quota gain bound tanh(1/(4 lam)) is below c
@pytest.mark.parametrize("lam, tilts", [(1e-4, 1), (0.05, 1), (0.3, 1), (0.7, 0), (1.5, 0), (1e4, 0)])
def test_at_most_one_tilt_and_one_tilted_kernel_per_enumeration(monkeypatch, lam, tilts):
    from riscreen import baseline_game, quota_policy

    counts = {"_tilt": 0, "signal_from_odds": 0}

    def counted(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(quota_policy, "_tilt", counted("_tilt", quota_policy._tilt))
    monkeypatch.setattr(baseline_game, "signal_from_odds", counted("signal_from_odds", baseline_game.signal_from_odds))
    game = helpers.canonical(lam)
    quota_equilibrium_set(game)
    assert counts == {"_tilt": tilts, "signal_from_odds": 0}
    equilibrium_set(game)
    # the (hi, lo) kernel decides interior vs corner itself, wherever a gain can meet c; past the slope
    # bound (from lam 0.684 here, where the quota's tilt stops too) the gate keeps (lo, lo) and forms none
    assert counts == {"_tilt": tilts, "signal_from_odds": tilts}


def stepped(edge, below=3, above=3):
    """The floats from `below` ulps under edge to `above` ulps over it."""
    x = edge
    for _ in range(below):
        x = math.nextafter(x, -math.inf)
    out = []
    for _ in range(below + above + 1):
        out.append(x)
        x = math.nextafter(x, math.inf)
    return out


@helpers.draws(150, seed=44001, domain=helpers.domain_game, edge=helpers.edge_game, star=helpers.near_star_game)
def test_the_verdicts_on_one_gain_table_equal_the_per_profile_rule(domain, edge, star):
    # each profile's own prior and signal through _supports, (lo, hi) at its own prior and the mirrored
    # signal; costs equal, unequal, and stepped by ulps across the _band edges of every gain in the table,
    # where a verdict flips: the high-effort test near gain + tol, the low-effort test near gain - tol
    for game in (domain, edge, star):
        priors, c = _game(game).priors, game.c
        impartial, tilted = kernels(game, game.lam)
        lo_hi = _profile_prior(game.mu_hi, game.mu_lo, (LO, HI))
        for signal in (tilted, None):  # None: the corner, where both asymmetric profiles are out
            table = _gain_table(priors, impartial, signal)
            costs = [(c, c), (c, 2.0 * c), (0.5 * c, c)]
            for gain in (g for pair in table if pair is not None for g in pair):
                for cost in (x for e in _band(gain) for x in stepped(e)):
                    costs += [(cost, c), (c, cost), (cost, cost)]
            for c_m, c_w in costs:
                want = (_supports(priors[0], impartial, c_m, c_w),
                        signal is not None and _supports(priors[1], signal, c_m, c_w),
                        signal is not None and _supports(lo_hi, signal.mirrored(), c_m, c_w),
                        _supports(priors[2], impartial, c_m, c_w))
                assert _supported(table, c_m, c_w) == want, (game, signal is None, c_m, c_w)


def bound_lams(game):
    """The game's lam and, for c < 1, lams at and around 1/(4 atanh c) and the widened edge of the slope bound."""
    c, lams = game.c, [game.lam]
    slack = IC_TOL * min(1.0, c) + GAIN_ALLOWANCE
    if c < 1.0:
        lams += [x * 0.25 / math.atanh(c) for x in (1.0, 1.0 - 1e-12, 1.0 + 1e-12, 0.9, 1.1)]
    if slack < c < 1.0 + slack:
        lams += stepped(0.25 / math.atanh(min(c - slack, 1.0 - 2.0 ** -53)), 4, 4)
    return [lam for lam in lams if 0.0 < lam < math.inf]


def enumerations(game, lam, k):
    """The hexed pure enumerations of game at lam: the baseline, the quota, and the multitask and heterogeneous
    ones with the first task's and m's effective cost k c, the second's and w's c (task 1 at arrival 0.3, task 2
    at 0.5; w at twice the cost and weight)."""
    tasks = (TaskParams(0.3, 1.0, k * game.cost_C * 0.3), TaskParams(0.5, 1.0, game.cost_C * 0.5))
    het = variants.HeterogeneousParams(k * game.cost_C, 2.0 * game.cost_C, 1.0, 2.0)
    game = game._replace(lam=lam)
    return (hexed(equilibrium_set(game)), hexed(quota_equilibrium_set(game)),
            hexed(multitask_equilibrium_set(game, tasks)), hexed(variants.heterogeneous_equilibrium_set(game, het)))


#: m's (hi, lo) gain is 9e-15 relative below the slope bound at lam (mu_lo within 1e-14 of 1, where that gain
#: is nearly Y, at its peak s = 1/(2 lam)), and c a hair above that gain: the bound reaches c but not c (1 + IC_TOL/2),
#: so an enumeration gated on that first cost, not the smaller one, loses (hi, lo) at c
HAIR_EDGE = GameParams(0.999999999999999, 0.99999999999999, 7.482467294805879e-15, 0.20924648196624415)


@helpers.draws(120, seed=44002, cases=[dict(game=HAIR_EDGE)], game=helpers.any_domain_game)
def test_the_slope_bound_prunes_only_futile_work(game):
    base, va = _game(game), variants._variants_game(game)
    c, mu_hi, mu_lo = base.c, base.mu_hi, base.mu_lo
    # the gate ahead of the enumerations tests the smallest cost in play: the first cost equal to the second,
    # half of it, or a hair above it, as the cost-order checks allow, with lams stepped across that cost's edge
    first = [(1.0, bound_lams(game)), (0.5, bound_lams(game._replace(cost_C=0.5 * game.cost_C)))]
    if c < 1.0:
        first.append((1.0 + IC_TOL / 2.0, bound_lams(game)))
    for k, lams in first:
        for lam in lams:
            pruned = enumerations(game, lam, k)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(baseline_game, "_gains_can_reach", lambda c, lam: True)
                assert enumerations(game, lam, k) == pruned, (k, lam)
    for lam in bound_lams(game):
        # (a) every bonus of the logit rule, at its peaks s = +-1/(2 lam) too, is within the bound
        cap = math.tanh(0.25 / lam) + GAIN_ALLOWANCE
        for s in [i / 2.0 for i in range(-120, 121)] + [0.5 / lam, -0.5 / lam]:
            rule = _logit_rule(s, 1.0 / lam, 1.0 / lam)
            assert rule.X <= cap and rule.Y <= cap, (s, lam, rule)
        if _gains_can_reach(c, lam):
            continue
        # (b) neither one-sided search has a root that _mixed would keep
        r = math.exp(-1.0 / lam)
        k = c * (1.0 - r * r)
        for rho in variants._odds_roots(r, k, 1.0 - mu_lo, mu_lo, *va.rho_m):
            nu_m = rho * mu_lo / (1.0 - mu_lo + rho * mu_lo)
            sig = signal_from_odds(nu_m * (1.0 - mu_lo), mu_lo * (1.0 - nu_m), lam)
            assert sig is None or not _incentive_holds(LO, _gains(nu_m, mu_lo, sig)[1], c), (lam, rho)
        for rho in variants._odds_roots(r, k, mu_hi, 1.0 - mu_hi, *va.rho_w):
            nu_w = mu_hi / (mu_hi + rho * (1.0 - mu_hi))
            sig = signal_from_odds(mu_hi * (1.0 - nu_w), nu_w * (1.0 - mu_hi), lam)
            assert sig is None or not _incentive_holds(HI, _gains(mu_hi, nu_w, sig)[0], c), (lam, rho)
        # (c) the committed (hi, lo) rule is not self-enforcing
        tilted = signal_from_odds(base.A, base.B, lam)
        assert tilted is None or not _supports(base.priors[1], tilted, c, c), lam
        # and the pruned steps equal the unpruned ones: each step takes the gate as its argument
        pruned = hexed(variants._mixed(va, lam, False)), hexed(variants._commitment(va, lam, False))
        assert (hexed(variants._mixed(va, lam, True)), hexed(variants._commitment(va, lam, True))) == pruned, lam


def test_the_slope_bound_needs_its_rounding_allowance():
    # within 3 ulps of s = -1/(2 lam) the bonus X peaks at tanh(1/(4 lam)) in the model, and a computed X
    # can round a few ulps above it: the largest c that each bonus meets must stay reachable, and for
    # some of them the unwidened bound tanh(1/(4 lam)) would deny it
    rng, denied = random.Random(45001), 0
    for _ in range(2000):
        lam, steps = 10.0 ** rng.uniform(-2.0, 3.0), rng.randint(-3, 3)
        s = -0.5 / lam
        for _ in range(abs(steps)):
            s = math.nextafter(s, math.copysign(math.inf, steps))
        rule = _logit_rule(s, 1.0 / lam, 1.0 / lam)
        for gain in (rule.X, rule.Y):
            c = gain / (1.0 - IC_TOL)  # then the largest c whose _band still passes the gain
            while not _incentive_holds(HI, gain, c):
                c = math.nextafter(c, 0.0)
            while _incentive_holds(HI, gain, math.nextafter(c, math.inf)):
                c = math.nextafter(c, math.inf)
            assert _gains_can_reach(c, lam), (lam, s, gain, c)
            denied += not _incentive_holds(HI, math.tanh(0.25 / lam), c)
    assert denied > 0
