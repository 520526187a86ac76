"""The enumerations solve two screening problems per lambda, not four.

(lo, lo) shares the impartial signal of (hi, hi), and (lo, hi) is (hi, lo)
with the agents' names swapped: it is tested with (hi, lo)'s gains swapped and
valued as (hi, lo), its signal the mirror of (hi, lo)'s. Under the quota the
one tilt of (hi, lo) is solved only where the closed-form gain bounds leave the
asymmetric profiles open. The shared results must equal the per-profile ones
bit for bit.
"""

import pytest

from riscreen import PROFILES, GameParams, equilibrium_set, optimal_signal, quota_equilibrium_set
from riscreen.baseline_game import _profile_signals
from riscreen.quota_policy import _asymmetric_open

import helpers


def hexed(obj):
    """obj with every float replaced by its hex text, so -0.0 and NaN compare exactly."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (tuple, list)):
        return tuple(map(hexed, obj))
    return obj


def outcome(f, *args):
    """hexed result of f(*args), or the type and message of what it raised."""
    try:
        return hexed(f(*args))
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)


@helpers.draws(200, seed=31014, game=helpers.domain_game)
def test_shared_signals_and_tilt_equal_the_per_profile_solves(game):
    impartial, tilted = _profile_signals(game, game.lam)
    per_profile = (impartial, tilted, tilted.mirrored(), impartial)
    assert hexed(per_profile) == tuple(hexed(optimal_signal(game, p)) for p in PROFILES)
    # the quota refuses mu_hi + mu_lo <= 1; mu -> 1 - mu flips the sum across 1
    games = [game]
    if 1.0 - game.mu_hi < 1.0 - game.mu_lo:
        games.append(GameParams(1.0 - game.mu_lo, 1.0 - game.mu_hi, game.cost_C, game.lam))
    for g in games:
        assert outcome(quota_equilibrium_set, g) == outcome(helpers.reference_quota_equilibrium_set, g)


#: mu_hi + mu_lo - 1 = 2.0e-15: both asymmetric constraints hold to IC_TOL under the quota
KNIFE_EDGE = GameParams(0.8885586675347767, 0.11144133246522533, 0.09972474181102377, 1.9056210918215344)


def test_the_quota_keeps_asymmetric_records_at_the_knife_edge():
    assert _asymmetric_open(KNIFE_EDGE.c, KNIFE_EDGE.lam)
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
    # the (hi, lo) kernel decides interior vs corner itself, at every lam
    assert counts == {"_tilt": tilts, "signal_from_odds": 1}
