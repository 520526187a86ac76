"""The enumerations solve two screening problems per lambda, not four.

(lo, lo) shares the impartial signal of (hi, hi), (lo, hi) is the mirror of
(hi, lo), and under the quota both asymmetric profiles bind at one tilt. The
shared results must equal the per-profile ones bit for bit.
"""

import pytest

from riscreen import PROFILES, GameParams, equilibrium_set, optimal_signal, quota_equilibrium_set
from riscreen.baseline_game import _profile_signals

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
    assert hexed(_profile_signals(game, game.lam)) == tuple(hexed(optimal_signal(game, p)) for p in PROFILES)
    # the quota refuses mu_hi + mu_lo <= 1; mu -> 1 - mu flips the sum across 1
    games = [game]
    if 1.0 - game.mu_hi < 1.0 - game.mu_lo:
        games.append(GameParams(1.0 - game.mu_lo, 1.0 - game.mu_hi, game.cost_C, game.lam))
    for g in games:
        assert outcome(quota_equilibrium_set, g) == outcome(helpers.reference_quota_equilibrium_set, g)


@pytest.mark.parametrize("lam", [1e-4, 0.05, 0.3, 0.7, 1.5, 1e4])
def test_one_tilt_and_one_tilted_kernel_per_enumeration(monkeypatch, lam):
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
    assert counts == {"_tilt": 1, "signal_from_odds": 0}
    equilibrium_set(game)
    # the (hi, lo) kernel decides interior vs corner itself, at every lam
    assert counts == {"_tilt": 1, "signal_from_odds": 1}
