"""The shared closed-form signal kernel and the array scans of mixed_equilibria.

The reference below is the scalar scan that mixed_equilibria ran before its
grids became array passes: one PromotionSignal per sample, 1,200 samples per
call, each sign change refined by find_root. The array version must give
the same equilibria to the last bit, so every check here is an exact
equality.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

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
)
from riscreen.baseline_game import lambda_star, signal_from_odds

_SIGMA_EDGE = 1e-6
_IC_TOL = 1e-12


def reference_signal(params, nu_m, nu_w):
    r = math.exp(-1.0 / params.lam)
    A = nu_m * (1.0 - nu_w)
    B = nu_w * (1.0 - nu_m)
    if A <= r * B or B <= r * A:
        return None
    pi_bar = (A - r * B) / ((1.0 - r) * (A + B))
    pi_plus = (A - r * B) / ((1.0 - r * r) * A)
    pi_minus = r * (A - r * B) / ((1.0 - r * r) * B)
    return PromotionSignal(pi_minus, pi_bar, pi_plus, pi_bar)


def reference_scan(func, lo, hi, samples=400):
    xs = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    vals = [func(x) for x in xs]
    roots = []
    for i in range(samples - 1):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0:
            roots.append(xs[i])
        elif v0 * v1 < 0.0:
            roots.append(ri_core.find_root(func, xs[i], xs[i + 1], v0, v1, xtol=1e-13))
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    return roots


def _label(sig):
    return IMPARTIAL if sig.impartial else DISCRIMINATORY


def reference_mixed_equilibria(game):
    c = game.c
    found = []

    if abs(game.lam - lambda_star(game)) <= 1e-9:
        signal = optimal_signal(game, (HI, HI))
        found.append(MixedEquilibrium(MixedProfile(0.5, 0.5), signal, _label(signal)))

    if game.mu_lo < 0.5:
        lo = max(game.mu_lo, 1.0 - game.mu_hi) + 1e-9
        hi = min(game.mu_hi, 1.0 - game.mu_lo) - 1e-9
        if lo < hi:

            def balanced_gap(nu_m):
                sig = reference_signal(game, nu_m, 1.0 - nu_m)
                if sig is None:
                    return -c
                return nu_m * sig.X + (1.0 - nu_m) * sig.Y - c

            for nu_m in reference_scan(balanced_gap, lo, hi):
                sig = reference_signal(game, nu_m, 1.0 - nu_m)
                if sig is None:
                    continue
                sigma_m = (nu_m - game.mu_lo) / game.delta_mu
                sigma_w = (1.0 - nu_m - game.mu_lo) / game.delta_mu
                if _SIGMA_EDGE < sigma_m < 1.0 - _SIGMA_EDGE and _SIGMA_EDGE < sigma_w < 1.0 - _SIGMA_EDGE:
                    found.append(MixedEquilibrium(MixedProfile(sigma_m, sigma_w), sig, _label(sig)))

    def m_indifference(sigma):
        nu_m = game.mu_lo + sigma * game.delta_mu
        sig = reference_signal(game, nu_m, game.mu_lo)
        if sig is None:
            return -c
        return (1.0 - game.mu_lo) * sig.X + game.mu_lo * sig.Y - c

    for sigma in reference_scan(m_indifference, _SIGMA_EDGE, 1.0 - _SIGMA_EDGE):
        nu_m = game.mu_lo + sigma * game.delta_mu
        sig = reference_signal(game, nu_m, game.mu_lo)
        if sig is None:
            continue
        if nu_m * sig.X + (1.0 - nu_m) * sig.Y <= c + _IC_TOL:
            found.append(MixedEquilibrium(MixedProfile(sigma, 0.0), sig, _label(sig)))

    def w_indifference(sigma):
        nu_w = game.mu_lo + sigma * game.delta_mu
        sig = reference_signal(game, game.mu_hi, nu_w)
        if sig is None:
            return -c
        return game.mu_hi * sig.X + (1.0 - game.mu_hi) * sig.Y - c

    for sigma in reference_scan(w_indifference, _SIGMA_EDGE, 1.0 - _SIGMA_EDGE):
        nu_w = game.mu_lo + sigma * game.delta_mu
        sig = reference_signal(game, game.mu_hi, nu_w)
        if sig is None:
            continue
        if (1.0 - nu_w) * sig.X + nu_w * sig.Y >= c - _IC_TOL:
            found.append(MixedEquilibrium(MixedProfile(1.0, sigma), sig, _label(sig)))

    return found


@st.composite
def games(draw):
    """Games with mu_lo on both sides of 1/2 and lam near and away from lambda_star."""
    mu_lo = draw(st.one_of(st.floats(0.03, 0.499), st.floats(0.501, 0.95)))
    mu_hi = draw(st.floats(mu_lo + 0.02, 0.99)) if mu_lo + 0.02 < 0.99 else 0.99
    share = draw(st.floats(0.02, 0.98))
    cost = share * 0.5 * (mu_hi - mu_lo)
    lam_star = lambda_star(GameParams(mu_hi, mu_lo, cost, 1.0))
    factor = draw(st.one_of(
        st.just(1.0),
        st.floats(-1e-10, 1e-10).map(lambda e: 1.0 + e),
        st.floats(0.9, 1.1),
        st.floats(-3.0, 3.0).map(math.exp),
    ))
    return GameParams(mu_hi, mu_lo, cost, lam_star * factor)


@given(game=games())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_mixed_equilibria_match_scalar_scan(game):
    got = mixed_equilibria(game)
    want = reference_mixed_equilibria(game)
    assert got == want
    assert repr(got) == repr(want)


def test_mixed_equilibria_match_scalar_scan_on_mixing_games():
    # a fixed set that finds equilibria on all three scanned branches
    rng = np.random.default_rng(5)
    branches = set()
    for _ in range(40):
        mu_lo = float(rng.uniform(0.1, 0.9))
        mu_hi = float(rng.uniform(mu_lo + 0.05, 0.99)) if mu_lo < 0.94 else 0.99
        cost = float(rng.uniform(0.2, 0.9)) * 0.5 * (mu_hi - mu_lo)
        lam = lambda_star(GameParams(mu_hi, mu_lo, cost, 1.0)) * float(rng.uniform(0.5, 2.0))
        game = GameParams(mu_hi, mu_lo, cost, lam)
        got, want = mixed_equilibria(game), reference_mixed_equilibria(game)
        assert got == want
        assert repr(got) == repr(want)
        for eq in got:
            p = eq.profile
            branches.add("m" if p.sigma_w == 0.0 else "w" if p.sigma_m == 1.0 else "balanced")
    assert branches == {"m", "w", "balanced"}


def test_signal_from_odds_arrays_match_floats_bit_for_bit():
    rng = np.random.default_rng(11)
    A = rng.uniform(1e-6, 1.0, size=300)
    B = rng.uniform(1e-6, 1.0, size=300)
    for r in (0.0, 1e-300, 0.03, 0.5, 0.97, 1.0 - 1e-12):
        arrays = signal_from_odds(A, B, r)
        floats = [signal_from_odds(float(a), float(b), r) for a, b in zip(A, B)]
        for k in range(3):
            assert all(isinstance(f[k], float) for f in floats)
            assert arrays[k].tobytes() == np.array([f[k] for f in floats]).tobytes()

