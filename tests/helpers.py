"""Shared samplers and brute-force oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from riscreen import GameParams, g_func, ri_core, thresholds
from riscreen.ri_core import BinaryRIProblem

import exact

# canonical parameter point used across the suite
CANONICAL = dict(mu_hi=0.8, mu_lo=0.6, cost_C=0.07, lam=0.3)


def canonical(lam: float = 0.3) -> GameParams:
    return GameParams(0.8, 0.6, 0.07, lam)


# mu within 1e-3 of either edge, or anywhere between
EDGE_MU = st.one_of(st.floats(1e-6, 1e-3), st.floats(1.0 - 1e-3, 1.0 - 1e-6), st.floats(1e-3, 1.0 - 1e-3))


@st.composite
def domain_games(draw):
    """Games over the documented domain: lam log-uniform in [1e-4, 1e4], mu
    near the edges, cost_C log-uniform in [1e-6, 1]."""
    mu_a, mu_b = draw(EDGE_MU), draw(EDGE_MU)
    if mu_a == mu_b:
        mu_b = mu_a / 2.0
    cost = 10.0 ** draw(st.floats(-6.0, 0.0))
    lam = 10.0 ** draw(st.floats(-4.0, 4.0))
    return GameParams(max(mu_a, mu_b), min(mu_a, mu_b), cost, lam)


def sample_assumption1(rng: np.random.Generator, lam: float = 1.0) -> GameParams:
    """Random parameters satisfying the regularity condition."""
    while True:
        mu_hi = rng.uniform(0.52, 0.97)
        lo_min = max(1.0 - mu_hi + 0.01, 0.05)
        if lo_min >= mu_hi - 0.01:
            continue
        mu_lo = rng.uniform(lo_min, mu_hi - 0.01)
        A = mu_hi * (1.0 - mu_lo)
        B = mu_lo * (1.0 - mu_hi)
        bound = mu_hi * (1.0 - mu_hi) / (A + B)
        c = rng.uniform(0.05, 0.95) * bound
        params = GameParams(mu_hi, mu_lo, c * (mu_hi - mu_lo), lam)
        if params.assumption1:
            return params


def sample_condition5(rng: np.random.Generator, lam: float = 1.0) -> GameParams:
    """Random regular parameters for which lambda_star < lambda_high."""
    while True:
        mu_hi = rng.uniform(0.55, 0.95)
        if mu_hi - 0.02 <= 0.505:
            continue
        mu_lo = rng.uniform(0.505, mu_hi - 0.02)
        A = mu_hi * (1.0 - mu_lo)
        B = mu_lo * (1.0 - mu_hi)
        bound = mu_hi * (1.0 - mu_hi) / (A + B)
        probe = GameParams(mu_hi, mu_lo, 0.4 * bound * (mu_hi - mu_lo), lam)
        cuts = thresholds(probe)
        if cuts.gamma_hat is None:
            continue
        floor = g_func(cuts.gamma_hat)
        if floor >= 0.98 * bound:
            continue
        c = rng.uniform(floor + 0.02 * (bound - floor), bound - 0.02 * (bound - floor))
        params = GameParams(mu_hi, mu_lo, c * (mu_hi - mu_lo), lam)
        cuts = thresholds(params)
        if params.assumption1 and cuts.condition5:
            return params


def random_interior_problem(rng: np.random.Generator) -> BinaryRIProblem:
    """Random interior problem with 3-5 states, |advantage| <= 2, lam in [.05, 5]."""
    from riscreen.ri_core import INTERIOR, degeneracy_check

    while True:
        n = int(rng.integers(3, 6))
        raw = rng.dirichlet(np.ones(n) * 2.0)
        prior = raw / raw.sum()
        adv = rng.uniform(-2.0, 2.0, size=n)
        lam = rng.uniform(0.05, 5.0)
        problem = BinaryRIProblem(tuple(range(n)), tuple(prior), tuple(adv), lam)
        if degeneracy_check(problem) == INTERIOR:
            return problem


def _h(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x * np.log(x) + (1.0 - x) * np.log1p(-x)
    return np.where((x > 0.0) & (x < 1.0), out, 0.0)


def grid_search_value(problem: BinaryRIProblem, step: float = 1e-4) -> tuple:
    """Best objective over the logit rule family on a uniform q_bar grid.

    Independent of the fixed-point solver: candidate rules are evaluated
    directly through E[q v] - lam * I, with I computed from the candidate's
    own (generally inconsistent) unconditional probability.
    """
    qs = np.arange(0.0, 1.0 + step / 2.0, step)
    p = np.asarray(problem.prior)
    v = np.asarray(problem.advantage)
    z = v / problem.lam
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logodds = np.log(qs / (1.0 - qs))[:, None] + z[None, :]
        cond = 1.0 / (1.0 + np.exp(-logodds))
    cond[0, :] = 0.0
    cond[-1, :] = 1.0
    ubar = cond @ p
    info = _h(cond) @ p - _h(ubar)
    values = cond @ (p * v) - problem.lam * np.maximum(info, 0.0)
    best = int(np.argmax(values))
    return float(values[best]), float(qs[best])


def _binding_rule(prior: tuple, lam: float, nu: float) -> tuple:
    """Conditionals sigmoid((d - nu)/lam) for d = -1, 0, 1, and their average.

    The average is taken under prior = (p(-1), p(0), p(1)); it is the
    pi_bar of the taxed logit rule, 1/2 when nu is the quota multiplier.
    """
    q = tuple(ri_core._sigmoid((d - nu) / lam) for d in (-1.0, 0.0, 1.0))
    return q, sum(p * qd for p, qd in zip(prior, q))


def quota_multiplier_by_root(params: GameParams, profile: tuple):
    """The quota multiplier by a root search, the oracle of
    :func:`riscreen.find_multiplier`.

    nu solves sum_d p(d) sigmoid((d - nu)/lam) = 1/2 with
    :func:`ri_core.find_root` on [-1, 1] (xtol 1e-15): every d - nu is >= 0
    at nu = -1 and <= 0 at nu = 1, so the residual changes sign there.
    """
    from riscreen import BracketError, PromotionSignal, QuotaSolution, optimal_signal, state_distribution
    from riscreen.quota_policy import QUOTA_TOL

    e_m, e_w = profile
    if e_m == e_w:
        return QuotaSolution(0.0, optimal_signal(params, profile))
    prior = state_distribution(params, profile)
    nu = ri_core.find_root(
        lambda nu: _binding_rule(prior, params.lam, nu)[1] - 0.5, -1.0, 1.0, xtol=1e-15
    )
    q, pi_bar = _binding_rule(prior, params.lam, nu)
    if abs(pi_bar - 0.5) > QUOTA_TOL:
        raise BracketError(f"quota not met at nu={nu!r}: pi_bar={pi_bar!r}")
    return QuotaSolution(nu, PromotionSignal(*q, pi_bar))


def reference_quota_equilibrium_set(params: GameParams) -> list:
    """:func:`riscreen.quota_equilibrium_set` profile by profile, its reference:
    find_multiplier, supports_profile and evaluate for each of PROFILES, with
    one tilt solved per asymmetric profile."""
    from riscreen import PROFILES, evaluate, find_multiplier
    from riscreen.baseline_game import supports_profile

    if not params.mu_hi + params.mu_lo > 1.0:
        raise ValueError(
            f"quota analysis requires mu_hi + mu_lo > 1 (got {params.mu_hi + params.mu_lo!r})"
        )
    found = []
    for profile in PROFILES:
        signal = find_multiplier(params, profile).signal
        if supports_profile(params, signal, profile):
            found.append(evaluate(params, profile, signal))
    return found


def odds_roots_by_search(r: float, k: float, w_x: float, w_y: float, lo: float, hi: float) -> list:
    """Roots in [lo, hi], increasing, of P(rho) = (rho-r)(1-r rho)(w_x + w_y rho) - k rho(1+rho)
    by a root search, the oracle of :func:`riscreen.variants._odds_roots`.

    [lo, hi] is clipped to (r, 1/r), outside which P < 0. The roots of the
    quadratic P' (the stable pair q/a, c/q) split it into pieces on which P
    is monotone, and :func:`ri_core.find_root` refines each sign change on
    P in this factored form.
    """
    def P(rho: float) -> float:
        return (rho - r) * (1.0 - r * rho) * (w_x + w_y * rho) - k * rho * (1.0 + rho)

    lo, hi = max(lo, r), min(hi, 1.0 / r) if r else hi
    if not lo < hi:
        return []
    # P'(rho) = a rho^2 + b rho + c; with no real roots, any split point is harmless
    a = -3.0 * r * w_y
    b = 2.0 * ((1.0 + r * r) * w_y - r * w_x - k)
    c = (1.0 + r * r) * w_x - r * w_y - k
    q = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
    cuts = ([c / q] if q else []) + ([q / a] if a else [])
    xs = [lo, *sorted(x for x in cuts if lo < x < hi), hi]
    vals = [P(x) for x in xs]
    roots = [x for x, v in zip(xs, vals) if v == 0.0]
    for x0, x1, v0, v1 in zip(xs, xs[1:], vals, vals[1:]):
        if v0 * v1 < 0.0:
            roots.append(ri_core.find_root(P, x0, x1, v0, v1))
    return sorted(roots)


def signal_win_probability_w(signal, mu_m: float, mu_w: float) -> float:
    """w's winning probability against a fixed signal, by state enumeration."""
    p_plus = mu_m * (1.0 - mu_w)
    p_minus = mu_w * (1.0 - mu_m)
    p_zero = 1.0 - p_plus - p_minus
    return (
        p_plus * (1.0 - signal.pi_plus)
        + p_zero * (1.0 - signal.pi_zero)
        + p_minus * (1.0 - signal.pi_minus)
    )


def _win_probability_m(signal, mu_m: float, mu_w: float) -> float:
    p_plus = mu_m * (1.0 - mu_w)
    p_minus = mu_w * (1.0 - mu_m)
    p_zero = 1.0 - p_plus - p_minus
    return p_plus * signal.pi_plus + p_zero * signal.pi_zero + p_minus * signal.pi_minus


def direct_ic_equilibria(params: GameParams, tol: float = 1e-12) -> list:
    """Profiles surviving a from-scratch incentive check at their optimal signals.

    The check enumerates each agent's winning probability at both own effort
    levels directly over the three states, bypassing the X/Y algebra, and
    compares the utility difference against the effort cost.
    """
    from riscreen import HI, LO, PROFILES, optimal_signal

    mu = {HI: params.mu_hi, LO: params.mu_lo}
    out = []
    for profile in PROFILES:
        sig = optimal_signal(params, profile)
        e_m, e_w = profile
        util_m = {
            e: _win_probability_m(sig, mu[e], mu[e_w]) - (params.cost_C if e == HI else 0.0)
            for e in (HI, LO)
        }
        util_w = {
            e: signal_win_probability_w(sig, mu[e_m], mu[e]) - (params.cost_C if e == HI else 0.0)
            for e in (HI, LO)
        }
        if util_m[e_m] >= util_m[(LO if e_m == HI else HI)] - tol and util_w[e_w] >= util_w[
            (LO if e_w == HI else HI)
        ] - tol:
            out.append(profile)
    return out


def continuous_effort_scan(kappa: float, lam_values, grid_size: int = 100) -> list:
    """The exhaustive numpy scan of every grid_size^2 effort pair, the oracle
    of :func:`riscreen.variants.continuous_effort_equilibria`. The bonuses
    come from the kernel of :mod:`exact` on arrays, which rounds as the
    library's does but shares no code with it."""
    from riscreen.variants import EffortGridResult

    grid = np.linspace(0.0, 1.0, grid_size)
    nu_m = grid[:, None]
    nu_w = grid[None, :]
    A = nu_m * (1.0 - nu_w)
    B = nu_w * (1.0 - nu_m)
    results = []
    for lam in lam_values:
        r = math.exp(-1.0 / lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            X, Y = (np.where(exact.interior(A, B, r), bonus, 0.0) for bonus in exact.bonuses(A, B, r))
        gain_m = (1.0 - nu_w) * X + nu_w * Y
        gain_w = nu_m * X + (1.0 - nu_m) * Y
        br_m = _grid_best_response(grid, gain_m, kappa)
        br_w = _grid_best_response(grid, gain_w, kappa)
        rows = np.arange(grid_size)[:, None]
        cols = np.arange(grid_size)[None, :]
        fixed = (br_m == rows) & (br_w == cols)
        ii, jj = np.nonzero(fixed)
        points = tuple((float(grid[i]), float(grid[j])) for i, j in zip(ii, jj))
        results.append(EffortGridResult(float(lam), points))
    return results


def _grid_best_response(grid, gain, kappa: float):
    """Index of argmax over the grid of mu*gain - kappa*mu^2/2, ties to lower mu.

    The objective is concave in mu, so the grid argmax sits next to the
    unconstrained optimum gain/kappa; only the two neighbors are compared.
    """
    n = grid.size
    target = np.clip(gain / kappa, 0.0, 1.0)
    i_lo = np.clip(np.floor(target * (n - 1)).astype(int), 0, n - 1)
    i_hi = np.clip(i_lo + 1, 0, n - 1)
    val_lo = grid[i_lo] * gain - 0.5 * kappa * grid[i_lo] ** 2
    val_hi = grid[i_hi] * gain - 0.5 * kappa * grid[i_hi] ** 2
    return np.where(val_hi > val_lo, i_hi, i_lo)
