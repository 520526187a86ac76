"""Shared samplers and brute-force oracles for the test suite.

A sampler is a plain function of one ``random.Random``; :func:`draws` runs a
property test on a seeded stream of them.
"""

from __future__ import annotations

import math
import os
import random
from pathlib import Path

import pytest

import riscreen
from riscreen import GameParams, ri_core, thresholds
from riscreen.baseline_game import lambda_star
from riscreen.multitask import TaskParams, task_games
from riscreen.ri_core import BinaryRIProblem

import exact

# canonical parameter point used across the suite
CANONICAL = dict(mu_hi=0.8, mu_lo=0.6, cost_C=0.07, lam=0.3)


def canonical(lam: float = 0.3) -> GameParams:
    return GameParams(0.8, 0.6, 0.07, lam)


def child_env() -> dict:
    """os.environ with the src/ that riscreen was imported from first on PYTHONPATH, for a child python."""
    src = str(Path(riscreen.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def linspace(lo: float, hi: float, n: int) -> list:
    """n evenly spaced floats from lo to hi, both ends included: lo + i step, as numpy.linspace rounds."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def geomspace(lo: float, hi: float, n: int) -> list:
    """n floats from lo to hi, both ends included, evenly spaced in log10."""
    a, b = math.log10(lo), math.log10(hi)
    return [lo] + [10.0 ** x for x in linspace(a, b, n)[1:-1]] + [hi]


def draws(n: int, seed: int, cases=(), **samplers):
    """Run the decorated test on each explicit case, a dict of its arguments,
    then on n draws from random.Random(seed), each argument drawn by its
    sampler in the order given.

    A failure is re-raised as an AssertionError that names the case, or the
    seed and the draw index, with the arguments; the error itself is its
    cause.
    """
    def decorate(test):
        def run(*self):  # self, for a method
            def check(where, kwargs):
                try:
                    test(*self, **kwargs)
                except Exception as exc:
                    raise AssertionError(f"{test.__name__} failed at {where}: {kwargs!r}") from exc

            for i, case in enumerate(cases):
                check(f"explicit case {i}", case)
            rng = random.Random(seed)
            for i in range(n):
                check(f"seed {seed}, draw {i} of {n}", {name: sample(rng) for name, sample in samplers.items()})

        run.__name__, run.__qualname__, run.__doc__ = test.__name__, test.__qualname__, test.__doc__
        return run

    return decorate


def edge_mu(rng: random.Random) -> float:
    """mu in [1e-6, 1e-3] or [1 - 1e-3, 1 - 1e-6], within 1e-3 of an edge, or in [1e-3, 1 - 1e-3]."""
    lo, hi = rng.choice(((1e-6, 1e-3), (1.0 - 1e-3, 1.0 - 1e-6), (1e-3, 1.0 - 1e-3)))
    return rng.uniform(lo, hi)


def domain_game(rng: random.Random) -> GameParams:
    """A game over the documented domain: both mu from :func:`edge_mu` (mu_lo
    halved if they tie), cost_C log-uniform in [1e-6, 1] and lam log-uniform
    in [1e-4, 1e4]."""
    mu_a, mu_b = edge_mu(rng), edge_mu(rng)
    if mu_a == mu_b:
        mu_b = mu_a / 2.0
    cost = 10.0 ** rng.uniform(-6.0, 0.0)
    lam = 10.0 ** rng.uniform(-4.0, 4.0)
    return GameParams(max(mu_a, mu_b), min(mu_a, mu_b), cost, lam)


def near_half_game(rng: random.Random) -> GameParams:
    """A game with mu_lo within 1e-6 of 1/2, where gamma_hat is huge or absent:
    mu_hi in [1/2 + 2e-6, 1 - 1e-3] or [1 - 1e-3, 1 - 1e-6], cost_C and lam as
    in :func:`domain_game`."""
    mu_lo = 0.5 + rng.uniform(-1e-6, 1e-6)
    mu_hi = rng.uniform(*rng.choice(((0.5 + 2e-6, 1.0 - 1e-3), (1.0 - 1e-3, 1.0 - 1e-6))))
    return GameParams(mu_hi, mu_lo, 10.0 ** rng.uniform(-6.0, 0.0), 10.0 ** rng.uniform(-4.0, 4.0))


def quota_game(rng: random.Random) -> GameParams:
    """A game the quota can bind: mu_hi in [0.501, 0.999] and mu_lo in
    (1 - mu_hi, mu_hi), redrawn until mu_hi + mu_lo > 1 and mu_lo < mu_hi, so
    mu stays at least 1e-3 from the edges; cost_C and lam as in
    :func:`domain_game`."""
    while True:
        mu_hi = rng.uniform(0.501, 0.999)
        mu_lo = rng.uniform(1.0 - mu_hi, mu_hi)
        if mu_hi + mu_lo > 1.0 and mu_lo < mu_hi:
            break
    return GameParams(mu_hi, mu_lo, 10.0 ** rng.uniform(-6.0, 0.0), 10.0 ** rng.uniform(-4.0, 4.0))


def quota_gain_of_m(params: GameParams) -> float:
    """m's incentive gain at the quota signal of (hi, lo), from find_multiplier."""
    from riscreen import AGENT_M, HI, LO, find_multiplier, incentive_gain

    return incentive_gain(params, find_multiplier(params, (HI, LO)).signal, AGENT_M, LO)


def quota_knife_game(rng: random.Random) -> GameParams:
    """A quota game near mu_hi + mu_lo = 1, where both constraints of an
    asymmetric profile can hold at once: mu_hi in [0.501, 0.999] and
    mu_hi + mu_lo - 1 log-uniform in [1e-16, 1e-2], redrawn until
    mu_lo < mu_hi and the rounded sum exceeds 1. Then one of three lams:

    - the crossing: c is m's quota (hi, lo) gain at lam0, log-uniform in
      [1e-3, 1e3], and lam is bisected on [lam0/2, 2 lam0] to where that
      gain equals the game's c, then moved k in [-3, 3] ulps;
    - the edge of a gain bound of the quota enumeration, m's the slope
      bound that gates it and w's the floor of quota_policy._asymmetric_open,
      with c log-uniform in [1e-6, 0.24]: the lam where the bound, widened by
      GAIN_ALLOWANCE, meets c to IC_TOL min(1, c), times 1 + [-1e-12, 1e-12].
    """
    from riscreen.baseline_game import IC_TOL
    from riscreen.quota_policy import GAIN_ALLOWANCE

    while True:
        mu_hi = rng.uniform(0.501, 0.999)
        mu_lo = 1.0 - mu_hi + 10.0 ** rng.uniform(-16.0, -2.0)
        if mu_lo < mu_hi and mu_hi + mu_lo > 1.0:
            break
    delta_mu = mu_hi - mu_lo
    mode = rng.choice(("crossing", "m-edge", "w-edge"))
    if mode != "crossing":
        c = 10.0 ** rng.uniform(-6.0, math.log10(0.24))
        slack = IC_TOL * min(1.0, c) + GAIN_ALLOWANCE
        # m's gain is at most tanh(1/(4 lam)), w's at least tanh(1/lam)/4
        edge = 0.25 / math.atanh(c - slack) if mode == "m-edge" else 1.0 / math.atanh(4.0 * (c + slack))
        return GameParams(mu_hi, mu_lo, c * delta_mu, edge * (1.0 + rng.uniform(-1e-12, 1e-12)))
    lam0 = 10.0 ** rng.uniform(-3.0, 3.0)
    game = GameParams(mu_hi, mu_lo, quota_gain_of_m(GameParams(mu_hi, mu_lo, 1.0, lam0)) * delta_mu, lam0)
    lo, hi = lam0 / 2.0, 2.0 * lam0
    above = quota_gain_of_m(game._replace(lam=lo)) > game.c
    if above != (quota_gain_of_m(game._replace(lam=hi)) > game.c):
        while True:  # to adjacent floats
            mid = lo + (hi - lo) / 2.0
            if mid in (lo, hi):
                break
            if (quota_gain_of_m(game._replace(lam=mid)) > game.c) == above:
                lo = mid
            else:
                hi = mid
        lam0 = lo
    lam, k = lam0, rng.randint(-3, 3)
    for _ in range(abs(k)):
        lam = math.nextafter(lam, math.copysign(math.inf, k))
    return game._replace(lam=lam)


def near_star_game(rng: random.Random) -> GameParams:
    """A game with mu_lo in [0.03, 0.499] or [0.501, 0.95], mu_hi in
    [mu_lo + 0.02, 0.99], c = cost_C / delta_mu in [0.01, 0.49], and lam
    lambda_star times 1, 1 + [-1e-10, 1e-10], [0.9, 1.1] or exp([-3, 3])."""
    mu_lo = rng.uniform(*rng.choice(((0.03, 0.499), (0.501, 0.95))))
    mu_hi = rng.uniform(mu_lo + 0.02, 0.99)
    cost = rng.uniform(0.02, 0.98) * 0.5 * (mu_hi - mu_lo)
    lam_star = lambda_star(GameParams(mu_hi, mu_lo, cost, 1.0))
    factor = rng.choice((
        lambda: 1.0,
        lambda: 1.0 + rng.uniform(-1e-10, 1e-10),
        lambda: rng.uniform(0.9, 1.1),
        lambda: math.exp(rng.uniform(-3.0, 3.0)),
    ))()
    return GameParams(mu_hi, mu_lo, cost, lam_star * factor)


def edge_game(rng: random.Random) -> GameParams:
    """:func:`domain_game` with lam redrawn log-uniform in [1e-4, 2e-3] (r
    underflows to 0 below about 1/745) or in [10, 1e4], or lambda_star times
    exp([-1, 1]), where mixed equilibria are common; a lambda_star of 0 or inf
    keeps the domain_game's lam."""
    game = domain_game(rng)
    lam = rng.choice((
        lambda: 10.0 ** rng.uniform(-4.0, math.log10(2e-3)),
        lambda: 10.0 ** rng.uniform(1.0, 4.0),
        lambda: lambda_star(game) * math.exp(rng.uniform(-1.0, 1.0)),
    ))()
    return game._replace(lam=lam) if 0.0 < lam < math.inf else game


def any_domain_game(rng: random.Random) -> GameParams:
    """A draw of :func:`domain_game`, :func:`edge_game`, :func:`near_half_game` or :func:`near_star_game`."""
    return rng.choice((domain_game, edge_game, near_half_game, near_star_game))(rng)


def assert_mirrored(records: list) -> None:
    """records list (hi, lo) exactly when they list (lo, hi), the two with
    equal profit, revenue, info_cost and classification and u_m and u_w
    swapped, all exactly."""
    by_profile = {rec.profile: rec for rec in records}
    hi_lo, lo_hi = by_profile.get((riscreen.HI, riscreen.LO)), by_profile.get((riscreen.LO, riscreen.HI))
    assert (hi_lo is None) == (lo_hi is None), sorted(by_profile)
    if hi_lo is not None:
        fields = ("profit", "revenue", "info_cost", "classification", "utility_m", "utility_w")
        swapped = ("profit", "revenue", "info_cost", "classification", "utility_w", "utility_m")
        assert [getattr(hi_lo, f) for f in fields] == [getattr(lo_hi, f) for f in swapped], (hi_lo, lo_hi)


def multitask_game(rng: random.Random) -> tuple:
    """A regular game and two tasks, the cheaper first: mu_hi in [0.55, 0.97],
    mu_lo in [max(1 - mu_hi, 0.05) + 0.005, mu_hi - 0.01], alpha in [0.2, 0.5]
    (equal for both tasks half the time), beta in [0.5, 2], each task's c
    below the regularity bound, and lam around both task games' cutpoints or
    in one's discriminatory window."""
    mu_hi = rng.uniform(0.55, 0.97)
    mu_lo = rng.uniform(max(1.0 - mu_hi, 0.05) + 0.005, mu_hi - 0.01)
    game = GameParams(mu_hi, mu_lo, 0.07, 1.0)
    bound = mu_hi * (1.0 - mu_hi) / (game.A + game.B)
    alpha1 = rng.uniform(0.2, 0.5)
    alpha2 = alpha1 if rng.random() < 0.5 else rng.uniform(0.2, 0.5)
    beta = rng.uniform(0.5, 2.0)
    c1 = bound * rng.uniform(0.3, 0.98)
    c2 = min(c1 * rng.uniform(1.0, 1.3), 0.99 * bound)
    tasks = (
        TaskParams(alpha1, beta, c1 * alpha1 * beta * game.delta_mu),
        TaskParams(alpha2, beta, c2 * alpha2 * beta * game.delta_mu),
    )
    if tasks[0].effective_cost(game.delta_mu) > tasks[1].effective_cost(game.delta_mu):
        tasks = tasks[::-1]
    cuts = [thresholds(g) for g in task_games(game, tasks)]
    window = rng.choice(cuts + [None])
    if window is None:  # anywhere around the cutpoints of both tasks
        ends = [v for k in cuts for v in (k.lambda_low, k.lambda_star, k.lambda_high) if 0.0 < v < math.inf]
        lam = rng.uniform(0.5 * min(ends), 1.25 * max(ends))
    else:  # inside one task's discriminatory window
        lam = rng.uniform(window.lambda_low, window.lambda_high)
    return game._replace(lam=lam), tasks


def ordered_problem(rng: random.Random) -> BinaryRIProblem:
    """3-5 states with prior weights in [0.05, 1] normalized, advantages in
    [-2, 2] sorted ascending, lam in [0.05, 5]."""
    n = rng.randint(3, 5)
    weights = [rng.uniform(0.05, 1.0) for _ in range(n)]
    adv = sorted(rng.uniform(-2.0, 2.0) for _ in range(n))
    lam = rng.uniform(0.05, 5.0)
    total = sum(weights)
    return BinaryRIProblem(tuple(range(n)), tuple(w / total for w in weights), tuple(adv), lam)


def wide_problem(rng: random.Random) -> BinaryRIProblem:
    """2-6 states, prior weights log-uniform in [1e-25, 1] normalized, |v|
    log-uniform in [1e-2, 1e2] of either sign, lam log-uniform in [1e-4, 1e4]."""
    n = rng.randint(2, 6)
    weights = [10.0 ** rng.uniform(-25.0, 0.0) for _ in range(n)]
    total = sum(weights)
    adv = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 2.0) for _ in range(n)]
    lam = 10.0 ** rng.uniform(-4.0, 4.0)
    return BinaryRIProblem(tuple(range(n)), tuple(w / total for w in weights), tuple(adv), lam)


def sample_assumption1(rng: random.Random, lam: float = 1.0) -> GameParams:
    """A regular game: mu_hi in [0.52, 0.97], mu_lo in [max(1 - mu_hi + 0.01,
    0.05), mu_hi - 0.01], c in [0.05, 0.95] times the regularity bound
    mu_hi (1 - mu_hi) / (A + B), and the given lam; redrawn until assumption1
    holds."""
    while True:
        mu_hi = rng.uniform(0.52, 0.97)
        mu_lo = rng.uniform(max(1.0 - mu_hi + 0.01, 0.05), mu_hi - 0.01)
        A = mu_hi * (1.0 - mu_lo)
        B = mu_lo * (1.0 - mu_hi)
        bound = mu_hi * (1.0 - mu_hi) / (A + B)
        c = rng.uniform(0.05, 0.95) * bound
        params = GameParams(mu_hi, mu_lo, c * (mu_hi - mu_lo), lam)
        if params.assumption1:
            return params


def sample_condition5(rng: random.Random, lam: float = 1.0) -> GameParams:
    """A regular game with lambda_star < lambda_high: mu_hi in [0.55, 0.95],
    mu_lo in [0.505, mu_hi - 0.02], c inside the middle 96% of (g(gamma_hat),
    bound), bound the regularity bound of :func:`sample_assumption1`, and the
    given lam; redrawn until assumption1 and condition5 hold."""
    while True:
        mu_hi = rng.uniform(0.55, 0.95)
        mu_lo = rng.uniform(0.505, mu_hi - 0.02)
        A = mu_hi * (1.0 - mu_lo)
        B = mu_lo * (1.0 - mu_hi)
        bound = mu_hi * (1.0 - mu_hi) / (A + B)
        probe = GameParams(mu_hi, mu_lo, 0.4 * bound * (mu_hi - mu_lo), lam)
        cuts = thresholds(probe)
        if cuts.gamma_hat is None:
            continue
        floor = exact.g(cuts.gamma_hat)
        if floor >= 0.98 * bound:
            continue
        c = rng.uniform(floor + 0.02 * (bound - floor), bound - 0.02 * (bound - floor))
        params = GameParams(mu_hi, mu_lo, c * (mu_hi - mu_lo), lam)
        cuts = thresholds(params)
        if params.assumption1 and cuts.condition5:
            return params


def random_problem(rng: random.Random, min_states: int = 2, alpha: float = 1.0) -> BinaryRIProblem:
    """min_states to 5 states with a Dirichlet(alpha) prior (normalized gamma
    variates), advantages uniform in [-2, 2], lam uniform in [0.05, 5]."""
    n = rng.randint(min_states, 5)
    raw = [rng.gammavariate(alpha, 1.0) for _ in range(n)]
    total = sum(raw)
    adv = [rng.uniform(-2.0, 2.0) for _ in range(n)]
    return BinaryRIProblem(tuple(range(n)), tuple(x / total for x in raw), tuple(adv), rng.uniform(0.05, 5.0))


def classification(problem: BinaryRIProblem) -> str:
    """Corner or interior optimum of problem: ri_core.classify at the scaled advantages v/lam."""
    return ri_core.classify(problem.prior, [v / problem.lam for v in problem.advantage])


def random_interior_problem(rng: random.Random) -> BinaryRIProblem:
    """:func:`random_problem` with 3-5 states and a Dirichlet(2) prior,
    redrawn until its rule is interior."""
    while True:
        problem = random_problem(rng, 3, 2.0)
        if classification(problem) == ri_core.INTERIOR:
            return problem


def grid_search_value(problem: BinaryRIProblem, step: float = 1e-4) -> tuple:
    """Best objective over the logit rule family on a uniform q_bar grid.

    Independent of the fixed-point solver: candidate rules are evaluated
    directly through E[q v] - lam * I, with I computed from the candidate's
    own (generally inconsistent) unconditional probability. An array oracle:
    the calling test skips where numpy is absent.
    """
    np = pytest.importorskip("numpy")

    def h(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = x * np.log(x) + (1.0 - x) * np.log1p(-x)
        return np.where((x > 0.0) & (x < 1.0), out, 0.0)

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
    info = h(cond) @ p - h(ubar)
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

    nu solves sum_d p(d) sigmoid((d - nu)/lam) = 1/2, that is sum_d p(d)
    tanh((d - nu)/(2 lam)) = 0, a residual that keeps the digits pi_bar - 1/2
    cancels, with :func:`ri_core.find_root` on [-1, 1] to a tolerance
    relative to the root: every d - nu is >= 0 at nu = -1 and <= 0 at nu = 1,
    so the residual changes sign there.
    """
    from riscreen import BracketError, PromotionSignal, QuotaSolution, optimal_signal, state_distribution
    from riscreen.quota_policy import QUOTA_TOL

    e_m, e_w = profile
    if e_m == e_w:
        return QuotaSolution(0.0, optimal_signal(params, profile))
    prior = state_distribution(params, profile)
    nu = ri_core.find_root(
        lambda nu: sum(p * math.tanh((d - nu) / (2.0 * params.lam)) for p, d in zip(prior, (-1.0, 0.0, 1.0))),
        -1.0,
        1.0,
    )
    q, pi_bar = _binding_rule(prior, params.lam, nu)
    if abs(pi_bar - 0.5) > QUOTA_TOL:
        raise BracketError(f"quota not met at nu={nu!r}: pi_bar={pi_bar!r}")
    return QuotaSolution(nu, PromotionSignal(*q, pi_bar))


def reference_quota_equilibrium_set(params: GameParams) -> list:
    """:func:`riscreen.quota_equilibrium_set` profile by profile, its reference:
    find_multiplier, supports_profile and evaluate for (hi, hi), (hi, lo) and
    (lo, lo), each solved on its own. (lo, hi) is (hi, lo) with the names
    swapped: its record is that of (hi, lo) with the signal mirrored and the
    utilities swapped, once find_multiplier is checked to give it exactly
    -nu and the mirrored signal of (hi, lo)."""
    from riscreen import HI, LO, PROFILES, evaluate, find_multiplier
    from riscreen.baseline_game import supports_profile

    found = {}
    for profile in ((HI, HI), (HI, LO), (LO, LO)):
        signal = find_multiplier(params, profile).signal
        if supports_profile(params, signal, profile):
            found[profile] = evaluate(params, profile, signal)
    hi_lo = find_multiplier(params, (HI, LO))
    assert find_multiplier(params, (LO, HI)) == (-hi_lo.nu, hi_lo.signal.mirrored())
    if (HI, LO) in found:
        rec = found[HI, LO]
        found[LO, HI] = rec._replace(profile=(LO, HI), signal=rec.signal.mirrored(),
                                     utility_m=rec.utility_w, utility_w=rec.utility_m)
    return [found[p] for p in PROFILES if p in found]


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


def win_probabilities(signal, mu_m: float, mu_w: float) -> tuple:
    """m's and w's winning probabilities against a fixed signal, by state enumeration."""
    p_plus = mu_m * (1.0 - mu_w)
    p_minus = mu_w * (1.0 - mu_m)
    p_zero = 1.0 - p_plus - p_minus
    return (
        p_plus * signal.pi_plus + p_zero * signal.pi_zero + p_minus * signal.pi_minus,
        p_plus * (1.0 - signal.pi_plus) + p_zero * (1.0 - signal.pi_zero) + p_minus * (1.0 - signal.pi_minus),
    )


def direct_ic_equilibria(params: GameParams, tol: float = 1e-12, costs: tuple | None = None) -> list:
    """Profiles surviving a from-scratch incentive check at their optimal signals.

    The check enumerates each agent's winning probability at both own effort
    levels directly over the three states, bypassing the X/Y algebra, and
    compares the utility difference against the effort cost, to tol in
    utility: costs = (cost of m, cost of w), both params.cost_C by default.
    """
    from riscreen import HI, LO, PROFILES, optimal_signal

    mu = {HI: params.mu_hi, LO: params.mu_lo}
    cost_m, cost_w = costs or (params.cost_C, params.cost_C)
    out = []
    for profile in PROFILES:
        sig = optimal_signal(params, profile)
        e_m, e_w = profile
        util_m = {e: win_probabilities(sig, mu[e], mu[e_w])[0] - (cost_m if e == HI else 0.0) for e in (HI, LO)}
        util_w = {e: win_probabilities(sig, mu[e_m], mu[e])[1] - (cost_w if e == HI else 0.0) for e in (HI, LO)}
        if all(u[e] >= u[LO if e == HI else HI] - tol for u, e in ((util_m, e_m), (util_w, e_w))):
            out.append(profile)
    return out


def logit_bonuses(A, B, lam: float, np):
    """(X, Y) of the optimal signal at odds A : B on numpy arrays, 0 at a corner: the arithmetic of
    :func:`riscreen.baseline_game.signal_from_odds` and ``_logit_rule``, written again. The intercept
    is s = ln(a/b), a = -A expm1(-L - 1/lam), b = -B expm1(L - 1/lam), L = ln(A/B) as a log1p of the larger
    of A and B over the smaller, and each
    bonus E (1 - e^(-1/lam)) / ((1 + e^-|t|) (1 + e^-|t'|)) at its two logits t > t', with E = e^-|t'|
    where t' >= 0, e^-|t| where t <= 0, and 1 otherwise."""
    inv = 1.0 / lam
    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.where(A >= B, np.log1p((A - B) / B), -np.log1p((B - A) / A))
        a, b = -A * np.expm1(-L - inv), -B * np.expm1(L - inv)
        inside = exact.interior(A, B, math.exp(-1.0 / lam)) & (a > 0.0) & (b > 0.0)
        s = np.log(a / b)
    t_minus, t_plus = s - inv, s + inv
    e_minus, e_zero, e_plus = (np.exp(-np.abs(t)) for t in (t_minus, s, t_plus))
    k = -math.expm1(-inv)
    X = np.where(s >= 0.0, e_zero, np.where(t_plus <= 0.0, e_plus, 1.0)) * k / ((1.0 + e_plus) * (1.0 + e_zero))
    Y = np.where(t_minus >= 0.0, e_minus, np.where(s <= 0.0, e_zero, 1.0)) * k / ((1.0 + e_zero) * (1.0 + e_minus))
    return np.where(inside, X, 0.0), np.where(inside, Y, 0.0)


def continuous_effort_scan(kappa: float, lam_values, grid_size: int = 100) -> list:
    """The exhaustive numpy scan of every grid_size^2 effort pair, the oracle
    of :func:`riscreen.variants.continuous_effort_equilibria`. The bonuses
    come from :func:`logit_bonuses`, the library's arithmetic on arrays,
    which shares no code with it; numpy's exp, expm1, log1p and log may
    round a last bit apart from the math module's, which moves a fixed
    point only where a gain lands within an ulp of a best-response
    boundary. An array oracle: the calling test skips where numpy is
    absent."""
    from riscreen.variants import EffortGridResult

    np = pytest.importorskip("numpy")

    grid = np.linspace(0.0, 1.0, grid_size)
    nu_m = grid[:, None]
    nu_w = grid[None, :]
    A = nu_m * (1.0 - nu_w)
    B = nu_w * (1.0 - nu_m)
    results = []
    for lam in lam_values:
        X, Y = logit_bonuses(A, B, lam, np)
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
    np = pytest.importorskip("numpy")
    n = grid.size
    target = np.clip(gain / kappa, 0.0, 1.0)
    i_lo = np.clip(np.floor(target * (n - 1)).astype(int), 0, n - 1)
    i_hi = np.clip(i_lo + 1, 0, n - 1)
    val_lo = grid[i_lo] * gain - 0.5 * kappa * grid[i_lo] ** 2
    val_hi = grid[i_hi] * gain - 0.5 * kappa * grid[i_hi] ** 2
    return np.where(val_hi > val_lo, i_hi, i_lo)
