"""Two-contestant promotion game under a mutual-information attention cost.

Two agents, labeled m and w, simultaneously choose high or low effort. The
principal screens them through a signal about the productivity difference
d = theta_m - theta_w in {-1, 0, 1} and promotes one of them; pi(d) is the
probability that m is promoted at difference d. Attention is priced at
``lam`` utils per nat, and gamma = exp(1/lam) is the transform in which the
closed forms below are polynomial.

The module exposes the full equilibrium analysis in closed form: optimal
signal per effort profile, incentive gains, the cutpoints separating the
equilibrium regimes, profits, agent welfare, and the most profitable
equilibrium. The generic solver in :mod:`riscreen.ri_core` reproduces every
signal here from first principles and serves as its cross-check.

All functions are pure and all values immutable; parameter sweeps can be
parallelized by the caller without shared state.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import ri_core
from ._primitives import BracketError, ConvergenceError, _positive, _Validated

HI = "hi"
LO = "lo"
AGENT_M = "m"
AGENT_W = "w"
#: enumeration order used by equilibrium_set and the CLI
PROFILES = ((HI, HI), (HI, LO), (LO, HI), (LO, LO))

IMPARTIAL = "impartial"
DISCRIMINATORY = "discriminatory"

#: slack for incentive comparisons, IC_TOL min(1, c): relative to a cost below
#: 1, so a zero gain never meets a positive c; keeps knife-edge profiles in
#: both adjacent regimes, matching the closed/half-open regime intervals
IC_TOL = 1e-12
#: tolerance of the impartiality predicate pi(d) = 1 - pi(-d)
IMPARTIAL_TOL = 1e-9


class GameParams(_Validated, namedtuple("GameParams", "mu_hi mu_lo cost_C lam")):
    """Primitives of the promotion game.

    mu_hi, mu_lo: success probabilities under high and low effort, 0 < mu_lo < mu_hi < 1
    cost_C:       utility cost of high effort (low effort is free)
    lam:          attention cost in utils per nat
    """

    __slots__ = ()

    def __new__(cls, mu_hi: float, mu_lo: float, cost_C: float, lam: float):
        if not 0.0 < mu_lo < mu_hi < 1.0:
            raise ValueError(f"need 0 < mu_lo < mu_hi < 1, got mu_lo={mu_lo!r}, mu_hi={mu_hi!r}")
        return tuple.__new__(cls, (mu_hi, mu_lo, _positive("cost_C", cost_C), _positive("lam", lam)))

    @property
    def delta_mu(self) -> float:
        return self.mu_hi - self.mu_lo

    @property
    def c(self) -> float:
        """Effective cost of high effort per unit of promotion probability."""
        return self.cost_C / self.delta_mu

    @property
    def A(self) -> float:
        """P(d = 1) when m works high and w low."""
        return self.mu_hi * (1.0 - self.mu_lo)

    @property
    def B(self) -> float:
        """P(d = -1) when m works high and w low."""
        return self.mu_lo * (1.0 - self.mu_hi)

    @property
    def assumption1(self) -> bool:
        """Regularity: mu_hi + mu_lo > 1 and c < mu_hi(1-mu_hi)/(A+B)."""
        return (
            self.mu_hi + self.mu_lo > 1.0
            and self.c < self.mu_hi * (1.0 - self.mu_hi) / (self.A + self.B)
        )

    def mu(self, effort: str) -> float:
        if effort == HI:
            return self.mu_hi
        if effort == LO:
            return self.mu_lo
        raise ValueError(f"effort must be {HI!r} or {LO!r}, got {effort!r}")


class StateDistribution(_Validated, namedtuple("StateDistribution", "p_minus p_zero p_plus")):
    """Distribution of the productivity difference d = theta_m - theta_w."""

    __slots__ = ()

    def __new__(cls, p_minus: float, p_zero: float, p_plus: float):
        for p in (p_minus, p_zero, p_plus):
            if p < -1e-15:
                raise ValueError(f"negative probability {p!r}")
        if abs(p_minus + p_zero + p_plus - 1.0) > 1e-12:
            raise ValueError("state probabilities must sum to 1")
        return tuple.__new__(cls, (p_minus, p_zero, p_plus))


class PromotionSignal(namedtuple("PromotionSignal", "pi_minus pi_zero pi_plus pi_bar")):
    """Promotion probabilities for m conditional on the productivity difference.

    pi_bar is the average promotion probability under the distribution the
    signal was derived for. X = pi(1) - pi(0) is the promotion bonus for
    outperforming, Y = pi(0) - pi(-1) the penalty for underperforming.
    """

    __slots__ = ()

    def as_tuple(self) -> tuple:
        """(pi(-1), pi(0), pi(1))."""
        return (self.pi_minus, self.pi_zero, self.pi_plus)

    @property
    def X(self) -> float:
        return self.pi_plus - self.pi_zero

    @property
    def Y(self) -> float:
        return self.pi_zero - self.pi_minus

    @property
    def impartial(self) -> bool:
        """True when pi(d) = 1 - pi(-d) for every d (so pi(0) = 1/2 and X = Y)."""
        return (
            abs(self.pi_zero - 0.5) <= IMPARTIAL_TOL
            and abs(self.pi_plus + self.pi_minus - 1.0) <= IMPARTIAL_TOL
        )

    @property
    def degenerate(self) -> bool:
        probs = self.as_tuple()
        return all(p == 0.0 for p in probs) or all(p == 1.0 for p in probs)

    def mirrored(self) -> "PromotionSignal":
        """The same screening rule with the agents' roles swapped."""
        q_minus, q_zero, q_plus, pi_bar = self
        return PromotionSignal(1.0 - q_plus, 1.0 - q_zero, 1.0 - q_minus, 1.0 - pi_bar)


class ThresholdSet(namedtuple(
    "ThresholdSet", "lambda_breve lambda_star lambda_low lambda_high gamma_hat X_low X_high condition5 assumption1"
)):
    """Cutpoints of the attention-cost axis.

    lambda_breve: above it the signal for (hi, lo) collapses to always-promote-m
    lambda_star:  impartial equilibria switch from high to low effort
    lambda_low, lambda_high: the discriminatory regime is [lambda_low, lambda_high]
    gamma_hat:    root of the crossing that decides condition5 (None when mu_lo <= 1/2)
    X_low, X_high: bounds on the outperform bonus X that keep both incentive
                   constraints of the (hi, lo) profile satisfied

    Non-regular parameter sets are reported through the flags together with
    limiting threshold values (0 stands for an unattainable bound), never as
    silent NaN.
    """

    __slots__ = ()

    @property
    def regular(self) -> bool:
        return self.assumption1 and all(
            math.isfinite(v) and v > 0.0
            for v in (self.lambda_star, self.lambda_low, self.lambda_high)
        )


class ProfitBreakdown(namedtuple("ProfitBreakdown", "V I profit")):
    """Expected revenue V, information bill I (nats), and profit V - lam * I."""

    __slots__ = ()


class EquilibriumRecord(namedtuple(
    "EquilibriumRecord", "profile signal classification revenue info_cost profit utility_m utility_w"
)):
    """An effort profile and its signal, valued by :func:`evaluate`: V, I, profit and utilities."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# state distributions and the closed-form signal
# ---------------------------------------------------------------------------

def state_distribution(params: GameParams, profile: tuple) -> StateDistribution:
    """Distribution of d = theta_m - theta_w induced by an effort profile.

    p(0) = mu_m mu_w + (1 - mu_m)(1 - mu_w), a sum of positive terms: the
    complement 1 - p(1) - p(-1) cancels when mu_m and mu_w sit at
    opposite edges.
    """
    params.mu(profile[0]), params.mu(profile[1])
    return StateDistribution(*_profile_prior(params.mu_hi, params.mu_lo, profile)[3:])


def _profile_prior(mu_hi: float, mu_lo: float, profile: tuple) -> tuple:
    """(profile, mu_m, mu_w, p(-1), p(0), p(1)) of a profile whose labels are valid."""
    mu_m, mu_w = mu_hi if profile[0] == HI else mu_lo, mu_hi if profile[1] == HI else mu_lo
    return profile, mu_m, mu_w, mu_w * (1.0 - mu_m), mu_m * mu_w + (1.0 - mu_m) * (1.0 - mu_w), mu_m * (1.0 - mu_w)


def g_func(gamma: float) -> float:
    """Promotion bonus X = Y of the impartial signal, (gamma-1)/(2(gamma+1)).

    Strictly increasing on [1, inf) with limit 1/2.
    """
    if gamma < 1.0:
        raise ValueError(f"g_func needs gamma >= 1, got {gamma!r}")
    if math.isinf(gamma):
        return 0.5
    return (gamma - 1.0) / (2.0 * (gamma + 1.0))


def f_func(params: GameParams, gamma: float) -> float:
    """Outperform bonus X of the (hi, lo) signal.

    (gamma A - B)(gamma B - A) / ((gamma^2 - 1)(A + B) A); zero at
    gamma = A/B, strictly increasing above, with limit B/(A+B), which an
    infinite gamma returns exactly. Evaluated in r = 1/gamma, which keeps
    huge gammas finite.
    """
    A, B = params.A, params.B
    odds = A / B if B else math.inf  # B underflows to 0: degenerate at every finite gamma
    if gamma < odds:
        raise ValueError(f"f_func needs gamma >= A/B = {odds!r}, got {gamma!r}")
    if math.isinf(gamma):
        return B / (A + B)
    r = 1.0 / gamma
    return (A - r * B) * (B - r * A) / ((1.0 - r * r) * (A + B) * A)


def g_inverse(x: float) -> float:
    """gamma solving g(gamma) = x; +inf when x >= 1/2 (g is bounded by 1/2)."""
    if x < 0.0:
        raise ValueError(f"g_inverse needs x >= 0, got {x!r}")
    if x >= 0.5:
        return math.inf
    return (1.0 + 2.0 * x) / (1.0 - 2.0 * x)


def f_inverse(params: GameParams, x: float) -> float:
    """gamma > A/B solving f(gamma) = x; +inf when x >= B/(A+B).

    f(gamma) = x is quadratic in gamma:
    (AB - k) gamma^2 - (A^2 + B^2) gamma + (AB + k) = 0 with k = x(A+B)A,
    and the root above A/B takes the plus branch, +inf where the leading
    coefficient is not positive (x within rounding of the cap). Near the
    cap the loss of relative accuracy is the problem's conditioning, not
    the formula's: the result is backward stable (f(gamma) is within a few
    ulps of x), so its relative error stays below eps x / (B/(A+B) - x).
    """
    A, B = params.A, params.B
    if x < 0.0:
        raise ValueError(f"f_inverse needs x >= 0, got {x!r}")
    k = x * (A + B) * A
    lead = A * B - k
    if x >= B / (A + B) or not lead > 0.0:
        return math.inf
    disc = (A * A - B * B) ** 2 + 4.0 * k * k
    return ((A * A + B * B) + math.sqrt(disc)) / (2.0 * lead)


def optimal_signal(params: GameParams, profile: tuple) -> PromotionSignal:
    """The principal's optimal promotion signal for a fixed effort profile.

    Symmetric profiles get the impartial signal with pi(0) = pi_bar = 1/2 and
    X = Y = g(gamma). The (hi, lo) profile gets the always-promote-m signal
    once gamma <= A/B (lam >= lambda_breve), and otherwise the tilted
    interior signal with pi_bar = pi(0) = (gamma A - B)/((gamma - 1)(A + B)),
    X = f(gamma) and Y = (A/B) f(gamma). The (lo, hi) profile is the mirror
    image. The labels are checked here; the signal is the profile's entry
    of :func:`_profile_signals`.
    """
    e_m, e_w = profile
    params.mu(e_m), params.mu(e_w)
    return _profile_signals(params, params.lam)[PROFILES.index((e_m, e_w))]


def _impartial_signal(r: float) -> PromotionSignal:
    """The optimal signal of a symmetric profile at r = exp(-1/lam): pi(1) = 1/(1 + r)."""
    pi_plus = 1.0 / (1.0 + r)
    return PromotionSignal(1.0 - pi_plus, 0.5, pi_plus, 0.5)


def _profile_signals(game, lam: float) -> tuple:
    """The optimal signal of each profile in PROFILES order at lam, for a game with A and B
    (a GameParams or a _Game), from two kernels: (lo, lo) shares the impartial signal of
    (hi, hi) and (lo, hi) mirrors (hi, lo)."""
    # everything is evaluated in r = 1/gamma = exp(-1/lam), which stays in
    # (0, 1] for every lam > 0 and underflows harmlessly to the costless limit
    r = math.exp(-1.0 / lam)
    # the (hi, lo) corner always promotes m: A >= B
    pi_minus, pi_bar, pi_plus = signal_from_odds(game.A, game.B, r) or (1.0, 1.0, 1.0)
    impartial, tilted = _impartial_signal(r), PromotionSignal(pi_minus, pi_bar, pi_plus, pi_bar)
    return impartial, tilted, tilted.mirrored(), impartial


def signal_from_odds(A: float, B: float, r: float) -> tuple | None:
    """(pi(-1), pi_bar, pi(1)) of the optimal signal at outcome odds A : B, or None at a corner.

    A = P(d = 1) and B = P(d = -1) under the effort profile, r = exp(-1/lam);
    pi(0) = pi_bar. The signal is interior exactly when r < A/B < 1/r, tested
    as products, so B = 0 and r = 1 are corners too; at a corner the
    principal always promotes one agent, m when A > B. This is the one
    interior-vs-corner decision of every closed-form signal.
    """
    if A <= r * B or B <= r * A:
        return None
    a, q = A - r * B, 1.0 - r * r
    return r * a / (q * B), a / ((1.0 - r) * (A + B)), a / (q * A)


def _cubic_roots(a: float, b: float, c: float, reverse: bool = True) -> list:
    """Real roots of z^3 + a z^2 + b z + c without cancellation (Numerical
    Recipes §5.6, on the cubic scaled so that its coefficients are at most 1).

    First the root that is exact to rounding: the trigonometric root whose
    two terms share a sign when all three roots are real, else Cardano's,
    or, where that is smaller than the complex pair, the reciprocal of the
    reversed cubic's; then the real roots of the quadratic left by
    deflating it, z^2 - tot z + prod, as the citardauq pair
    q = (tot + sign(tot) d)/2 and prod/q, neither of which cancels.
    """
    k = max(abs(a), math.sqrt(abs(b)), abs(c) ** (1.0 / 3.0)) or 1.0
    a, b, c = a / k, b / k / k, c / k / k / k
    Q = (a * a - 3.0 * b) / 9.0
    R = (2.0 * a * a * a - 9.0 * a * b + 27.0 * c) / 54.0
    if R * R < Q * Q * Q:
        sq = math.sqrt(Q)
        theta = math.acos(max(-1.0, min(1.0, R / (Q * sq))))
        z = -2.0 * sq * math.cos((theta + (2.0 * math.pi if a < 0.0 else 0.0)) / 3.0) - a / 3.0
    else:
        S = -math.copysign((abs(R) + math.sqrt(R * R - Q * Q * Q)) ** (1.0 / 3.0), R)
        z = S + (Q / S if S != 0.0 else 0.0) - a / 3.0
        if reverse and z * c < 0.0 and abs(z * z * z) < abs(c):
            return [k / x for x in _cubic_roots(b / c, a / c, 1.0 / c, reverse=False) if x]
    prod, tot = (b, -a) if z == 0.0 else (-c / z, (b + c / z) / z)
    disc = tot * tot - 4.0 * prod
    if disc < 0.0:
        return [k * z]
    q = (tot + math.sqrt(disc) if tot >= 0.0 else tot - math.sqrt(disc)) / 2.0
    return [k * z, k * q, k * (prod / q if q else 0.0)]


def ri_problem(params: GameParams, profile: tuple) -> ri_core.BinaryRIProblem:
    """The promotion decision recast as a generic binary RI problem."""
    return ri_core.BinaryRIProblem(
        states=(-1, 0, 1),
        prior=state_distribution(params, profile),
        advantage=(-1.0, 0.0, 1.0),
        lam=params.lam,
    )


def signal_oracle_residual(params: GameParams, profile: tuple) -> float:
    """Sup-norm gap between the closed-form signal and the generic solver."""
    closed = optimal_signal(params, profile).as_tuple()
    solved = ri_core.solve_binary_ri(ri_problem(params, profile)).conditional
    return max(abs(a - b) for a, b in zip(closed, solved))


# ---------------------------------------------------------------------------
# incentives and equilibrium enumeration
# ---------------------------------------------------------------------------

def _gains(mu_m: float, mu_w: float, X: float, Y: float) -> tuple:
    """(m's gain, w's gain) from working high at bonus X and penalty Y."""
    return (1.0 - mu_w) * X + mu_w * Y, mu_m * X + (1.0 - mu_m) * Y


def incentive_gain(params: GameParams, signal: PromotionSignal, agent: str, other_effort: str) -> float:
    """Promotion-probability gain from working high, per unit of delta_mu.

    For m the gain is (1 - mu_w) X + mu_w Y; for w it is mu_m X + (1 - mu_m) Y,
    where the opponent's effort fixes mu_w or mu_m. High effort is incentive
    compatible exactly when the gain weakly exceeds c = cost_C / delta_mu.
    """
    mu_other = params.mu(other_effort)
    if agent != AGENT_M and agent != AGENT_W:
        raise ValueError(f"agent must be {AGENT_M!r} or {AGENT_W!r}, got {agent!r}")
    gain_m, gain_w = _gains(mu_other, mu_other, signal.X, signal.Y)
    return gain_m if agent == AGENT_M else gain_w


def supports_profile(params: GameParams, signal: PromotionSignal, profile: tuple) -> bool:
    """Do both incentive constraints hold for this profile at a fixed signal?

    Deviations are evaluated against the given signal (simultaneous moves:
    agents cannot observe, and hence cannot react to, the screening rule).
    """
    mu_hi, mu_lo, cost_C, _ = params
    e_m, e_w = profile
    if e_w not in (HI, LO) or e_m not in (HI, LO):
        params.mu(e_w), params.mu(e_m)  # the ValueError that names the label
    c = cost_C / (mu_hi - mu_lo)
    return _supports(_profile_prior(mu_hi, mu_lo, profile), signal, c, c)


def _supports(prior: tuple, signal: PromotionSignal, c_m: float, c_w: float) -> bool:
    """supports_profile at a profile's prior (from _profile_prior), at per-agent effective costs c_m and c_w."""
    (e_m, e_w), mu_m, mu_w = prior[:3]
    X, Y = signal.pi_plus - signal.pi_zero, signal.pi_zero - signal.pi_minus
    gain_m, gain_w = _gains(mu_m, mu_w, X, Y)
    return _incentive_holds(e_m, gain_m, c_m) and _incentive_holds(e_w, gain_w, c_w)


def _incentive_holds(effort: str, gain: float, c: float) -> bool:
    """One agent's incentive constraint, to IC_TOL min(1, c): gain >= c if it works high, gain <= c if low."""
    tol = IC_TOL * c if c < 1.0 else IC_TOL
    return gain >= c - tol if effort == HI else gain <= c + tol


def profit(params: GameParams, profile: tuple) -> ProfitBreakdown:
    """Principal's revenue, information bill and profit at the optimal signal.

    :func:`evaluate` at :func:`optimal_signal`. None of the three depends on
    which agent is called m: (lo, hi) is valued as (hi, lo), bit for bit.
    """
    profile = (HI, LO) if profile == (LO, HI) else profile
    rec = evaluate(params, profile, optimal_signal(params, profile))
    return ProfitBreakdown(rec.revenue, rec.info_cost, rec.profit)


#: below this |t| the kernel phi(t) = (1 + t) log1p(t) - t is summed as its
#: series; measured against 60-digit values, the series (12 terms) is within
#: 1e-15 relative there and the closed form within 9e-15 above it
PHI_SERIES_CUT = 0.08


def _phi_term(x: float, y: float, diff: float) -> float:
    """y phi(diff/y) = x ln(x/y) - diff, for x = y + diff and 0 ln 0 = 0.

    phi(t) = (1 + t) log1p(t) - t is O(t^2) and never negative, so the
    linear parts of D cancel inside it, exactly, and its series keeps the
    digits of x near y. Log ratios within 0.5 of 0 go through log1p.
    """
    t = diff / y
    if abs(t) < PHI_SERIES_CUT:  # sum over k >= 2 of (-t)^k / (k (k - 1)), by Horner
        return y * t * t * (1/2 - t * (1/6 - t * (1/12 - t * (1/20 - t * (1/30 - t * (1/42 - t * (
            1/56 - t * (1/72 - t * (1/90 - t * (1/110 - t * (1/132 - t / 156)))))))))))
    if x == 0.0:
        return -diff
    return x * (math.log1p(t) if abs(t) < 0.5 else math.log(x / y)) - diff


def _divergence(a: float, b: float) -> float:
    """Binary relative entropy D(a || b) in nats for 0 < b < 1, exactly 0 at a == b.

    D = b phi((a - b)/b) + (1 - b) phi((b - a)/(1 - b)) with 0 ln 0 = 0, a
    sum of two terms that are never negative, so it keeps relative accuracy
    when a is near b (large lam, or a quota or bound rule near 1/2).
    """
    if a == b:
        return 0.0
    return _phi_term(a, b, a - b) + _phi_term(1.0 - a, 1.0 - b, b - a)


def evaluate(params: GameParams, profile: tuple, signal: PromotionSignal) -> EquilibriumRecord:
    """Value a signal at an effort profile: V, I, profit V - lam I, utilities.

    V = mu_w + (p(1) pi(1) - p(-1) pi(-1)) and the mutual information
    I = sum_d p(d) D(pi(d) || pi_bar); a d with pi(d) = pi_bar, or a sure
    pi_bar of 0 or 1, costs nothing. pi_bar must be the prior mean of the
    conditionals to 1e-12 (ValueError otherwise). Each agent's utility is
    its promotion probability, less cost_C when it works high.
    """
    mu_hi, mu_lo, cost_C, lam = params
    e_m, e_w = profile
    if e_m not in (HI, LO) or e_w not in (HI, LO):
        params.mu(e_m), params.mu(e_w)  # the ValueError that names the label
    return _value(_profile_prior(mu_hi, mu_lo, profile), signal, lam, (cost_C, cost_C), (1.0, 1.0))


def _value(prior: tuple, signal: PromotionSignal, lam: float, costs: tuple, weights: tuple) -> EquilibriumRecord:
    """evaluate at a profile's prior (from _profile_prior), with agent i's utility weight_i times its
    promotion probability, less cost_i when it works high."""
    (e_m, e_w), _, mu_w, p_minus, p_zero, p_plus = prior
    q_minus, q_zero, q_plus, pi_bar = signal
    mean = p_minus * q_minus + p_zero * q_zero + p_plus * q_plus
    if abs(pi_bar - mean) > 1e-12:
        raise ValueError(f"signal pi_bar={pi_bar!r} is not the prior mean {mean!r} of its conditionals")
    V = mu_w + (p_plus * q_plus - p_minus * q_minus)
    # by the check above, the conditionals of a sure decision differ from it by rounding only
    I = 0.0 if pi_bar in (0.0, 1.0) else (p_minus * _divergence(q_minus, pi_bar)
        + p_zero * _divergence(q_zero, pi_bar) + p_plus * _divergence(q_plus, pi_bar))
    (cost_m, cost_w), (du_m, du_w) = costs, weights
    return EquilibriumRecord(
        prior[0], signal, IMPARTIAL if signal.impartial else DISCRIMINATORY, V, I, V - lam * I,
        du_m * pi_bar - (cost_m if e_m == HI else 0.0),
        du_w * (1.0 - pi_bar) - (cost_w if e_w == HI else 0.0),
    )


#: the lambda-independent part of a game's analyses: mu_hi, mu_lo, A, B, c,
#: (cost_C, cost_C) and each profile's _profile_prior in PROFILES order
_Game = namedtuple("_Game", "mu_hi mu_lo A B c costs priors")


def _game(params: GameParams) -> _Game:
    """The _Game of params, whose lam it ignores."""
    mu_hi, mu_lo, cost_C, _ = params
    return _Game(mu_hi, mu_lo, params.A, params.B, cost_C / (mu_hi - mu_lo), (cost_C, cost_C),
                 tuple(_profile_prior(mu_hi, mu_lo, p) for p in PROFILES))


def _equilibria(game: _Game, lam: float, signals: tuple, c_m: float, c_w: float, costs: tuple, weights: tuple) -> list:
    """The enumeration of every pure analysis: each profile whose signal (in PROFILES order) passes
    :func:`_supports` at (c_m, c_w), valued by :func:`_value` at these costs and weights."""
    return [_value(prior, signal, lam, costs, weights)
            for prior, signal in zip(game.priors, signals) if _supports(prior, signal, c_m, c_w)]


def _pure_equilibria(game: _Game, lam: float) -> list:
    """equilibrium_set at lam of the game whose lambda-independent part is game (from _game)."""
    return _equilibria(game, lam, _profile_signals(game, lam), game.c, game.c, game.costs, (1.0, 1.0))


def equilibrium_set(params: GameParams) -> list:
    """All pure-strategy equilibria, in the fixed order of PROFILES.

    A profile is an equilibrium when its optimal signal satisfies both
    agents' incentive constraints. Knife-edge parameter values keep a
    profile in both adjacent regimes.
    """
    return _pure_equilibria(_game(params), params.lam)


def most_profitable(params: GameParams) -> list:
    """Equilibrium records attaining the highest profit.

    The two mirror discriminatory equilibria earn identical profits, so the
    list has length two whenever a discriminatory equilibrium is on top, and
    length one otherwise.
    """
    return most_profitable_among(equilibrium_set(params))


def most_profitable_among(records: list) -> list:
    """Records within 1e-12 of the highest profit among those given.

    Raises ValueError ("no equilibrium records to rank") on an empty list.
    """
    if not records:
        raise ValueError("no equilibrium records to rank")
    return _ties_at_best(records, [r.profit for r in records])


def _ties_at_best(records: list, values: list) -> list:
    """The records whose value is within 1e-12 of the highest: the tie rule of every ranking."""
    best = max(values, default=0.0)
    return [r for r, v in zip(records, values) if v >= best - 1e-12]


def welfare_ordering(records: list) -> list:
    """Records sorted by joint agent utility, best first (ties keep input order)."""
    return sorted(records, key=lambda r: -(r.utility_m + r.utility_w))


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def _gamma_hat(params: GameParams) -> float:
    """Root above A/B of g(gamma) = f(gamma) A / s, s = mu_hi (1 - mu_hi).

    In r = 1/gamma the crossing is the palindromic quadratic
    (1 - r)^2 (A + B) s = 2 (A - rB)(B - rA). With A - B = delta_mu,
    2AB - s(A + B) = s delta_mu (2 mu_lo - 1) and
    A + B - 2s = delta_mu (2 mu_hi - 1) its root is
    gamma_hat = 1 + (delta_mu + sqrt(delta_mu (A + B)(2 mu_hi - 1)))
    / (s (2 mu_lo - 1)), a sum of positive terms; it exists exactly when
    mu_lo > 1/2, the sign of the denominator.
    """
    dmu, s = params.delta_mu, params.mu_hi * (1.0 - params.mu_hi)
    root = math.sqrt(dmu * (params.A + params.B) * (2.0 * params.mu_hi - 1.0))
    return 1.0 + (dmu + root) / (s * (2.0 * params.mu_lo - 1.0))


def _lam_of_gamma(gamma: float) -> float:
    """Inverse of gamma = exp(1/lam); an infinite gamma maps to lam = 0."""
    return 0.0 if math.isinf(gamma) else 1.0 / math.log(gamma)


def _log_gamma_star(c: float) -> float:
    """ln gamma* = ln((1 + 2c)/(1 - 2c)), where g(gamma*) = c; +inf when c >= 1/2.

    Taken as log1p(2c) - log1p(-2c), which keeps its digits at small c.
    """
    return math.log1p(2.0 * c) - math.log1p(-2.0 * c) if c < 0.5 else math.inf


def lambda_star(params: GameParams) -> float:
    """Attention cost at which impartial equilibria switch from high to low
    effort, 1/ln(gamma*) with gamma* = g^-1(c); independent of params.lam."""
    return 1.0 / _log_gamma_star(params.c)


def thresholds(params: GameParams) -> ThresholdSet:
    """All cutpoints of the game, with regularity flags.

    gamma* = (1+2c)/(1-2c) inverts g in closed form. The discriminatory
    bounds invert f at X_high = c mu_lo / mu_hi (w willing to shirk) and
    X_low = c (1-mu_hi)/(1-mu_lo) (m willing to work). condition5 holds when
    mu_lo > 1/2 and c > g(gamma_hat), and is exactly when
    lambda_star < lambda_high.
    """
    c = params.c
    # A/B = 1 + delta_mu/B; at B = 0 the (hi, lo) signal is degenerate at every lam
    lambda_breve = 1.0 / math.log1p(params.delta_mu / params.B) if params.B else 0.0
    X_high = c * params.mu_lo / params.mu_hi
    X_low = c * (1.0 - params.mu_hi) / (1.0 - params.mu_lo)
    lambda_low = _lam_of_gamma(f_inverse(params, X_high))
    lambda_high = _lam_of_gamma(f_inverse(params, X_low))
    gamma_hat = _gamma_hat(params) if params.mu_lo > 0.5 else None
    condition5 = gamma_hat is not None and c > g_func(gamma_hat)
    return ThresholdSet(
        lambda_breve=lambda_breve,
        lambda_star=lambda_star(params),
        lambda_low=lambda_low,
        lambda_high=lambda_high,
        gamma_hat=gamma_hat,
        X_low=X_low,
        X_high=X_high,
        condition5=condition5,
        assumption1=params.assumption1,
    )
