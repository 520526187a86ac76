"""Model variants: heterogeneous agents, commitment, prior-invariant cost,
mixed strategies, and a continuous effort grid.

Each variant perturbs one ingredient of the baseline promotion game and
reuses its machinery wherever the logic carries over unchanged.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Sequence
from operator import itemgetter

from .baseline_game import (
    AGENT_M,
    AGENT_W,
    DISCRIMINATORY,
    HI,
    IMPARTIAL,
    LO,
    GameParams,
    PromotionSignal,
    _bill,
    _cubic_roots,
    _equilibria,
    _game,
    _gains,
    _gains_can_reach,
    _incentive_holds,
    _intercept,
    _log_gamma_star,
    _logit_rule,
    _out_of_reach,
    _profile_signals,
    _supports,
    _value,
    signal_from_odds,
)
from ._primitives import ConvergenceError, _positive, _Validated


# ---------------------------------------------------------------------------
# heterogeneous effort costs and risk aversion
# ---------------------------------------------------------------------------

class HeterogeneousParams(_Validated, namedtuple("HeterogeneousParams", "cost_m cost_w du_m du_w")):
    """Per-agent effort costs and promotion utility gains.

    Risk aversion enters only through the utility gain du_i = u_i(1) - u_i(0)
    from promotion, so it rescales the incentive constraint the same way an
    effort cost does: the effective cost is c_i = (C_i / delta_mu) / du_i.
    Labeling convention: m is the agent with the weakly lower effective cost.
    """

    __slots__ = ()

    def __new__(cls, cost_m: float, cost_w: float, du_m: float = 1.0, du_w: float = 1.0):
        self = tuple.__new__(cls, (cost_m, cost_w, du_m, du_w))
        for name, value in zip(self._fields, self):
            _positive(name, value)
        return self

    def effective_costs(self, delta_mu: float) -> tuple:
        c_m = self.cost_m / delta_mu / self.du_m
        c_w = self.cost_w / delta_mu / self.du_w
        if not _incentive_holds(LO, c_m, c_w):  # c_m <= c_w + IC_TOL min(1, c_w)
            raise ValueError(
                f"label agents so the effective cost of m is lower, got "
                f"c_m={c_m!r} > c_w={c_w!r}"
            )
        return c_m, c_w


def heterogeneous_equilibrium_set(game: GameParams, het: HeterogeneousParams) -> list:
    """Equilibria when the agents differ in effort cost or risk aversion.

    Cost asymmetry leaves the principal's screening problem untouched and
    only shifts the incentive constraints, so a profile is an equilibrium
    when its baseline optimal signal meets both incentive constraints at the
    per-agent effective costs (c_m, c_w). The impartial regimes then split:
    (hi, hi) needs g(gamma) >= c_w and (lo, lo) needs g(gamma) <= c_m.

    The cost ratio bounds the discriminatory ones: favoring the low-cost
    agent is possible whenever c_w/c_m >= mu_hi(1-mu_hi)/(mu_lo(1-mu_lo))
    (automatic under mu_hi + mu_lo > 1), favoring the high-cost agent needs
    the opposite strict inequality together with mu_hi + mu_lo > 1.

    Past the slope bound at the smaller effective cost
    (baseline_game._out_of_reach), (lo, lo) is the one equilibrium, and no
    (hi, lo) signal is formed.
    """
    priors, (c_m, c_w) = _game(game).priors, het.effective_costs(game.delta_mu)
    costs, weights = (het.cost_m, het.cost_w), (het.du_m, het.du_w)
    impartial = _out_of_reach(min(c_m, c_w), game.lam)
    if impartial:
        return [_value(priors[2], impartial, game.lam, costs, weights)]
    return _equilibria(priors, game.lam, *_profile_signals(game, game.lam), c_m, c_w, costs, weights)


# ---------------------------------------------------------------------------
# commitment to the screening rule
# ---------------------------------------------------------------------------

class CommitmentSolution(namedtuple(
    "CommitmentSolution", "nu_m signal induced_profile profit binding_agent candidates"
)):
    """Best committed screening rule and the effort profile it induces.

    nu_m is the multiplier on the binding incentive constraints (zero when
    none binds), binding_agent names whose constraints bind ("m,w" for the
    bound (hi, hi) rule, None when none binds), and candidates maps each
    feasible induced outcome to its profit.
    """

    __slots__ = ()


class BindingHighSolution(namedtuple("BindingHighSolution", "nu signal profit")):
    """The rule holding (hi, hi) with both incentive constraints binding at multiplier nu."""

    __slots__ = ()


def bind_high_effort(game: GameParams) -> BindingHighSolution | None:
    """The impartial rule with X = Y = c: both agents' gains equal c under (hi, hi).

    The (hi, hi) prior is symmetric, p(1) = p(-1) = s = mu_hi (1 - mu_hi).
    Pricing both incentive constraints at one multiplier nu tilts the
    advantage to (-(1 + nu/s), 0, 1 + nu/s), whose optimum is the impartial
    logit rule pi(1) = 1 - pi(-1) = sigmoid((1 + nu/s)/lam) (Matejka &
    McKay 2015). It meets both constraints with equality at
    pi = (1/2 - c, 1/2, 1/2 + c), so (1 + nu/s)/lam = ln gamma* with
    gamma* = (1 + 2c)/(1 - 2c), and nu = s (lam ln gamma* - 1): positive
    above lambda_star, where the unpriced rule gives X = g(gamma) < c.
    Returns None when c >= 1/2, which no interior rule reaches. The signal, V
    and I read no lam (the bound of :func:`_variants_game`); the profit is V - lam I.
    """
    variants, lam = _variants_game(game), game.lam
    if variants.bound is None:
        return None
    signal, V, I = variants.bound
    s = game.mu_hi * (1.0 - game.mu_hi)
    return BindingHighSolution(s * (lam * variants.log_gamma_star - 1.0), signal, V - lam * I)


def commitment_solve(game: GameParams) -> CommitmentSolution:
    """Best outcome when the screening rule is announced before efforts.

    Below lambda_star the unconstrained impartial rule already induces
    (hi, hi) and nothing can beat it. Above, the committed principal picks
    the best of: (hi, hi) held together by both incentive constraints
    binding (:func:`bind_high_effort`, the impartial rule with X = Y = c),
    the discriminatory (hi, lo) rule when it is self-enforcing, and the
    unconstrained (lo, lo) rule. All three are closed forms. The (hi, lo) rule is
    not formed where the slope bound tanh(1/(4 lam)) of every gain is below c.
    """
    variants = _variants_game(game)
    outcomes = _commitment(variants, game.lam, _gains_can_reach(variants.base.c, game.lam))
    # max keeps the first of equal profits
    return CommitmentSolution(*max(outcomes, key=_profit), {o[2]: o[3] for o in outcomes})


#: an outcome's profit
_profit = itemgetter(3)


def _commitment(variants: _Variants, lam: float, reach: bool) -> list:
    """The feasible outcomes of commitment_solve at lam of the game whose lambda-independent part is variants,
    each a CommitmentSolution's first five fields: (hi, hi) alone up to lambda_star, else (lo, lo), the
    self-enforcing (hi, lo) rule (formed only if reach, the caller's _gains_can_reach(c, lam)) and the bound
    (hi, hi) rule when c < 1/2, from variants.bound as bind_high_effort forms it. Each profit is _bill's V - lam * I."""
    base = variants.base
    priors, c = base.priors, base.c
    impartial = _logit_rule(0.0, 1.0 / lam, 1.0 / lam)
    if lam <= variants.lam_star + 1e-15:
        V, I = _bill(priors[0], impartial)
        return [(0.0, impartial, (HI, HI), V - lam * I, None)]
    V, I = _bill(priors[2], impartial)
    outcomes = [(0.0, impartial, (LO, LO), V - lam * I, None)]
    # at a corner (None) m is always promoted: zero gains never meet c > 0, nor does any past the slope bound
    disc_signal = signal_from_odds(base.A, base.B, lam) if reach else None
    if disc_signal is not None and _supports(priors[1], disc_signal, c, c):
        V, I = _bill(priors[1], disc_signal)
        outcomes.append((0.0, disc_signal, (HI, LO), V - lam * I, None))
    if variants.bound is not None:
        signal, V, I = variants.bound
        nu = base.mu_hi * (1.0 - base.mu_hi) * (lam * variants.log_gamma_star - 1.0)
        outcomes.append((nu, signal, (HI, HI), V - lam * I, f"{AGENT_M},{AGENT_W}"))
    return outcomes


# ---------------------------------------------------------------------------
# prior-invariant attention cost
# ---------------------------------------------------------------------------

class ReferencePriorProblem(_Validated, namedtuple("ReferencePriorProblem", "true_prior reference_prior lam")):
    """Screening with the information bill charged against a fixed reference prior.

    true_prior and reference_prior are distributions over d in (-1, 0, 1),
    stored in that order; the reference prior must have full support. The
    cost of a signal is its mutual information computed under the reference
    prior, so the bill no longer tracks the actual state distribution.
    """

    __slots__ = ()

    def __new__(cls, true_prior: Sequence[float], reference_prior: Sequence[float], lam: float):
        true_prior = tuple(float(p) for p in true_prior)
        reference_prior = tuple(float(q) for q in reference_prior)
        if len(true_prior) != 3 or len(reference_prior) != 3:
            raise ValueError("priors live on the three differences (-1, 0, 1)")
        if not all(q > 0.0 and math.isfinite(q) for q in reference_prior):
            raise ValueError(f"reference prior entries must be positive and finite, got {reference_prior!r}")
        for dist in (true_prior, reference_prior):
            if not all(p >= 0.0 for p in dist) or abs(sum(dist) - 1.0) > 1e-12:
                raise ValueError(f"invalid distribution {dist!r}")
        return tuple.__new__(cls, (true_prior, reference_prior, _positive("lam", lam)))


class PriorInvariantResult(namedtuple("PriorInvariantResult", "pi_bar_q interior signal")):
    """pi_bar_q is the reference-prior average; signal is None off the interior."""

    __slots__ = ()


def _phi(x: float) -> float:
    """1/(1 - e^-x) - 1/x for x > 0; it rises from 1/2 at 0 to 1 at infinity.

    Below x = 0.15 both terms are near 1/x and cancel, so the Taylor series
    1/2 + x/12 - x^3/720 + x^5/30240 - x^7/1209600 takes over there. The
    switch sits where the two errors cross: against a 60-digit evaluation
    either side stays within 3e-15 relative.
    """
    if x < 0.15:
        x2 = x * x
        return 0.5 + x * (1.0 / 12.0 - x2 * (1.0 / 720.0 - x2 * (1.0 / 30240.0 - x2 / 1209600.0)))
    return 1.0 / -math.expm1(-x) - 1.0 / x


def prior_invariant_signal(problem: ReferencePriorProblem) -> PriorInvariantResult:
    """Optimal signal under the prior-invariant cost, via its closed form.

    The interior solution is the logit tilted by (d/lam)(p(d)/q(d)) around
    the reference-prior average

      pi_bar_q = ((alpha-1) beta q(1) - (beta-1) q(-1))
                 / ((alpha-1)(beta-1)(q(1) + q(-1))),

    which must itself be consistent with the reference prior. With the
    log-tilts a = ln alpha and b = ln beta it is up / (up + down), where
    up = q(1)/(1 - e^-b) - q(-1) e^-a/(1 - e^-a) and down is up with the
    states mirrored (up + down = q(1) + q(-1)). When both tilts are below 1
    (large lam), the 1/tilt parts of up, q(1)/b - q(-1)/a, are large and
    nearly cancel; up is then evaluated as lam q(1) q(-1) (p(1) - p(-1))
    / (p(1) p(-1)) + q(1) phi(b) + q(-1) (1 - phi(a)) with :func:`_phi`,
    whose first term is that difference in closed form. At larger tilts the
    split would cancel instead. No term overflows at small lam. The rule is
    :func:`baseline_game._logit_rule` at base ln(up/down), which keeps its digits near 0
    and 1, with slopes a and b: pi_bar_q is its pi(0), and X and Y do not cancel. An
    up or down <= 0 (or a vanishing tilt) means the optimum is not interior;
    that case is flagged rather than guessed. Raises
    :class:`ConvergenceError` when the reference-prior consistency
    residual exceeds 1e-10.
    """
    q_m, q_0, q_p = problem.reference_prior
    p_m, _, p_p = problem.true_prior
    a, b = p_p / q_p / problem.lam, p_m / q_m / problem.lam
    if a < 1e-14 or b < 1e-14:
        return PriorInvariantResult(math.nan, False, None)
    if max(a, b) < 1.0:
        lead = problem.lam * q_p * q_m * (p_p - p_m) / (p_p * p_m)
        phi_a, phi_b = _phi(a), _phi(b)
        up = lead + q_p * phi_b + q_m * (1.0 - phi_a)
        down = q_m * phi_a + q_p * (1.0 - phi_b) - lead
    else:
        up = q_p / -math.expm1(-b) - q_m * math.exp(-a) / -math.expm1(-a)
        down = q_m / -math.expm1(-a) - q_p * math.exp(-b) / -math.expm1(-b)
    if not (up > 0.0 and down > 0.0):
        return PriorInvariantResult(up / (up + down), False, None)
    signal = _logit_rule(math.log(up / down), a, b)
    residual = q_m * signal.pi_minus + q_0 * signal.pi_zero + q_p * signal.pi_plus - signal.pi_bar
    if not abs(residual) <= 1e-10:
        raise ConvergenceError(f"reference-prior consistency residual {residual!r} above 1e-10")
    return PriorInvariantResult(signal.pi_bar, True, signal)


# ---------------------------------------------------------------------------
# mixed strategies
# ---------------------------------------------------------------------------

class MixedProfile(namedtuple("MixedProfile", "sigma_m sigma_w")):
    """Probabilities of high effort; agent i succeeds with nu_i = mu_lo + sigma_i delta_mu."""

    __slots__ = ()


class MixedEquilibrium(namedtuple("MixedEquilibrium", "profile signal classification")):
    """A mixed profile, the signal optimal against it, and that signal's classification."""

    __slots__ = ()


_SIGMA_EDGE = 1e-6


def _odds(num: float, den: float) -> float:
    """num / den for num > 0; inf where den underflows to 0 (mu_lo near the
    smallest subnormal), since the odds are then past the float range."""
    return num / den if den else math.inf


def _odds_poly(rho: float, r: float, k: float, w_x: float, w_y: float) -> float:
    """P(rho) = (rho-r)(1-r rho)(w_x + w_y rho) - k rho(1+rho) of :func:`_odds_roots`, in its factored form."""
    return (rho - r) * (1.0 - r * rho) * (w_x + w_y * rho) - k * rho * (1.0 + rho)


def _odds_roots(r: float, k: float, w_x: float, w_y: float, lo: float, hi: float) -> list:
    """Roots in [lo, hi], increasing, of P(rho) = (rho-r)(1-r rho)(w_x + w_y rho) - k rho(1+rho).

    The real roots of P/(-r w_y) from :func:`baseline_game._cubic_roots`.
    Where r w_y hi <= eps |c2| (r = 0 included) the cubic term is below P's
    rounding on [lo, hi], and the roots are those of the quadratic left,
    c2 rho^2 + c1 rho - r w_x, taken as the roots of rho times it over c2
    (the extra root 0 lies below lo). Each gets one Newton step on P in
    the factored form of :func:`_odds_poly`, kept where it lowers |P|: the expanded
    coefficients lose digits as r nears 1. A step moves a candidate by its
    error, under eps^(1/3) relative even at a triple root, so only those
    within 1e-3 relative of [lo, hi] are polished.
    """
    c2 = (1.0 + r * r) * w_y - r * w_x - k
    c1 = (1.0 + r * r) * w_x - r * w_y - k
    if r * w_y * hi > sys.float_info.epsilon * abs(c2):
        candidates = _cubic_roots(-c2 / (r * w_y), -c1 / (r * w_y), w_x / w_y)
    else:
        candidates = _cubic_roots(c1 / c2, -r * w_x / c2, 0.0) if c2 else ()
    roots = []
    for rho in candidates:
        if not lo * (1.0 - 1e-3) <= rho <= hi * (1.0 + 1e-3):
            continue
        p, slope = _odds_poly(rho, r, k, w_x, w_y), (2.0 * c2 - 3.0 * r * w_y * rho) * rho + c1
        if slope and abs(_odds_poly(rho - p / slope, r, k, w_x, w_y)) < abs(p):
            rho -= p / slope
        if lo <= rho <= hi:
            roots.append(rho)
    return sorted(roots)


def mixed_equilibria(game: GameParams) -> list:
    """Equilibria in which at least one agent strictly mixes.

    With A = nu_m (1-nu_w), B = nu_w (1-nu_m), rho = A/B and r = exp(-1/lam),
    the closed-form signal has X = K/A, Y = K/B, K = (A-rB)(B-rA)/((1-r^2)(A+B)),
    so each indifference gap w_x X + w_y Y - c depends on sigma through rho only:

    * both agents mixing requires X = Y = c, which pins lam = lambda_star;
      the whole symmetric family sigma_m = sigma_w then works, and the
      midpoint sigma = 1/2 is reported as its representative;
    * both mixing with nu_m + nu_w = 1 (possible only when mu_lo < 1/2): with
      s = nu_m/nu_w and k = c(1-r^2) the gap's numerator (s^2-r)(1-r s^2) -
      k s(1+s^2) is a palindromic quartic, so u = s + 1/s solves
      r u^2 + k u - (1+r)^2 = 0; its positive root (1/k when r underflows to
      0) gives the roots s and 1/s in closed form when u > 2, with
      u - 2 = e (e - 2c(1+r))/(r (u+2) + k), e = 1 - r, free of cancellation
      (e - 2c(1+r) is (1 - 2c) - r(1 + 2c) once 2c >= 1/2, so r <= 1/3 near
      lambda_star, where 1 - 2c is exact);
    * m mixing against a shirking w (w_x = 1-mu_lo, w_y = mu_lo; rho rises
      with sigma), kept when w indeed prefers to shirk, and the mirror with
      w mixing against a working m (w_x = mu_hi, w_y = 1-mu_hi; rho falls).
      The gap has the sign of the cubic P of :func:`_odds_roots` (roots by
      :func:`baseline_game._cubic_roots`), < 0 at 0, r and 1/r: at most two
      lie in (r, 1/r). m <-> w relabelings are symmetric duplicates. The
      pure agent's check is an interval in nu, and no signal is formed for
      it: both branches have odds rho >= 1, so X <= Y. At a root of m's
      indifference gain_m = c and gain_w - gain_m = (nu_m + mu_lo - 1)(X - Y),
      so w shirks exactly when nu_m >= 1 - mu_lo; at a root of w's,
      gain_m - gain_w = (1 - nu_w - mu_hi)(X - Y), so m works exactly when
      nu_w >= 1 - mu_hi. A record's signal is the logit rule at the intercept
      that decided it interior.

    Away from lam = lambda_star every returned signal is discriminatory. Every gain is at
    most tanh(1/(4 lam)), so above lam = 1/(4 atanh c) > lambda_star (the slope bound,
    baseline_game._gains_can_reach) no agent works or is indifferent, and no root is searched.
    """
    lam, found, variants = game.lam, [], _variants_game(game)
    for sigma_m, sigma_w, s in _mixed(variants, lam, _gains_can_reach(variants.base.c, lam)):
        signal = _logit_rule(s, 1.0 / lam, 1.0 / lam)
        label = IMPARTIAL if signal.impartial else DISCRIMINATORY
        found.append(MixedEquilibrium(MixedProfile(sigma_m, sigma_w), signal, label))
    return found


#: the lambda-independent part of commitment_solve, bind_high_effort and mixed_equilibria: the
#: _game, lambda_star, ln gamma*, the bound rule's signal, V and I at (hi, hi) or None when
#: c >= 1/2, the balanced branch's nu_m window or None, and the odds of m's and of w's branch
#: at the sigma edges
_Variants = namedtuple("_Variants", "base lam_star log_gamma_star bound window rho_m rho_w")


def _variants_game(game: GameParams) -> _Variants:
    """The _Variants of game, whose lam it ignores."""
    mu_lo, mu_hi, delta_mu = game.mu_lo, game.mu_hi, game.delta_mu
    lo, hi = max(mu_lo, 1.0 - mu_hi) + 1e-9, min(mu_hi, 1.0 - mu_lo) - 1e-9
    # the sigma range in rho: m's odds rise with sigma, w's fall (roots reversed)
    nu_edges = (mu_lo + _SIGMA_EDGE * delta_mu, mu_lo + (1.0 - _SIGMA_EDGE) * delta_mu)
    rho_m = [_odds(nu * (1.0 - mu_lo), mu_lo * (1.0 - nu)) for nu in nu_edges]
    rho_w = [_odds(mu_hi * (1.0 - nu), nu * (1.0 - mu_hi)) for nu in reversed(nu_edges)]
    base = _game(game)
    c = base.c
    bound = None
    if c < 0.5:  # the bound rule reads no lam; its profit at lam is V - lam I
        signal = PromotionSignal(0.5 - c, 0.5, 0.5 + c, 0.5, c, c)
        bound = (signal, *_bill(base.priors[0], signal))
    log_gamma_star = _log_gamma_star(c)
    return _Variants(base, 1.0 / log_gamma_star, log_gamma_star, bound,
                     (lo, hi) if mu_lo < 0.5 and lo < hi else None, rho_m, rho_w)


def _mixed(variants: _Variants, lam: float, reach: bool) -> list:
    """(sigma_m, sigma_w, s) of each mixed_equilibria record at lam of the game whose lambda-independent part is
    variants, s its signal's intercept: each candidate is decided on nu (the interval rule), then s is formed
    and a corner drops it. No signal is formed, and no root is searched unless reach (_gains_can_reach(c, lam))."""
    base, window = variants.base, variants.window
    c, mu_lo, mu_hi, delta_mu = base.c, base.mu_lo, base.mu_hi, base.mu_hi - base.mu_lo
    found = [(0.5, 0.5, 0.0)] if abs(lam - variants.lam_star) <= 1e-9 else []
    if not reach:  # no gain meets c: no agent is indifferent, none works
        return found
    r = math.exp(-1.0 / lam)
    k = c * (1.0 - r * r)

    if window is not None:
        lo, hi = window
        u = 2.0 * (1.0 + r) ** 2 / (k + math.sqrt(k * k + 4.0 * r * (1.0 + r) ** 2))
        # within its few ulps of rounding, u = 2 is the double root s = 1 (at
        # lam = lambda_star): a tangency, not a pair of sign changes
        if u > 2.0 * (1.0 + 4.0 * sys.float_info.epsilon):
            e = -math.expm1(-1.0 / lam)
            gap = (1.0 - 2.0 * c) - r * (1.0 + 2.0 * c) if c >= 0.25 else e - 2.0 * c * (1.0 + r)
            u_minus_2 = e * gap / (r * (u + 2.0) + k)
            s = 0.5 * (u + math.sqrt(u_minus_2 * (u + 2.0)))
            for nu_m in (1.0 / (1.0 + s), s / (1.0 + s)):
                nu_w = 1.0 - nu_m
                sigma_m = (nu_m - mu_lo) / delta_mu
                sigma_w = (nu_w - mu_lo) / delta_mu
                if (lo <= nu_m <= hi and _SIGMA_EDGE < sigma_m < 1.0 - _SIGMA_EDGE
                        and _SIGMA_EDGE < sigma_w < 1.0 - _SIGMA_EDGE):
                    intercept = _intercept(nu_m * (1.0 - nu_w), nu_w * (1.0 - nu_m), lam)
                    if intercept is not None:
                        found.append((sigma_m, sigma_w, intercept))

    # w shirks where nu_m >= 1 - mu_lo, m works where nu_w >= 1 - mu_hi
    for rho in _odds_roots(r, k, 1.0 - mu_lo, mu_lo, *variants.rho_m):
        nu_m = rho * mu_lo / (1.0 - mu_lo + rho * mu_lo)
        if nu_m >= 1.0 - mu_lo:
            intercept = _intercept(nu_m * (1.0 - mu_lo), mu_lo * (1.0 - nu_m), lam)
            if intercept is not None:
                found.append(((nu_m - mu_lo) / delta_mu, 0.0, intercept))

    for rho in reversed(_odds_roots(r, k, mu_hi, 1.0 - mu_hi, *variants.rho_w)):
        nu_w = mu_hi / (mu_hi + rho * (1.0 - mu_hi))
        if nu_w >= 1.0 - mu_hi:
            intercept = _intercept(mu_hi * (1.0 - nu_w), nu_w * (1.0 - mu_hi), lam)
            if intercept is not None:
                found.append((1.0, (nu_w - mu_lo) / delta_mu, intercept))

    return found


# ---------------------------------------------------------------------------
# continuous effort on a grid
# ---------------------------------------------------------------------------

class EffortGridResult(namedtuple("EffortGridResult", "lam fixed_points")):
    """Pure fixed points of the effort best-response map at one lam."""

    __slots__ = ()

    @property
    def symmetric(self) -> tuple:
        return tuple(fp for fp in self.fixed_points if fp[0] == fp[1])

    @property
    def asymmetric(self) -> tuple:
        return tuple(fp for fp in self.fixed_points if fp[0] != fp[1])


def continuous_effort_equilibria(
    kappa: float, lam_values: Sequence[float], grid_size: int = 100
) -> list:
    """Fixed points of the best-response map with effort cost kappa*mu^2/2.

    Efforts live on a uniform grid over [0, 1] and double as success
    probabilities. For every effort pair the principal's signal follows the
    closed forms (degenerate outside 1/gamma < A/B < gamma); an agent's win
    probability is linear in own effort with slope equal to the incentive
    gain, so the best response is the grid point closest to gain/kappa, with
    exact ties broken toward lower effort. Results are reported in row-major
    (mu_m, mu_w) order.

    A degenerate signal gives no gain and best response 0, so (0, 0) is
    always a fixed point and no other has an agent at 0 or 1 (A or B is 0
    there). Inside, X = K/A and Y = K/B give gain_i = K/(nu_i (1 - nu_i))
    with one K for both agents, and the best response is i only if
    gain_i/kappa lies in [nu_(i-1), nu_(i+1)]. So only the pairs whose
    windows nu_i (1 - nu_i) [nu_(i-1), nu_(i+1)] meet are evaluated, with
    the float rule of an exhaustive scan. The windows are widened by
    1e-12 relative and n eps/kappa absolute. Off the diagonal, where they
    differ, each computed gain is K'/(nu (1 - nu)), K' common to both agents,
    to (4 ln(n - 1) + 16) u relative (u = eps/2): the intercept of
    :func:`signal_from_odds` is exact at odds within (2 |ln(A/B)| + 8) u of
    A/B, |ln(A/B)| <= 2 ln(n - 1) on the grid, and X, Y and the gains round
    by under 8 u (8.4 u at most seen, every pair of grids of 20 to 300
    points at 33 lams in [1e-4, 1e4]). n eps/kappa covers the floor, the
    grid and the division, about 10 u relative.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    _positive("kappa", kappa)
    n, inner, slack = grid_size, range(1, grid_size - 1), grid_size * sys.float_info.epsilon / kappa
    grid = [i * (1.0 / (n - 1)) for i in range(n - 1)] + [1.0]
    lo = {i: grid[i] * (1.0 - grid[i]) * grid[i - 1] * (1.0 - 1e-12) - slack for i in inner}
    hi = {i: grid[i] * (1.0 - grid[i]) * grid[i + 1] * (1.0 + 1e-12) + slack for i in inner}
    pairs = [(i, j, grid[i], grid[j], grid[i] * (1.0 - grid[j]), grid[j] * (1.0 - grid[i]))
             for i in inner for j in inner if lo[i] <= hi[j] and lo[j] <= hi[i]]
    cost = [0.5 * kappa * (g * g) for g in grid]

    def best_response(gain: float) -> int:
        t = gain / kappa
        k = 0 if t <= 0.0 else n - 1 if t >= 1.0 else int(t * (n - 1))
        return k + 1 if k < n - 1 and grid[k + 1] * gain - cost[k + 1] > grid[k] * gain - cost[k] else k

    results = []
    for lam in lam_values:
        _positive("lam", lam)
        points = [(0.0, 0.0)]
        for i, j, nu_m, nu_w, A, B in pairs:
            interior = signal_from_odds(A, B, lam)
            if interior is not None:
                gain_m, gain_w = _gains(nu_m, nu_w, interior)
                if best_response(gain_m) == i and best_response(gain_w) == j:
                    points.append((nu_m, nu_w))
        results.append(EffortGridResult(float(lam), tuple(points)))
    return results
