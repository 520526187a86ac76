"""The closed-form 3-state kernel against the generic solver, its oracle.

signal_from_advantage solves any 3-state binary RI problem as a quadratic
in the odds t = q_bar/(1 - q_bar). commitment_solve feeds it the advantage
tilted by a priced incentive constraint, with nu up to the 2**50 that
bind_high_effort can reach, so the draws below cover that tilt over the
whole documented domain as well as generic 3-state problems.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from riscreen import AGENT_M, AGENT_W, HI, GameParams, ri_core, state_distribution
from riscreen.baseline_game import signal_from_advantage
from riscreen.ri_core import BinaryRIProblem, ConvergenceError, solve_binary_ri
from riscreen.variants import _constrained_high_signal

import helpers


def oracle(prior, advantage, lam):
    rule = solve_binary_ri(BinaryRIProblem((-1, 0, 1), prior, advantage, lam))
    return rule.conditional, rule.unconditional, rule.degenerate


def assert_matches_oracle(prior, advantage, lam):
    cond, q_bar = signal_from_advantage(prior, advantage, lam)
    want, want_bar, corner = oracle(prior, advantage, lam)
    if corner:
        assert (cond, q_bar) == (want, want_bar)
    assert max(abs(a - b) for a, b in zip(cond + (q_bar,), want + (want_bar,))) <= 1e-10


@st.composite
def tilted_games(draw):
    """(game, nu, agent) over the documented domain, nu 0 or in [2**-10, 2**50]."""
    exponent = draw(st.floats(-11.0, 50.0))
    nu = 0.0 if exponent < -10.0 else 2.0**exponent
    return draw(helpers.domain_games()), nu, draw(st.sampled_from((AGENT_M, AGENT_W)))


@given(case=tilted_games())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_constrained_signal_matches_oracle(case):
    game, nu, agent = case
    prior = state_distribution(game, (HI, HI)).as_tuple()
    p_m, p_0, p_p = prior
    mu = game.mu_hi
    # the priced incentive constraint of `agent` tilts the advantage so
    if agent == AGENT_M:
        adv = (-1.0 - nu * mu / p_m, nu * (2.0 * mu - 1.0) / p_0, 1.0 + nu * (1.0 - mu) / p_p)
    else:
        adv = (-1.0 - nu * (1.0 - mu) / p_m, nu * (1.0 - 2.0 * mu) / p_0, 1.0 + nu * mu / p_p)
    assert_matches_oracle(prior, adv, game.lam)
    sig = _constrained_high_signal(game, nu, agent)
    assert (sig.as_tuple(), sig.pi_bar) == signal_from_advantage(prior, adv, game.lam)


@st.composite
def three_state_problems(draw):
    """Prior entries down to 1e-25 or 0, |v| in [1e-2, 1e2] or 0, lam in [1e-4, 1e4]."""
    weights = [draw(st.one_of(st.just(0.0), st.floats(-25.0, 0.0).map(lambda e: 10.0**e)))
               for _ in range(3)]
    if sum(weights) == 0.0:
        weights[0] = 1.0
    adv = tuple(
        draw(st.sampled_from((-1.0, 0.0, 1.0))) * 10.0 ** draw(st.floats(-2.0, 2.0))
        for _ in range(3)
    )
    total = sum(weights)
    return tuple(w / total for w in weights), adv, 10.0 ** draw(st.floats(-4.0, 4.0))


@given(problem=three_state_problems())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_generic_three_state_problems_match_oracle(problem):
    prior, adv, lam = problem
    if abs(sum(prior) - 1.0) > ri_core.PRIOR_TOL:
        return
    assert_matches_oracle(prior, adv, lam)


@pytest.mark.parametrize("adv, q", [((-1.0, 0.5, 2.0), 1.0), ((-2.0, -0.5, 1.0), 0.0), ((0.0, 0.0, 0.0), 1.0)])
def test_corners_return_the_constant_rule(adv, q):
    # lam = 50 leaves every state too weakly tilted to pay for attention
    prior = (0.2, 0.5, 0.3)
    assert signal_from_advantage(prior, adv, 50.0) == ((q, q, q), q)
    assert oracle(prior, adv, 50.0)[:2] == ((q, q, q), q)


def test_decided_states_underflow_harmlessly():
    # e^-|z| underflows to 0 in all three states; q_bar is the mass of z > 0
    cond, q_bar = signal_from_advantage((0.25, 0.5, 0.25), (-1e3, 2e3, 1e3), 1e-1)
    assert cond == (0.0, 1.0, 1.0)
    assert q_bar == pytest.approx(0.75, rel=1e-15)


def test_residual_gate_raises(monkeypatch):
    monkeypatch.setattr(ri_core, "RESIDUAL_TOL", -1.0)
    with pytest.raises(ConvergenceError, match="consistency residual"):
        signal_from_advantage((0.2, 0.5, 0.3), (-1.0, 0.0, 1.0), 0.5)


def test_zero_tilt_is_the_impartial_signal():
    game = GameParams(0.8, 0.6, 0.07, 0.7)
    cond, q_bar = signal_from_advantage(state_distribution(game, (HI, HI)).as_tuple(), (-1.0, 0.0, 1.0), 0.7)
    r = math.exp(-1.0 / 0.7)
    assert cond == pytest.approx((r / (1.0 + r), 0.5, 1.0 / (1.0 + r)), abs=1e-15)
    assert q_bar == pytest.approx(0.5, abs=1e-15)
