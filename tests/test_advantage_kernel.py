"""The untilted (hi, hi) advantage (-1, 0, 1) against its closed form.

With no incentive constraint priced, the (hi, hi) rule is the impartial
logit: q(-1) = r/(1 + r), q(0) = 1/2, q(1) = 1/(1 + r) with r = e^(-1/lam),
promoting half the time. The closed-form optimal_signal and the generic
solver must both return it.
"""

import math

import pytest

from riscreen import HI, GameParams, optimal_signal, state_distribution
from riscreen.ri_core import BinaryRIProblem, solve_binary_ri


def test_zero_tilt_is_the_impartial_signal():
    game = GameParams(0.8, 0.6, 0.07, 0.7)
    r = math.exp(-1.0 / 0.7)
    want = (r / (1.0 + r), 0.5, 1.0 / (1.0 + r))
    sig = optimal_signal(game, (HI, HI))
    assert sig.as_tuple() == pytest.approx(want, abs=1e-15)
    assert sig.pi_bar == pytest.approx(0.5, abs=1e-15)
    prior = tuple(state_distribution(game, (HI, HI)))
    rule = solve_binary_ri(BinaryRIProblem((-1, 0, 1), prior, (-1.0, 0.0, 1.0), 0.7))
    assert rule.conditional == pytest.approx(want, abs=1e-12)
    assert rule.unconditional == pytest.approx(0.5, abs=1e-12)
