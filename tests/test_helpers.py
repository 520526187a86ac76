"""The seeded draw loop of the property tests, and the boxes its samplers draw from."""

import math
import random

import pytest

from riscreen import thresholds
from riscreen.baseline_game import lambda_star
from riscreen.ri_core import INTERIOR

import exact
import helpers


def test_draws_runs_the_cases_first_then_names_a_failing_draw():
    seen = []

    @helpers.draws(5, seed=7, cases=[dict(x="a"), dict(x="b")], x=lambda rng: rng.random())
    def body(x):
        seen.append(x)
        assert len(seen) < 5, "the third draw fails"

    with pytest.raises(AssertionError) as info:
        body()
    rng = random.Random(7)
    drawn = [rng.random() for _ in range(3)]
    assert seen == ["a", "b", *drawn]
    assert str(info.value) == f"body failed at seed 7, draw 2 of 5: {{'x': {drawn[2]!r}}}"
    assert str(info.value.__cause__).startswith("the third draw fails")


def test_draws_names_a_failing_case_and_chains_any_error():
    @helpers.draws(3, seed=7, cases=[dict(x=1.0), dict(x=-1.0)], x=lambda rng: rng.random())
    def body(x):
        math.sqrt(x)

    with pytest.raises(AssertionError, match=r"^body failed at explicit case 1: \{'x': -1\.0\}$") as info:
        body()
    assert type(info.value.__cause__) is ValueError


def test_draws_keeps_the_name_and_asks_for_no_fixtures():
    class Suite:
        @helpers.draws(2, seed=7, x=lambda rng: rng.randint(0, 9))
        def test_digit(self, x):
            """A drawn digit."""
            assert self is suite and 0 <= x <= 9

    suite = Suite()
    suite.test_digit()
    assert (Suite.test_digit.__name__, Suite.test_digit.__doc__) == ("test_digit", "A drawn digit.")
    assert Suite.test_digit.__code__.co_argcount == 0


def _within(x, lo, hi) -> bool:
    """lo <= x <= hi, up to the rounding of 10**e and of products at the ends."""
    return lo - 1e-12 * abs(lo) <= x <= hi + 1e-12 * abs(hi)


def _in_domain(game) -> bool:
    """cost_C and lam in the documented decades: [1e-6, 1] and [1e-4, 1e4]."""
    return _within(game.cost_C, 1e-6, 1.0) and _within(game.lam, 1e-4, 1e4)


def _sample(sampler, seed, n=300):
    rng = random.Random(seed)
    return [sampler(rng) for _ in range(n)]


def test_edge_mu_stays_in_its_box_and_reaches_both_edges():
    mus = _sample(helpers.edge_mu, 1)
    assert all(1e-6 <= mu <= 1.0 - 1e-6 for mu in mus)
    assert min(mus) < 1e-3 and max(mus) > 1.0 - 1e-3


def test_domain_game_stays_in_its_box():
    games = _sample(helpers.domain_game, 2)
    for game in games:
        assert 0.5e-6 <= game.mu_lo < game.mu_hi <= 1.0 - 1e-6 and _in_domain(game), game
    assert min(g.mu_lo for g in games) < 1e-3 and max(g.mu_hi for g in games) > 1.0 - 1e-3
    assert min(g.lam for g in games) < 1e-3 and max(g.lam for g in games) > 1e3


def test_near_half_game_stays_in_its_box():
    for game in _sample(helpers.near_half_game, 3):
        assert abs(game.mu_lo - 0.5) <= 1e-6 and 0.5 + 2e-6 <= game.mu_hi <= 1.0 - 1e-6, game
        assert _in_domain(game), game


def test_quota_game_stays_in_its_box():
    for game in _sample(helpers.quota_game, 4):
        assert 0.501 <= game.mu_hi <= 0.999 and 1.0 - game.mu_hi < game.mu_lo < game.mu_hi, game
        assert game.mu_hi + game.mu_lo > 1.0 and _in_domain(game), game


def test_near_star_game_stays_in_its_box():
    for game in _sample(helpers.near_star_game, 5):
        assert 0.03 <= game.mu_lo <= 0.95 and not 0.499 < game.mu_lo < 0.501, game
        assert game.mu_lo + 0.02 <= game.mu_hi <= 0.99 and _within(game.c, 0.01, 0.49), game
        assert _within(game.lam / lambda_star(game), math.exp(-3.0), math.exp(3.0)), game


def test_edge_game_stays_in_its_box():
    for game in _sample(helpers.edge_game, 6):
        assert 0.5e-6 <= game.mu_lo < game.mu_hi <= 1.0 - 1e-6 and _within(game.cost_C, 1e-6, 1.0), game
        star = lambda_star(game)
        assert (
            _within(game.lam, 1e-4, 2e-3)
            or _within(game.lam, 10.0, 1e4)
            or 0.0 < star < math.inf and _within(game.lam / star, math.exp(-1.0), math.e)
            # where lambda_star * e**[-1, 1] leaves (0, inf), the domain_game's lam is kept
            or not 1e-300 < star < 1e300 and _within(game.lam, 1e-4, 1e4)
        ), game


def test_multitask_game_stays_in_its_box():
    for game, tasks in _sample(helpers.multitask_game, 7, n=200):
        assert 0.55 <= game.mu_hi <= 0.97, game
        assert max(1.0 - game.mu_hi, 0.05) + 0.005 <= game.mu_lo <= game.mu_hi - 0.01, game
        assert all(0.2 <= t.alpha <= 0.5 and 0.5 <= t.beta <= 2.0 for t in tasks), tasks
        assert tasks[0].beta == tasks[1].beta, tasks
        bound = game.mu_hi * (1.0 - game.mu_hi) / (game.A + game.B)
        costs = [t.effective_cost(game.delta_mu) for t in tasks]
        assert costs[0] <= costs[1] and all(_within(c, 0.3 * bound, 0.99 * bound) for c in costs), (game, tasks)
        assert 0.0 < game.lam < math.inf, game


def test_ordered_problem_stays_in_its_box():
    for problem in _sample(helpers.ordered_problem, 8):
        n = len(problem.states)
        assert 3 <= n <= 5 and list(problem.advantage) == sorted(problem.advantage), problem
        assert all(0.05 / n <= p <= 1.0 for p in problem.prior) and abs(sum(problem.prior) - 1.0) <= 1e-12, problem
        assert all(-2.0 <= v <= 2.0 for v in problem.advantage) and 0.05 <= problem.lam <= 5.0, problem


def test_wide_problem_stays_in_its_box():
    problems = _sample(helpers.wide_problem, 9)
    for problem in problems:
        assert 2 <= len(problem.states) <= 6 and abs(sum(problem.prior) - 1.0) <= 1e-12, problem
        assert all(_within(abs(v), 1e-2, 1e2) for v in problem.advantage) and _within(problem.lam, 1e-4, 1e4), problem
    assert min(min(p.prior) for p in problems) < 1e-20


def _regularity_bound(game) -> float:
    return game.mu_hi * (1.0 - game.mu_hi) / (game.A + game.B)


def test_sample_assumption1_stays_in_its_box():
    for game in _sample(helpers.sample_assumption1, 10):
        assert 0.52 <= game.mu_hi <= 0.97 and max(1.0 - game.mu_hi + 0.01, 0.05) <= game.mu_lo, game
        assert game.mu_lo <= game.mu_hi - 0.01 and game.lam == 1.0 and game.assumption1, game
        assert _within(game.c / _regularity_bound(game), 0.05, 0.95), game


def test_sample_condition5_stays_in_its_box():
    for game in _sample(helpers.sample_condition5, 11, n=100):
        assert 0.55 <= game.mu_hi <= 0.95 and 0.505 <= game.mu_lo <= game.mu_hi - 0.02, game
        cuts = thresholds(game)
        assert game.lam == 1.0 and game.assumption1 and cuts.condition5, game
        floor, bound = exact.g(cuts.gamma_hat), _regularity_bound(game)
        assert _within(game.c, floor + 0.02 * (bound - floor), bound - 0.02 * (bound - floor)), game


def test_random_problem_stays_in_its_box():
    problems = _sample(helpers.random_problem, 12)
    for problem in problems:
        assert 2 <= len(problem.states) <= 5 and abs(sum(problem.prior) - 1.0) <= 1e-12, problem
        assert all(-2.0 <= v <= 2.0 for v in problem.advantage) and 0.05 <= problem.lam <= 5.0, problem
    assert {len(p.states) for p in problems} == {2, 3, 4, 5}


def test_random_interior_problem_stays_in_its_box():
    for problem in _sample(helpers.random_interior_problem, 13):
        assert 3 <= len(problem.states) <= 5 and abs(sum(problem.prior) - 1.0) <= 1e-12, problem
        assert all(-2.0 <= v <= 2.0 for v in problem.advantage) and 0.05 <= problem.lam <= 5.0, problem
        assert helpers.classification(problem) == INTERIOR, problem
