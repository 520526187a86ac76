"""Tests for the two-task extension."""

import math

import pytest

from riscreen import (
    HI,
    LO,
    NON_SPECIALIZED,
    SPECIALIZED,
    GameParams,
    TaskParams,
    equilibrium_set,
    multitask_equilibrium_set,
    multitask_most_profitable,
    profit,
    quota_equilibrium_set,
    thresholds,
)
from riscreen.multitask import task_games

import helpers

GAME = helpers.canonical()


def equal_tasks(c_eff, game=GAME, alpha=0.5, beta=1.0):
    cost = c_eff * alpha * beta * game.delta_mu
    return (TaskParams(alpha, beta, cost), TaskParams(alpha, beta, cost))


def tasks_for(c1, c2, game=GAME, alpha=0.5, beta=1.0):
    return (
        TaskParams(alpha, beta, c1 * alpha * beta * game.delta_mu),
        TaskParams(alpha, beta, c2 * alpha * beta * game.delta_mu),
    )


class TestTaskParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaskParams(0.0, 1.0, 0.05)
        with pytest.raises(ValueError):
            TaskParams(0.6, 1.0, 0.05)
        with pytest.raises(ValueError):
            TaskParams(0.5, -1.0, 0.05)

    def test_effective_cost(self):
        t = TaskParams(0.5, 2.0, 0.04)
        assert t.effective_cost(0.2) == pytest.approx(0.04 / (0.5 * 2.0 * 0.2))

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            multitask_equilibrium_set(GAME, tasks_for(0.4, 0.3))

    def test_boundary_arrivals_accepted(self):
        # alpha <= 1/2 per task already caps the joint arrival mass at one
        both_half = (TaskParams(0.5, 1.0, 0.012), TaskParams(0.5, 1.0, 0.012))
        assert multitask_equilibrium_set(GAME._replace(lam=0.2), both_half)

    def test_task_games_carry_effective_costs(self):
        tasks = tasks_for(0.3, 0.4)
        g1, g2 = task_games(GAME, tasks)
        assert g1.c == pytest.approx(0.3)
        assert g2.c == pytest.approx(0.4)


class TestEquilibriumSet:
    def test_cheap_equal_tasks_low_lambda(self):
        game = GAME._replace(lam=0.2)
        records = multitask_equilibrium_set(game, equal_tasks(0.3))
        assert len(records) == 1
        rec = records[0]
        assert rec.investment_m == rec.investment_w == (HI, HI)
        assert rec.classification == NON_SPECIALIZED

    def test_specialization_ratio_bound(self):
        # for (.8,.6) the bound is mu_hi(1-mu_hi)/(mu_lo(1-mu_lo)) = 2/3
        assert GAME.mu_hi * (1 - GAME.mu_hi) / (GAME.mu_lo * (1 - GAME.mu_lo)) == pytest.approx(
            2.0 / 3.0
        )

    def test_specialization_flips_at_ratio_bound(self):
        bound = GAME.mu_hi * (1 - GAME.mu_hi) / (GAME.mu_lo * (1 - GAME.mu_lo))
        c2 = 0.35
        for sign, expect in ((+1, True), (-1, False)):
            c1 = c2 * bound * (1 + sign * 1e-5)
            tasks = tasks_for(c1, c2)
            g1, g2 = task_games(GAME, tasks)
            lo = thresholds(g1).lambda_low
            hi = thresholds(g2).lambda_high
            assert (lo <= hi) == expect
            if expect:
                game = GAME._replace(lam=0.5 * (lo + hi))
                recs = multitask_equilibrium_set(game, tasks)
                assert any(r.classification == SPECIALIZED for r in recs)
            else:
                # window empty: no lam can support specialization
                for lam in helpers.linspace(0.05, 2.0, 15):
                    recs = multitask_equilibrium_set(GAME._replace(lam=lam), tasks)
                    assert not any(r.classification == SPECIALIZED for r in recs)

    def test_all_lo_when_lambda_large(self):
        game = GAME._replace(lam=2.5)
        records = multitask_equilibrium_set(game, equal_tasks(0.3))
        assert [r.classification for r in records] == [NON_SPECIALIZED]
        assert records[0].investment_m == (LO, LO)

    def test_non_specialized_regimes_follow_per_task_cutpoints(self):
        tasks = tasks_for(0.3, 0.38)
        g1, g2 = task_games(GAME, tasks)
        star1, star2 = thresholds(g1).lambda_star, thresholds(g2).lambda_star
        assert star2 < star1
        for lam, expected in (
            (star2 * 0.9, (HI, HI)),
            (0.5 * (star2 + star1), (HI, LO)),
            (star1 * 1.1, (LO, LO)),
        ):
            recs = multitask_equilibrium_set(GAME._replace(lam=float(lam)), tasks)
            non_spec = [r for r in recs if r.classification == NON_SPECIALIZED]
            assert [r.investment_m for r in non_spec] == [expected]

    def test_specialized_mirror_pair(self):
        tasks = equal_tasks(0.35)
        g1, _ = task_games(GAME, tasks)
        cuts = thresholds(g1)
        game = GAME._replace(lam=0.5 * (cuts.lambda_low + cuts.lambda_high))
        specialized = [
            r for r in multitask_equilibrium_set(game, tasks) if r.classification == SPECIALIZED
        ]
        assert {(r.investment_m, r.investment_w) for r in specialized} == {
            ((HI, LO), (LO, HI)),
            ((LO, HI), (HI, LO)),
        }


def _gaps(game, gamma):
    g = game._replace(lam=1.0 / math.log(gamma))
    hi_hi, hi_lo, lo_lo = profit(g, (HI, HI)), profit(g, (HI, LO)), profit(g, (LO, LO))
    return hi_hi.V - hi_lo.V, hi_lo.V - lo_lo.V, hi_hi.I - hi_lo.I, hi_lo.I - lo_lo.I


class TestTaskSplitAlgebra:
    def test_revenue_gap_identity(self):
        # dV1 - dV2 = -(gamma-1) dmu^2 / (gamma+1), exactly
        for gamma in helpers.geomspace(GAME.A / GAME.B + 0.05, 1e5, 40):
            dv1, dv2, _, _ = _gaps(GAME, gamma)
            target = -(gamma - 1.0) * GAME.delta_mu**2 / (gamma + 1.0)
            assert dv1 - dv2 == pytest.approx(target, abs=1e-10)

    def test_information_gap_ordering(self):
        for gamma in helpers.geomspace(GAME.A / GAME.B, 1e6, 50):
            _, _, di1, di2 = _gaps(GAME, gamma)
            assert di1 > di2

    def test_information_gap_limit(self):
        A, B = GAME.A, GAME.B
        s_hi = GAME.mu_hi * (1 - GAME.mu_hi)
        s_lo = GAME.mu_lo * (1 - GAME.mu_lo)
        limit = 2 * (s_hi + s_lo) * math.log(2.0) - 2 * (
            A * math.log((A + B) / A) + B * math.log((A + B) / B)
        )
        _, _, di1, di2 = _gaps(GAME, 1e8)
        assert di1 - di2 == pytest.approx(limit, abs=1e-5)
        assert limit > 0


class TestMostProfitable:
    MU = (0.7927, 0.7075)

    def _game(self, lam=1.0):
        return GameParams(self.MU[0], self.MU[1], 0.05, lam)

    def test_requires_equal_arrivals(self):
        tasks = (TaskParams(0.4, 1.0, 0.02), TaskParams(0.5, 1.0, 0.03))
        with pytest.raises(ValueError):
            multitask_most_profitable(GAME, tasks)

    def test_regime_i_non_specialized_wins(self):
        game = self._game()
        tasks = equal_tasks(0.30, game=game)
        g1, _ = task_games(game, tasks)
        cuts = thresholds(g1)
        lam = 0.5 * (cuts.lambda_low + min(cuts.lambda_star, cuts.lambda_high))
        winners = multitask_most_profitable(game._replace(lam=lam), tasks)
        assert {w.classification for w in winners} == {NON_SPECIALIZED}
        assert winners[0].investment_m == (HI, HI)
        # a specialized rival exists and earns less
        rivals = [
            r
            for r in multitask_equilibrium_set(game._replace(lam=lam), tasks)
            if r.classification == SPECIALIZED
        ]
        assert rivals and all(r.payoff < winners[0].payoff for r in rivals)

    def test_regime_ii_specialized_wins(self):
        game = self._game()
        tasks = equal_tasks(0.40, game=game)
        g1, _ = task_games(game, tasks)
        cuts = thresholds(g1)
        assert cuts.condition5  # the window above lambda_star is nonempty
        lam = 0.5 * (cuts.lambda_star + cuts.lambda_high)
        winners = multitask_most_profitable(game._replace(lam=lam), tasks)
        assert {w.classification for w in winners} == {SPECIALIZED}

    def test_regime_iii_specialized_wins(self):
        game = self._game()
        c1, c2 = 0.36, 0.40
        tasks = tasks_for(c1, c2, game=game)
        g1, g2 = task_games(game, tasks)
        k1, k2 = thresholds(g1), thresholds(g2)
        lo = max(k1.lambda_low, k2.lambda_star)
        hi = min(k2.lambda_high, k1.lambda_star)
        assert lo < hi  # the regime-(iii) overlap is nonempty by construction
        lam = 0.5 * (lo + hi)
        winners = multitask_most_profitable(game._replace(lam=lam), tasks)
        assert {w.classification for w in winners} == {SPECIALIZED}
        # the rival non-specialized equilibrium invests in skill 1 only
        recs = multitask_equilibrium_set(game._replace(lam=lam), tasks)
        non_spec = [r for r in recs if r.classification == NON_SPECIALIZED]
        assert [r.investment_m for r in non_spec] == [(HI, LO)]
        assert non_spec[0].payoff < winners[0].payoff


# ---------------------------------------------------------------------------
# one solve per (task, effort pair)
# ---------------------------------------------------------------------------

_EFFORTS = (HI, LO)


def reference_equilibrium_set(game, tasks):
    """The enumeration as first written: two signals solved per joint profile."""
    from riscreen.baseline_game import optimal_signal, supports_profile
    from riscreen.multitask import MultitaskRecord, _classify

    games = task_games(game, tasks)
    found = []
    for m1 in _EFFORTS:
        for m2 in _EFFORTS:
            for w1 in _EFFORTS:
                for w2 in _EFFORTS:
                    inv_m, inv_w = (m1, m2), (w1, w2)
                    profiles = ((m1, w1), (m2, w2))
                    signals = tuple(optimal_signal(games[t], profiles[t]) for t in range(2))
                    if not all(
                        supports_profile(games[t], signals[t], profiles[t]) for t in range(2)
                    ):
                        continue
                    payoff = sum(
                        tasks[t].alpha * profit(game, profiles[t]).profit for t in range(2)
                    )
                    found.append(
                        MultitaskRecord(inv_m, inv_w, _classify(inv_m, inv_w), payoff, signals)
                    )
    return found


@helpers.draws(200, seed=31006, case=helpers.multitask_game)
def test_equilibrium_set_matches_reference(case):
    game, tasks = case
    expected = reference_equilibrium_set(game, tasks)
    records = multitask_equilibrium_set(game, tasks)
    assert records == expected
    assert repr(records) == repr(expected)
    if abs(tasks[0].alpha - tasks[1].alpha) <= 1e-12:
        ranked = [r for r in expected if r.classification in (SPECIALIZED, NON_SPECIALIZED)]
        best = max((r.payoff for r in ranked), default=None)
        assert multitask_most_profitable(game, tasks) == [
            r for r in ranked if r.payoff >= best - 1e-12
        ]


def test_each_task_pair_is_solved_once(monkeypatch):
    # signals, gains and profits do not depend on cost: two kernels, the impartial and the
    # (hi, lo) signal, serve all four effort pairs of both tasks; one table of the gains at
    # (hi, hi), (hi, lo) and (lo, lo) is tested at both task costs; the mirror pairs share
    # one valuation, the profit-only bill
    from riscreen import baseline_game, multitask

    counts = {"_logit_rule": 0, "signal_from_odds": 0, "_gains": 0, "_bill": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("_logit_rule", "signal_from_odds", "_gains"):
        monkeypatch.setattr(baseline_game, name, counted(name, getattr(baseline_game, name)))
    monkeypatch.setattr(baseline_game, "_bill", counted("_bill", baseline_game._bill))
    tasks = equal_tasks(0.35)
    g1, _ = task_games(GAME, tasks)
    cuts = thresholds(g1)
    game = GAME._replace(lam=0.5 * (cuts.lambda_low + cuts.lambda_high))
    records = multitask_equilibrium_set(game, tasks)
    assert len(records) >= 2
    # (lo, lo) is in no joint equilibrium here, so only (hi, hi) and (hi, lo) are valued
    # one logit rule for the impartial signal and one inside signal_from_odds, three gain pairs
    assert counts == {"_logit_rule": 2, "signal_from_odds": 1, "_gains": 3, "_bill": 2}


@helpers.draws(60, seed=31007, case=helpers.multitask_game)
def test_only_the_pairs_in_use_are_valued(case):
    # one valuation (a bill, V and I) per distinct effort pair of some joint equilibrium, (lo, hi) as (hi, lo)
    from riscreen import baseline_game

    game, tasks = case
    valued, real = [], baseline_game._bill

    def counted(prior, signal):
        valued.append(prior[0])  # the profile
        return real(prior, signal)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baseline_game, "_bill", counted)
        records = multitask_equilibrium_set(game, tasks)
    used = {
        (HI, LO) if pair == (LO, HI) else pair
        for r in records
        for pair in zip(r.investment_m, r.investment_w)
    }
    assert sorted(valued) == sorted(used)
    expected = reference_equilibrium_set(game, tasks)
    assert records == expected
    assert [r.payoff.hex() for r in records] == [r.payoff.hex() for r in expected]


def test_regimes_sweep_refuses_unequal_arrivals(capsys, monkeypatch):
    # the arrivals are checked once, before any row is decided; every row starts at the decision step,
    # which the same sweep at equal arrivals reaches (the positive control)
    from riscreen import cli, multitask

    decided = helpers.calls_to(monkeypatch, multitask, "_decide")
    argv = ["regimes", "--analysis", "multitask", "--mu-hi", ".8", "--mu-lo", ".6", "--task2", "0.5,1,0.02"]
    code = cli.main([*argv, "--task1", "0.3,1,0.01"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: profitability ranking requires alpha1 = alpha2\n"
    assert decided == []
    assert cli.main([*argv, "--task1", "0.5,1,0.01"]) == 0
    assert capsys.readouterr().err == ""
    assert decided


def any_domain_case(rng):
    """A game of helpers.any_domain_game and two tasks, the cheaper first: arrivals in (0, 1/2], rewards
    log-uniform in [0.1, 10] and effective costs within a factor of 10 of the game's c either way."""
    game = helpers.any_domain_game(rng)
    c1, c2 = sorted(game.c * 10.0 ** rng.uniform(-1.0, 1.0) for _ in range(2))
    tasks = []
    for c in (c1, c2):
        alpha, beta = rng.uniform(1e-3, 0.5), 10.0 ** rng.uniform(-1.0, 1.0)
        tasks.append(TaskParams(alpha, beta, c * alpha * beta * game.delta_mu))
    return game, tuple(tasks)


@helpers.draws(3000, seed=54001, case=any_domain_case)
def test_every_pure_enumeration_lists_an_equilibrium(case):
    # at the impartial rule X == Y, so each gain at (hi, hi) and (lo, lo) is within a few ulps of X: for every c
    # one of the two passes its _band, and so at each task cost (the heterogeneous analysis can be empty when
    # c_m < g < c_w, and is not asked)
    game, tasks = case
    assert equilibrium_set(game)
    assert quota_equilibrium_set(game)
    assert multitask_equilibrium_set(game, tasks)
