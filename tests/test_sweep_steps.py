"""A regimes sweep builds its game once and steps it in lam alone.

Per grid point ``cli.cmd_regimes`` checks the lambda and runs one step of
the prepared game: it builds no ``GameParams`` and goes through no
label-checked ``optimal_signal``. So neither count may grow with the number
of grid points. A row ranks its records only where there is a choice, so the
rows of one record and of several must both equal the public ranking.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

import pytest

from riscreen import GameParams, _sweep, cli
from riscreen import baseline_game as bg
from riscreen import multitask as mt
from riscreen import quota_policy as qp
from riscreen import variants as va

import helpers


def counts(monkeypatch, analysis, steps):
    """(GameParams constructions, optimal_signal calls) of one in-process sweep."""
    seen = {"GameParams": 0, "optimal_signal": 0}
    new, signal = GameParams.__new__, bg.optimal_signal

    def counted_new(cls, *args):
        seen["GameParams"] += 1
        return new(cls, *args)

    def counted_signal(*args):
        seen["optimal_signal"] += 1
        return signal(*args)

    with monkeypatch.context() as mp:
        mp.setattr(GameParams, "__new__", staticmethod(counted_new))
        for module in (bg, qp, mt, va, cli):
            if getattr(module, "optimal_signal", None) is signal:
                mp.setattr(module, "optimal_signal", counted_signal)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["regimes", "--analysis", analysis, "--mu-hi", ".8", "--mu-lo", ".6",
                             "--lambda-steps", str(steps), "--format", "json"])
    assert code == 0
    return seen


@pytest.mark.parametrize("analysis", ["baseline", "quota", "multitask", "variants"])
def test_no_game_or_checked_signal_per_grid_point(monkeypatch, analysis):
    assert counts(monkeypatch, analysis, 8) == counts(monkeypatch, analysis, 64)


def test_a_row_of_no_records_is_refused():
    with pytest.raises(ValueError, match="^no equilibrium records to rank$"):
        _sweep._regime_row(0.3, [], [])


def tag(profile):
    return f"{profile[0]},{profile[1]}"


def ranked_cells(records):
    """The eq_*, most_profitable, best_profit and welfare_order cells from the public ranking."""
    present = {r.profile for r in records}
    ties = bg.most_profitable_among(records)
    return [*(int(p in present) for p in bg.PROFILES), "|".join(sorted(tag(r.profile) for r in ties)),
            max(r.profit for r in ties).hex(), ">".join(tag(r.profile) for r in bg.welfare_ordering(records))]


def row_cells(records, lam):
    row = _sweep._regime_row(lam, records, [])
    return [*row[1:6], row[6].hex(), row[7]]


def test_a_regime_row_equals_the_public_ranking():
    """Over the domain the rows of one record skip the ranking and those of several rank; both match it, and so
    do the rows of the prepared steps that the CLI runs, which value a lone verdict without building its record."""
    rng, ranked, lone = random.Random(49), {"baseline": 0, "quota": 0}, {"baseline": 0, "quota": 0}
    for _ in range(3000):
        params = helpers.domain_game(rng)
        for analysis, public in (("baseline", bg.equilibrium_set), ("quota", qp.quota_equilibrium_set)):
            records = public(params)
            ranked[analysis] += len(records) > 1
            lone[analysis] += len(records) == 1
            want = ranked_cells(records)
            assert row_cells(records, params.lam) == want, (analysis, params)
            row = _sweep._ANALYSES[analysis][1](params, None)(params.lam)
            assert [*row[1:6], row[6].hex(), row[7]] == want, (analysis, params)
    assert ranked["baseline"] > 100 and ranked["quota"] > 0  # both branches run, in both analyses
    assert lone["baseline"] > 100 and lone["quota"] > 100


@pytest.mark.parametrize("params, public", [(GameParams(0.7, 0.59, 0.0473, 0.39), bg.equilibrium_set),
                                            (GameParams(0.6, 0.3, 0.117, 0.5), qp.quota_equilibrium_set)])
def test_a_row_of_three_records_ranks_them(params, public):
    """The discriminatory pair on top of a three-record row, baseline and quota (abstract, claim 1)."""
    records = public(params)
    assert [r.profile for r in records] == [(bg.HI, bg.LO), (bg.LO, bg.HI), (bg.LO, bg.LO)]
    cells = row_cells(records, params.lam)
    assert cells == ranked_cells(records)
    assert (cells[4], cells[6]) == ("hi,lo|lo,hi", "lo,lo>hi,lo>lo,hi")


def test_a_multitask_row_equals_the_public_ranking():
    """A row of one equilibrium skips the ranking and a row of several ranks; both match multitask_most_profitable."""
    rng, sizes = random.Random(4901), set()
    for _ in range(1000):
        params = helpers.domain_game(rng)
        tasks = (mt.TaskParams(0.5, 1.0, 10.0 ** rng.uniform(-3.0, 0.0) * params.cost_C),
                 mt.TaskParams(0.5, 1.0, params.cost_C))
        records, winners = mt.multitask_equilibrium_set(params, tasks), mt.multitask_most_profitable(params, tasks)
        sizes.add(len(records))
        row = _sweep._multitask_row(mt._multitask_game(params, tasks), params.lam)
        assert [row[1], row[2], row[3].hex()] == [len(records), "|".join(sorted({w.classification for w in winners})),
                                                  (winners[0].payoff if winners else math.nan).hex()], params
    assert {1, 3, 9} <= sizes


def test_a_multitask_sweep_checks_the_arrivals_before_any_row(capsys, monkeypatch):
    # each row starts at the decision step, so a row decided before the arrivals check would fail here
    helpers.calls_to(monkeypatch, mt, "_decide", raises=True)
    code = cli.main(["regimes", "--analysis", "multitask", "--mu-hi", ".8", "--mu-lo", ".6",
                     "--task1", "0.3,1,0.01", "--task2", "0.5,1,0.02"])
    assert (code, capsys.readouterr().out) == (2, "")
