"""A regimes sweep builds its game once and steps it in lam alone.

Per grid point ``cli.cmd_regimes`` checks the lambda and runs one step of
the prepared game: it builds no ``GameParams`` and goes through no
label-checked ``optimal_signal``. So neither count may grow with the number
of grid points.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from riscreen import GameParams, _sweep, cli
from riscreen import baseline_game as bg
from riscreen import multitask as mt
from riscreen import quota_policy as qp
from riscreen import variants as va


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
