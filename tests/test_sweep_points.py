"""A regimes sweep equals its points.

``cli.cmd_regimes`` does each analysis's lambda-independent work once per
sweep and only the lambda-dependent work at each grid point. Every row of all
four analyses must equal, bit for bit, the row built from the public
single-point functions at that lambda, and a sweep that fails must fail with
the exit code and message of its first failing point. Invalid grids keep
their messages.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

import pytest

from riscreen import GameParams, _sweep, cli, thresholds
from riscreen import baseline_game as bg
from riscreen import multitask as mt
from riscreen import quota_policy as qp
from riscreen import variants as va

ANALYSES = ("baseline", "quota", "multitask", "variants")
GRID_OVERFLOW = "the lambda grid overflows: (hi - lo) * (steps - 1) / (steps - 1) + lo, its last point, must be finite"


def hexed(obj):
    """obj with every float replaced by its hex text, so -0.0 and NaN compare exactly."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (tuple, list)):
        return [hexed(x) for x in obj]
    return obj


def tag(profile):
    return f"{profile[0]},{profile[1]}"


def point_row(analysis, game, tasks, cuts):
    """The sweep row at game.lam from the public single-point functions."""
    if analysis in ("baseline", "quota"):
        records = qp.quota_equilibrium_set(game) if analysis == "quota" else bg.equilibrium_set(game)
        present = {r.profile for r in records}
        ties = bg.most_profitable_among(records)
        return [game.lam, *(int(p in present) for p in bg.PROFILES), "|".join(sorted(tag(r.profile) for r in ties)),
                max(r.profit for r in ties), ">".join(tag(r.profile) for r in bg.welfare_ordering(records)),
                cuts.lambda_low, cuts.lambda_star, cuts.lambda_high, int(cuts.condition5)]
    if analysis == "multitask":
        records = mt.multitask_equilibrium_set(game, tasks)
        winners = mt.multitask_most_profitable(game, tasks)
        return [game.lam, len(records), "|".join(sorted({w.classification for w in winners})),
                winners[0].payoff if winners else math.nan]
    sol = va.commitment_solve(game)
    return [game.lam, tag(sol.induced_profile), sol.profit, len(va.mixed_equilibria(game))]


def points_outcome(analysis, mu_hi, mu_lo, cost, grid, tasks):
    """(0, rows) from the points, or (2, message) of the first point that raises."""
    try:
        cuts = thresholds(GameParams(mu_hi, mu_lo, cost, 1.0))
        return 0, [point_row(analysis, GameParams(mu_hi, mu_lo, cost, lam), tasks, cuts) for lam in grid]
    except ValueError as exc:
        return 2, f"error: {exc}\n"


def sweep_outcome(argv, monkeypatch):
    """(0, rows) the sweep writes, or (exit code, stderr) of a sweep that fails."""
    written = []
    real = _sweep._rows_to_csv
    monkeypatch.setattr(_sweep, "_rows_to_csv", lambda header, rows, meta: written.append(rows) or real(header, rows, meta))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return (0, written[0]) if code == 0 else (code, err.getvalue())


def bases(n=100):
    """Derandomized games, tasks and lambda ranges across each game's cutpoints."""
    rng = random.Random(2204)
    out = []
    for i in range(n):
        mu_a, mu_b = (rng.choice((rng.uniform(1e-4, 1e-2), rng.uniform(0.99, 1.0 - 1e-4), rng.uniform(0.01, 0.99)))
                      for _ in range(2))
        mu_hi, mu_lo = max(mu_a, mu_b), min(mu_a, mu_b)
        cost = 10.0 ** rng.uniform(-8.0, -0.5) * (mu_hi - mu_lo)
        cuts = thresholds(GameParams(mu_hi, mu_lo, cost, 1.0))
        finite = [x for x in (cuts.lambda_low, cuts.lambda_star, cuts.lambda_high, cuts.lambda_breve)
                  if 0.0 < x < math.inf]
        lo, hi = (0.5 * min(finite), 1.25 * max(finite)) if finite else (0.05, 2.0)
        if i % 4 == 3 and finite:  # a knife edge: one cutpoint +- 1e-9 relative
            x = rng.choice(finite)
            lo, hi = x * (1.0 - 1e-9), x * (1.0 + 1e-9)
        # equal arrivals, except every tenth game, whose multitask ranking is refused
        alpha = 0.3 if i % 10 == 9 else 0.5
        tasks = ((0.5, 1.0, 0.45 * cost), (alpha, 1.0, 0.5 * cost))
        out.append((mu_hi, mu_lo, cost, (lo, hi), tasks))
    return out


def test_every_sweep_row_equals_its_point(monkeypatch):
    steps = 8
    for mu_hi, mu_lo, cost, (lo, hi), tasks in bases():
        grid = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
        task_args = ["--task1", ",".join(map(repr, tasks[0])), "--task2", ",".join(map(repr, tasks[1]))]
        for analysis in ANALYSES:
            argv = ["regimes", "--analysis", analysis, "--mu-hi", repr(mu_hi), "--mu-lo", repr(mu_lo),
                    "--cost", repr(cost), "--lambda-range", repr(lo), repr(hi), "--lambda-steps", str(steps),
                    *task_args]
            want = points_outcome(analysis, mu_hi, mu_lo, cost, grid, tuple(mt.TaskParams(*t) for t in tasks))
            got = sweep_outcome(argv, monkeypatch)
            assert hexed(got) == hexed(want), (analysis, mu_hi, mu_lo, cost, lo, hi)


@pytest.mark.parametrize("analysis", ANALYSES)
@pytest.mark.parametrize(
    "sweep, message",
    [
        # an infinite hi is refused with the grid: 0.1 + inf*0 would put nan first
        (["--lambda-range", "0.1", "inf"], "need 0 < lo < hi and at least two steps in the lambda grid"),
        # (hi - lo) * i would overflow to an inf grid point past the second step
        (["--lambda-range", "0.1", "1e308", "--lambda-steps", "4"], GRID_OVERFLOW),
        (["--lambda-range", "nan", "1"], "need 0 < lo < hi and at least two steps in the lambda grid"),
        # (hi - lo) * (steps - 1) is finite, but the last point rounds up to inf
        (["--lambda-range", "6.835372912641875e+307", "1.7976931348623157e+308", "--lambda-steps", "2"], GRID_OVERFLOW),
    ],
)
def test_invalid_grids_keep_their_errors(analysis, sweep, message, capsys):
    assert cli.main(["regimes", "--analysis", analysis, "--mu-hi", ".8", "--mu-lo", ".6", *sweep]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "sweep, message",
    [
        # the grid, its overflow included, is refused before the quota runs below mu_hi + mu_lo = 1
        (["--lambda-range", "0.1", "inf"], "need 0 < lo < hi and at least two steps in the lambda grid"),
        (["--lambda-range", "0.1", "1e308", "--lambda-steps", "4"], GRID_OVERFLOW),
    ],
)
def test_the_quota_refusal_keeps_its_place(sweep, message, capsys):
    assert cli.main(["regimes", "--analysis", "quota", "--mu-hi", ".6", "--mu-lo", ".3", *sweep]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
