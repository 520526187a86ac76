"""Two-task extension: skill-specific investments and task assignment.

Tasks arrive exclusively (one at a time) with probabilities alpha^t, pay the
assigned agent beta^t, and are screened through separate signals. Incentives
are additively separable across tasks, so each task reduces to a copy of the
baseline promotion game with effective cost c^t = C^t / (alpha^t beta^t
delta_mu); a joint investment profile is an equilibrium exactly when each
task's effort pair is an equilibrium of its own per-task game.
"""

from __future__ import annotations

from collections import namedtuple

from .baseline_game import (
    HI,
    LO,
    PROFILES,
    GameParams,
    _bill,
    _gain_table,
    _game,
    _incentive_holds,
    _out_of_reach,
    _profile_signals,
    _supported,
    _ties_at_best,
)
from ._primitives import _positive, _Validated

NON_SPECIALIZED = "non-specialized"
SPECIALIZED = "specialized"
HYBRID = "hybrid"

_EFFORTS = (HI, LO)
#: the classes the profitability ranking compares; a hybrid equilibrium is enumerated but not ranked
_RANKED = (SPECIALIZED, NON_SPECIALIZED)


class TaskParams(_Validated, namedtuple("TaskParams", "alpha beta cost_C")):
    """One task: arrival probability alpha in (0, 1/2], reward beta > 0, cost."""

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float, cost_C: float):
        if not 0.0 < alpha <= 0.5:
            raise ValueError(f"alpha must lie in (0, 1/2], got {alpha!r}")
        return tuple.__new__(cls, (alpha, _positive("beta", beta), _positive("cost_C", cost_C)))

    def effective_cost(self, delta_mu: float) -> float:
        """c^t = C^t / (alpha^t beta^t delta_mu), the per-task analog of c."""
        return self.cost_C / (self.alpha * self.beta * delta_mu)


class MultitaskRecord(namedtuple("MultitaskRecord", "investment_m investment_w classification payoff signals")):
    """A joint equilibrium: per-agent investment vectors, one entry per task."""

    __slots__ = ()


def _validate(game: GameParams, tasks: tuple) -> tuple:
    if len(tasks) != 2:
        raise ValueError("exactly two tasks are supported")
    t1, t2 = tasks
    c1 = t1.effective_cost(game.delta_mu)
    c2 = t2.effective_cost(game.delta_mu)
    if not _incentive_holds(LO, c1, c2):  # c1 <= c2 + IC_TOL min(1, c2)
        raise ValueError(
            f"tasks must be ordered by effective cost, got c1={c1!r} > c2={c2!r}"
        )
    return c1, c2


def task_games(game: GameParams, tasks: tuple) -> tuple:
    """Per-task copies of the baseline game with cost_C set to c^t delta_mu.

    game.cost_C itself is ignored; each task carries its own cost.
    """
    c1, c2 = _validate(game, tasks)
    return (
        game._replace(cost_C=c1 * game.delta_mu),
        game._replace(cost_C=c2 * game.delta_mu),
    )


def _classify(inv_m: tuple, inv_w: tuple) -> str:
    """Specialized when each agent invests in the one task the other skips."""
    return NON_SPECIALIZED if inv_m == inv_w else SPECIALIZED if inv_m == inv_w[::-1] else HYBRID


#: (index in PROFILES of the task-1 pair, of the task-2 pair, investment_m,
#: investment_w, classification) of the 16 joint profiles, in enumeration order
_JOINT = tuple((PROFILES.index((m1, w1)), PROFILES.index((m2, w2)), (m1, m2), (w1, w2), _classify((m1, m2), (w1, w2)))
               for m1 in _EFFORTS for m2 in _EFFORTS for w1 in _EFFORTS for w2 in _EFFORTS)
#: the index in a _Game's priors of each profile in PROFILES order: (lo, hi) is valued as (hi, lo)
_PRIOR = (0, 1, 1, 2)


def multitask_equilibrium_set(game: GameParams, tasks: tuple) -> list:
    """All joint pure equilibria over the 16 investment profiles.

    One-step deviations are all that need deterring (task payoffs are
    additively separable), so the check is per task: the task-t effort pair
    must survive both incentive constraints of the task-t game. A task game
    differs from game only in cost_C, and signals, gains and profits do not
    depend on the cost, so the two signals and their one gain table are formed
    once and tested against both task games' c, and each pair some joint
    equilibrium uses is valued once, (lo, hi) as (hi, lo). The principal's payoff
    adds the per-task profits weighted by arrivals, alpha^1 (V_1 - lam I_1) + alpha^2 (V_2 - lam I_2).
    Past the slope bound at the smaller task cost (baseline_game._out_of_reach),
    (lo, lo) in both tasks is the one equilibrium, valued alone at the impartial
    signal, and no (hi, lo) signal or gain table is formed.
    """
    return _multitask_equilibria(_multitask_game(game, tasks), game.lam)


def _multitask_game(game: GameParams, tasks: tuple) -> tuple:
    """The lambda-independent part of multitask_equilibrium_set: the task checks,
    then (the _game, each task game's c, alpha1, alpha2)."""
    return _game(game), _validate(game, tasks), tasks[0].alpha, tasks[1].alpha


def _multitask_equilibria(multitask_game: tuple, lam: float) -> list:
    """multitask_equilibrium_set at lam of the game whose lambda-independent part is multitask_game."""
    game, (c1, c2), alpha1, alpha2 = multitask_game
    impartial = _out_of_reach(min(c1, c2), lam)
    if impartial:  # (lo, lo) in both tasks, the last of _JOINT
        V, I = _bill(game.priors[2], impartial)
        p = V - lam * I
        inv_m, inv_w, label = _JOINT[-1][2:]
        return [tuple.__new__(MultitaskRecord, (inv_m, inv_w, label, alpha1 * p + alpha2 * p, (impartial, impartial)))]
    impartial, tilted = _profile_signals(game, lam)
    table = _gain_table(game.priors, impartial, tilted)
    first, second = _supported(table, c1, c1), _supported(table, c2, c2)
    if not (any(first) and any(second)):
        return []
    held = [a or b for a, b in zip(first, second)]  # _JOINT pairs every task-1 pair with every task-2 pair
    signals = (impartial, tilted, tilted.mirrored() if held[2] else None, impartial)
    profits = [None, None, None]  # by prior: (hi, hi), (hi, lo), (lo, lo)
    for k, i, used in ((0, 0, held[0]), (1, 1, held[1] or held[2]), (2, 3, held[3])):
        if used:
            V, I = _bill(game.priors[k], signals[i])
            profits[k] = V - lam * I
    return [tuple.__new__(MultitaskRecord, (inv_m, inv_w, label, alpha1 * profits[_PRIOR[i]]
                                            + alpha2 * profits[_PRIOR[j]], (signals[i], signals[j])))
            for i, j, inv_m, inv_w, label in _JOINT if first[i] and second[j]]


def multitask_most_profitable(game: GameParams, tasks: tuple) -> list:
    """Most profitable of the specialized and non-specialized equilibria.

    Requires alpha1 = alpha2; the profitability ranking is only meaningful
    with equal arrival rates. Other equilibria (one agent carrying both
    skills, say) are enumerated by :func:`multitask_equilibrium_set` but sit
    outside the ranking's scope and can out-earn both ranked classes.
    Mirror specialized equilibria tie, so the list can have two entries.
    """
    _check_equal_arrivals(tasks)
    return _most_profitable(multitask_equilibrium_set(game, tasks))


def most_profitable_among(records: list, tasks: tuple) -> list:
    """The ranking of :func:`multitask_most_profitable` over records in hand.

    records are those of :func:`multitask_equilibrium_set` for the same
    tasks; the same alpha1 = alpha2 requirement and 1e-12 tie rule apply.
    """
    _check_equal_arrivals(tasks)
    return _most_profitable(records)


def _most_profitable(records: list) -> list:
    """most_profitable_among's ranking, for tasks whose arrivals are already checked."""
    ranked = [r for r in records if r.classification in _RANKED]
    return _ties_at_best(ranked, [r.payoff for r in ranked])


def _equal_arrivals(tasks: tuple) -> bool:
    """alpha1 = alpha2 to 1e-12, which the profitability ranking requires."""
    return abs(tasks[0].alpha - tasks[1].alpha) <= 1e-12


def _check_equal_arrivals(tasks: tuple) -> None:
    if not _equal_arrivals(tasks):
        raise ValueError("profitability ranking requires alpha1 = alpha2")
