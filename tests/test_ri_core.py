"""Tests for the generic binary-action solver."""

import ast
import math
from pathlib import Path

import pytest

from riscreen import PROFILES, GameParams, _primitives, commitment_solve, ri_core
from riscreen.baseline_game import lambda_star, ri_problem
from riscreen.ri_core import (
    ALWAYS_ACT0,
    ALWAYS_ACT1,
    INTERIOR,
    BinaryRIProblem,
    BracketError,
    ChoiceRule,
    ConvergenceError,
    find_root,
    mutual_information,
    neg_entropy,
    solve_binary_ri,
)

import exact
import helpers

# prior over the productivity differences (-1, 0, 1) when m works and w shirks
HILO_PRIOR = (0.12, 0.56, 0.32)
# frozen by independent high-precision evaluation of x ln x + (1-x) ln(1-x)
H_0744 = -0.568831323279549
# frozen: 1 / ln(8/3), the degeneracy switch for HILO_PRIOR
LAMBDA_BREVE = 1.019545447823266
TABLE1_CONDITIONAL = (0.093977614213083, 0.744088048450016, 0.987879461288866)


def hilo_problem(lam):
    return BinaryRIProblem((-1, 0, 1), HILO_PRIOR, (-1.0, 0.0, 1.0), lam)


def objective(problem, cond):
    """Expected gain net of information cost, E[q(s) v(s)] - lam * I, of the conditionals cond."""
    gain = sum(p * q * v for p, q, v in zip(problem.prior, cond, problem.advantage))
    return gain - problem.lam * mutual_information(problem.prior, cond)


class TestNegEntropy:
    def test_symmetry_minimum(self):
        assert neg_entropy(0.5) == pytest.approx(-math.log(2.0), abs=1e-15)

    def test_boundary_convention(self):
        assert neg_entropy(0.0) == 0.0
        assert neg_entropy(1.0) == 0.0

    def test_frozen_value(self):
        assert neg_entropy(0.744) == pytest.approx(H_0744, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0, -1e-9])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            neg_entropy(bad)


class TestProblemValidation:
    def test_prior_must_sum_to_one(self):
        with pytest.raises(ValueError):
            BinaryRIProblem((0, 1), (0.6, 0.5), (0.0, 1.0), 1.0)

    def test_prior_entries_in_unit_interval(self):
        with pytest.raises(ValueError):
            BinaryRIProblem((0, 1), (-0.1, 1.1), (0.0, 1.0), 1.0)

    def test_lambda_positive(self):
        with pytest.raises(ValueError):
            BinaryRIProblem((0, 1), (0.5, 0.5), (0.0, 1.0), 0.0)

    def test_advantage_finite(self):
        with pytest.raises(ValueError):
            BinaryRIProblem((0, 1), (0.5, 0.5), (0.0, math.inf), 1.0)

    def test_rule_consistency(self):
        with pytest.raises(ValueError):
            ChoiceRule((1.0, 1.0), 1.0, True, 0.1)


class TestDegeneracyCheck:
    def test_high_lambda_promotes_unconditionally(self):
        # p(1)/p(-1) = 8/3 while gamma = exp(1/1.2) ~ 2.30
        assert helpers.classification(hilo_problem(1.2)) == ALWAYS_ACT1

    def test_low_lambda_interior(self):
        assert helpers.classification(hilo_problem(0.3)) == INTERIOR

    def test_symmetric_prior_always_interior(self):
        for lam in (0.05, 0.5, 5.0, 50.0):
            prob = BinaryRIProblem((-1, 0, 1), (0.16, 0.68, 0.16), (-1.0, 0.0, 1.0), lam)
            assert helpers.classification(prob) == INTERIOR

    def test_mirror_problem_act0(self):
        prob = BinaryRIProblem((-1, 0, 1), (0.32, 0.56, 0.12), (-1.0, 0.0, 1.0), 1.2)
        assert helpers.classification(prob) == ALWAYS_ACT0

    @helpers.draws(200, seed=33011, prob=helpers.random_problem)
    def test_matches_exponential_moment_form(self, prob):
        down = math.fsum(p * math.exp(-v / prob.lam) for p, v in zip(prob.prior, prob.advantage))
        up = math.fsum(p * math.exp(v / prob.lam) for p, v in zip(prob.prior, prob.advantage))
        expected = ALWAYS_ACT1 if down <= 1 else (ALWAYS_ACT0 if up <= 1 else INTERIOR)
        assert helpers.classification(prob) == expected

    def test_boundary_located_by_bisection(self):
        # the interior/degenerate flip in lam sits at 1/ln(8/3)
        lo, hi = 0.5, 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if helpers.classification(hilo_problem(mid)) == INTERIOR:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(LAMBDA_BREVE, abs=1e-9)
        flips = 0
        prev = helpers.classification(hilo_problem(0.5))
        for lam in helpers.linspace(0.5, 2.0, 400):
            cur = helpers.classification(hilo_problem(lam))
            flips += cur != prev
            prev = cur
        assert flips == 1


class TestSolve:
    def test_promotion_example(self):
        rule = solve_binary_ri(hilo_problem(0.3))
        assert not rule.degenerate
        assert rule.conditional == pytest.approx(TABLE1_CONDITIONAL, abs=1e-9)
        assert rule.unconditional == pytest.approx(0.744088048450016, abs=1e-9)

    def test_symmetric_prior_splits_evenly(self):
        prob = BinaryRIProblem((-1, 0, 1), (0.16, 0.68, 0.16), (-1.0, 0.0, 1.0), 0.3)
        rule = solve_binary_ri(prob)
        assert rule.unconditional == pytest.approx(0.5, abs=1e-12)
        assert rule.conditional[1] == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_shortcut(self):
        rule = solve_binary_ri(hilo_problem(1.2))
        assert rule.degenerate
        assert rule.conditional == (1.0, 1.0, 1.0)
        assert rule.info_cost == 0.0

    def test_tilted_advantage_matches_grid_oracle(self):
        nu = 0.1
        adv = (-1.0 - nu * 0.8 / 0.12, nu * 0.6 / 0.56, 1.0 + nu * 0.2 / 0.32)
        prob = BinaryRIProblem((-1, 0, 1), HILO_PRIOR, adv, 0.3)
        rule = solve_binary_ri(prob)
        grid_val, grid_q = helpers.grid_search_value(prob)
        assert objective(prob, rule.conditional) == pytest.approx(grid_val, abs=1e-7)
        assert rule.unconditional == pytest.approx(grid_q, abs=2e-4)

    def test_residual_below_tolerance(self):
        rule = solve_binary_ri(hilo_problem(0.3))
        residual = abs(
            sum(p * q for p, q in zip(HILO_PRIOR, rule.conditional)) - rule.unconditional
        )
        assert residual <= 1e-10

    def test_budget_exhaustion_raises(self):
        with pytest.raises(ConvergenceError):
            solve_binary_ri(hilo_problem(0.3), max_steps=3)

    def test_info_cost_same_code_path(self):
        rule = solve_binary_ri(hilo_problem(0.3))
        assert rule.info_cost == mutual_information(HILO_PRIOR, rule)


class TestMutualInformation:
    def test_constant_rule_is_free(self):
        assert mutual_information((0.2, 0.3, 0.5), (0.7, 0.7, 0.7)) == 0.0

    def test_fully_revealing_pair(self):
        assert mutual_information((0.5, 0.5), (0.0, 1.0)) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_promotion_rule_matches_closed_form(self):
        # A h(pi(1)) + B h(pi(-1)) - (A+B) h(pi_bar) with A=.32, B=.12
        rule = solve_binary_ri(hilo_problem(0.3))
        h = neg_entropy
        closed = (
            0.32 * h(rule.conditional[2])
            + 0.12 * h(rule.conditional[0])
            - 0.44 * h(rule.unconditional)
        )
        assert rule.info_cost == pytest.approx(closed, abs=1e-8)
        assert rule.info_cost == pytest.approx(0.191876468668156, abs=1e-9)

    @helpers.draws(500, seed=33012, prob=helpers.random_problem, rule=lambda rng: [rng.random() for _ in range(5)])
    def test_nonnegative_on_random_rules(self, prob, rule):
        assert mutual_information(prob.prior, rule[: len(prob.prior)]) >= 0.0


class TestSolverInvariants:
    @helpers.draws(1000, seed=33013, prob=helpers.random_interior_problem)
    def test_objective_within_grid_oracle(self, prob):
        grid_val, _ = helpers.grid_search_value(prob)
        assert abs(objective(prob, solve_binary_ri(prob).conditional) - grid_val) <= 1e-7

    @helpers.draws(200, seed=33014, prob=helpers.random_interior_problem)
    def test_unconditional_is_prior_mean(self, prob):
        rule = solve_binary_ri(prob)
        mean = sum(p * q for p, q in zip(prob.prior, rule.conditional))
        assert abs(mean - rule.unconditional) <= 1e-10


@helpers.draws(150, seed=31011, prob=helpers.ordered_problem)
def test_conditionals_monotone_in_advantage(prob):
    """States with a larger action-1 advantage get a weakly larger conditional."""
    rule = solve_binary_ri(prob)
    for lo, hi in zip(rule.conditional, rule.conditional[1:]):
        assert hi >= lo - 1e-12
    assert all(0.0 <= q <= 1.0 for q in rule.conditional)


@helpers.draws(100, seed=31012, p_hi=lambda rng: rng.uniform(0.55, 0.95), lam=lambda rng: rng.uniform(0.05, 5.0))
def test_symmetric_prior_yields_even_split(p_hi, lam):
    s = p_hi * (1.0 - p_hi)
    prob = BinaryRIProblem((-1, 0, 1), (s, 1.0 - 2.0 * s, s), (-1.0, 0.0, 1.0), lam)
    rule = solve_binary_ri(prob)
    assert rule.unconditional == pytest.approx(0.5, abs=1e-10)
    assert rule.conditional[0] + rule.conditional[2] == pytest.approx(1.0, abs=1e-10)


def decimal_rule(problem):
    with exact.digits(400):
        return exact.binary_ri_rule(problem.prior, problem.advantage, problem.lam)


class TestCornerDefects:
    """Interior problems whose q_bar or a conditional sits within 1e-12 of 0 or 1.

    A bisection of q_bar on [1e-12, 1 - 1e-12] raised on (a) and returned a
    conditional off by about 1 on (b) and (c).
    """

    CASES = {
        "a": (BinaryRIProblem((0, 1), (1e-13, 1 - 1e-13), (50.0, -50.0), 1.0), 1.0e-13),
        "b": (
            BinaryRIProblem(
                (0, 1),
                (4.471729387249975e-25, 1.0),
                (6.227629508328808, -0.015898896652350492),
                0.0642922635240012,
            ),
            None,
        ),
        "c": (
            BinaryRIProblem(
                (0, 1, 2),
                (0.26710094773247367, 7.533295390206302e-14, 0.732899052267451),
                (-0.011901827365708934, 19.50625969068841, -0.055650926320803096),
                0.14752897509748253,
            ),
            3.0012591e-13,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_high_precision_reference(self, case):
        problem, q_bar = self.CASES[case]
        assert helpers.classification(problem) == INTERIOR
        rule = solve_binary_ri(problem)
        cond, ref_q_bar = decimal_rule(problem)
        assert max(abs(a - b) for a, b in zip(rule.conditional, cond)) <= 1e-9
        assert rule.unconditional == pytest.approx(ref_q_bar, rel=1e-9)
        if q_bar is not None:
            assert ref_q_bar == pytest.approx(q_bar, rel=1e-7)

    def test_zero_advantage_with_prior_rounding_up(self):
        weights = (0.5, 0.5, 0.5, 0.08124215965661577, 0.5)
        prior = tuple(w / sum(weights) for w in weights)
        problem = BinaryRIProblem(range(5), prior, (0.0,) * 5, 1.0)
        assert sum(prior) > 1.0 and helpers.classification(problem) == ALWAYS_ACT1
        rule = solve_binary_ri(problem)
        assert rule.degenerate and rule.conditional == (1.0,) * 5

    def test_huge_log_odds(self):
        # |z| reaches 1e15, so b + z carries no digits below 0.1; every
        # conditional is still 0 or 1 and q_bar is the prior mass of z > 0
        problem = BinaryRIProblem((-1, 0, 1), (0.2, 0.5, 0.3), (-1e12, 2e11, 1e12), 1e-3)
        rule = solve_binary_ri(problem)
        assert rule.conditional == (0.0, 1.0, 1.0)
        assert rule.unconditional == pytest.approx(0.8, rel=1e-12)

    def test_advantage_over_lam_overflows(self):
        problem = BinaryRIProblem((0, 1), (0.3, 0.7), (1e300, -1e300), 1e-300)
        rule = solve_binary_ri(problem)
        assert rule.conditional == (1.0, 0.0)
        assert rule.unconditional == pytest.approx(0.3, rel=1e-12)

    def test_tiny_conditional_resolved(self):
        rule = solve_binary_ri(self.CASES["b"][0])
        assert rule.conditional[0] == 1.0
        assert rule.conditional[1] == pytest.approx(1.5939058e-24, rel=1e-7)


@helpers.draws(250, seed=31013, problem=helpers.wide_problem)
def test_interior_rules_match_high_precision_reference(problem):
    rule = solve_binary_ri(problem)
    if helpers.classification(problem) != INTERIOR:
        assert rule.degenerate
        return
    cond, _ = decimal_rule(problem)
    assert max(abs(a - b) for a, b in zip(rule.conditional, cond)) <= 1e-9


class TestFindRoot:
    def test_smooth_root_to_machine_precision(self):
        assert find_root(math.cos, 0.0, 2.0) == pytest.approx(math.pi / 2, rel=4e-16)

    def test_known_end_values_are_used(self):
        calls = []

        def f(x):
            calls.append(x)
            return x**3 - 2.0

        root = find_root(f, 0.0, 2.0, -2.0, 6.0)
        assert root == pytest.approx(2.0 ** (1 / 3), rel=4e-16)
        assert 0.0 not in calls and 2.0 not in calls

    def test_zero_at_an_end(self):
        assert find_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert find_root(lambda x: x - 3.0, 1.0, 3.0) == 3.0

    def test_same_sign_ends_raise(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 2.0)

    def test_budget_counts_end_evaluations(self):
        with pytest.raises(ConvergenceError):
            find_root(math.cos, 0.0, 2.0, max_evals=3)

    def test_step_function_falls_back_to_bisection(self):
        # no interpolation step helps on a jump; the safeguard still closes the bracket
        root = find_root(lambda x: 1.0 if x > 0.3 else -1.0, 0.0, 1.0, xtol=1e-12)
        assert root == pytest.approx(0.3, abs=1e-12)


class TestWorkCounts:
    """Residual evaluations counted by wrapping the module-level residual."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        residual = ri_core._consistency_residual

        def wrapper(*args):
            counted.append(None)
            return residual(*args)

        monkeypatch.setattr(ri_core, "_consistency_residual", wrapper)
        return counted

    def test_commitment_solve(self, calls):
        commitment_solve(GameParams(0.8, 0.6, 0.07, 0.8))
        # a bisection of q_bar nested in a bisection of nu took 3,790; the
        # tilted 3-state signal is now a closed form
        assert len(calls) == 0

    def test_commitment_ladder_never_solves_generically(self, calls, monkeypatch):
        solves = []
        solve = ri_core.solve_binary_ri

        def wrapper(*args, **kwargs):
            solves.append(None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(ri_core, "solve_binary_ri", wrapper)
        game = GameParams(0.8, 0.6, 0.07, 1.0)
        star = lambda_star(game)
        for k in range(40):
            sol = commitment_solve(game._replace(lam=star * 0.5 * 6.0 ** (k / 39)))
            assert math.isfinite(sol.profit)
        assert solves == [] and calls == []

    def test_interior_solves_on_a_lambda_ladder(self, calls):
        solves = 0
        for k in range(30):
            game = GameParams(0.8, 0.6, 0.07, 0.05 * 1.2**k)
            for profile in PROFILES:
                problem = ri_problem(game, profile)
                if helpers.classification(problem) == INTERIOR:
                    solve_binary_ri(problem)
                    solves += 1
        assert solves > 0
        assert solves <= len(calls) <= 8 * solves


def test_imports_nothing_from_the_closed_forms():
    # the generic solver is the closed forms' oracle, so it must not reuse them: its one riscreen
    # import is the leaf riscreen._primitives, which imports nothing from riscreen
    def riscreen_imports(module):
        found = []
        for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "riscreen"):
                found.append((node.level, node.module))
            elif isinstance(node, ast.Import):
                found += [(0, a.name) for a in node.names if a.name.split(".")[0] == "riscreen"]
        return found

    assert riscreen_imports(ri_core) == [(1, "_primitives")]
    assert riscreen_imports(_primitives) == []


#: the names through which code reaches the oracle
ORACLE_NAMES = {"ri_core", "find_root", "solve_binary_ri", "BinaryRIProblem", "ri_problem",
                "signal_oracle_residual", "subsidized_signal"}
#: (module, top-level function) of the only code that may name them: the problem recast
#: for the oracle, the oracle residual of `signal --oracle` and `reproduce`, and the quota
#: signal the oracle solves with a tax
ORACLE_PATHS = {("baseline_game", "ri_problem"), ("baseline_game", "signal_oracle_residual"),
                ("quota_policy", "subsidized_signal"), ("cli", "cmd_signal"), ("_golden", "golden_checks")}


def test_no_closed_form_reaches_the_oracle():
    # the closed forms are checked against ri_core, so none may call it: outside ri_core.py,
    # only baseline_game and quota_policy import it, and the oracle's names appear in code
    # only inside ORACLE_PATHS (docstrings and import lines are not code here)
    importers, users = set(), set()

    def visit(node, module, owner):
        if isinstance(node, ast.ImportFrom):  # from . or riscreen import ri_core, from .ri_core import ...
            package = (node.level, node.module) in ((1, None), (0, "riscreen"))
            imported = {a.name for a in node.names} if package else {(node.module or "").removeprefix("riscreen.")}
            if any(name.split(".")[0] == "ri_core" for name in imported):
                importers.add(module)
            return
        if isinstance(node, ast.Import):
            if any(a.name.startswith("riscreen.ri_core") for a in node.names):
                importers.add(module)
            return
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name in ORACLE_NAMES:
            users.add((module, owner, name))
        if owner is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted(Path(ri_core.__file__).parent.glob("*.py")):
        if path.stem != "ri_core":
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)

    assert importers == {"baseline_game", "quota_policy"}
    assert {(module, owner) for module, owner, _ in users} == ORACLE_PATHS, sorted(users, key=str)


def test_the_exact_model_imports_nothing_from_riscreen():
    # the tests' exact model is the library's reference, so it must share no code with it
    for node in ast.walk(ast.parse(Path(exact.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("riscreen"), node.module
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "riscreen" for a in node.names)
