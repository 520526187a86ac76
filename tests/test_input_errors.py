"""Input errors: each bad CLI input exits 2 with one error line, each bad library input raises ValueError."""

import math
import re

import pytest

from riscreen import (
    BinaryRIProblem,
    ChoiceRule,
    GameParams,
    HeterogeneousParams,
    ReferencePriorProblem,
    TaskParams,
    cli,
    continuous_effort_equilibria,
    f_inverse,
    g_inverse,
    multitask_equilibrium_set,
    mutual_information,
)

GAME = ["--mu-hi", ".8", "--mu-lo", ".6", "--cost", ".07", "--lambda", ".3"]
TASK = ["--task2", "0.5,1.0,0.03"]
LAM_GRID_ERROR = "need 0 < lo < hi and at least two steps in the lambda grid"


@pytest.mark.parametrize("argv, message", [
    (["signal", *GAME, "--profile", "hi,mid"], "profile must look like 'hi,lo', got 'hi,mid'"),
    (["multitask", *GAME, "--task1", "0.5,1.0", *TASK], "expected three comma-separated numbers, got '0.5,1.0'"),
    (["multitask", *GAME, "--task1", "0.5,1.0,-0.01", *TASK], "cost_C must be positive and finite, got -0.01"),
    (["multitask", *GAME, "--task1", "0.5,inf,0.05", *TASK], "beta must be positive and finite, got inf"),
    (["variants", "--which", "heterogeneous", *GAME, "--du-m", "inf"], "du_m must be positive and finite, got inf"),
    # the cost ordering's slack scales with the costs, so a 2:1 ratio is refused at any scale
    (["variants", "--which", "heterogeneous", "--mu-hi", ".8", "--mu-lo", ".6", "--lambda", ".3",
      "--cost-m", "2e-13", "--cost-w", "1e-13"],
     "label agents so the effective cost of m is lower, got c_m=9.999999999999998e-13 > c_w=4.999999999999999e-13"),
    (["variants", "--which", "prior-invariant", *GAME, "--ref-prior", "nan,0.5,0.5"],
     "reference prior entries must be positive and finite, got (nan, 0.5, 0.5)"),
    (["variants", "--which", "continuous", "--kappa", "inf"], "kappa must be positive and finite, got inf"),
    # an infinite hi would put 0.1 + inf*0 = nan first on the grid
    (["variants", "--which", "continuous", "--lambda-range", "0.1", "inf"], LAM_GRID_ERROR),
    (["regimes", "--mu-hi", ".8", "--mu-lo", ".6", "--lambda-range", "0.1", "inf", "--lambda-steps", "3"],
     LAM_GRID_ERROR),
    (["equilibria", *GAME, "--out", "{tmp}/missing/x"], "cannot write '{tmp}/missing/x': "),
    (["--config", "{tmp}/list.json", "equilibria"], "config '{tmp}/list.json' must hold a JSON object"),
], ids=["profile", "task-triple", "task-cost", "task-beta", "du-m", "tiny-cost-order", "ref-prior", "kappa",
        "continuous-lam", "regimes-lam-inf", "out-dir", "config-list"])
def test_a_bad_cli_input_exits_2_with_one_error_line(argv, message, tmp_path, capsys):
    (tmp_path / "list.json").write_text("[1, 2]")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: " + message.format(tmp=tmp_path))
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("build, message", [
    (lambda: BinaryRIProblem(["s"], [1.0], [0.5], 0.3), "need at least two states"),
    (lambda: BinaryRIProblem(["a", "b"], [0.5, 0.5], [0.1, 0.2, 0.3], 0.3),
     "states, prior and advantage must have equal length"),
    (lambda: ChoiceRule([0.2, 1.5], 0.5, False, 0.1), "conditional outside [0, 1]: 1.5"),
    (lambda: ChoiceRule([0.2, 0.8], 0.5, False, -0.1), "info_cost must be nonnegative"),
    (lambda: mutual_information([0.5, 0.5], [0.2, 0.4, 0.8]), "prior and conditional must have equal length"),
    (lambda: ReferencePriorProblem([0.5, 0.5], [0.2, 0.5, 0.3], 0.3), "priors live on the three differences (-1, 0, 1)"),
    (lambda: g_inverse(-0.01), "g_inverse needs x >= 0, got -0.01"),
    (lambda: f_inverse(GameParams(0.8, 0.6, 0.07, 0.3), -math.ulp(0.0)), "f_inverse needs x >= 0, got -5e-324"),
    (lambda: TaskParams(0.5, 1.0, math.inf), "cost_C must be positive and finite, got inf"),
    (lambda: HeterogeneousParams(0.07, math.nan), "cost_w must be positive and finite, got nan"),
    (lambda: HeterogeneousParams(2e-13, 1e-13).effective_costs(1.0),
     "label agents so the effective cost of m is lower, got c_m=2e-13 > c_w=1e-13"),
    (lambda: multitask_equilibrium_set(GameParams(0.75, 0.25, 0.07, 0.3),
                                       (TaskParams(0.5, 1.0, 2e-14), TaskParams(0.5, 1.0, 1e-14))),
     "tasks must be ordered by effective cost, got c1=8e-14 > c2=4e-14"),
    (lambda: continuous_effort_equilibria(0.65, [0.3, 0.0]), "lam must be positive and finite, got 0.0"),
    (lambda: GameParams(0.8, 0.6, math.nan, 0.3), "cost_C must be positive and finite, got nan"),
    (lambda: GameParams(0.8, 0.6, 0.0, 0.3), "cost_C must be positive and finite, got 0.0"),
    (lambda: continuous_effort_equilibria(-0.0, [0.3]), "kappa must be positive and finite, got -0.0"),
    (lambda: HeterogeneousParams(0.07, 0.08, math.inf), "du_m must be positive and finite, got inf"),
], ids=["one-state", "unequal-lengths", "conditional", "info-cost", "mi-lengths", "two-entry-prior",
        "g-inverse", "f-inverse", "task-cost-inf", "cost-w-nan", "tiny-cost-order", "tiny-task-order",
        "continuous-lam-zero", "cost-c-nan", "cost-c-zero", "kappa-minus-zero", "du-m-inf"])
def test_a_bad_library_input_raises_value_error(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
