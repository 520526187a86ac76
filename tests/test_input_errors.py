"""Input errors: each bad CLI input exits 2 with one error line, each bad library input raises ValueError."""

import json
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
    multitask_equilibrium_set,
    mutual_information,
)

GAME = ["--mu-hi", ".8", "--mu-lo", ".6", "--cost", ".07", "--lambda", ".3"]
TASK = ["--task2", "0.5,1.0,0.03"]
LAM_GRID_ERROR = "need 0 < lo < hi and at least two steps in the lambda grid"
CONFIGS = {"list.json": b"[1, 2]", "profile.json": b'{"profile": 5}', "task.json": b'{"task1": 5}',
           "bytes.json": b'\xff\xfe{"mu_hi": 0.8}'}
GRID_OVERFLOW = "the lambda grid overflows: (hi - lo) * (steps - 1) / (steps - 1) + lo, its last point, must be finite"


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
    # a finite hi whose (hi - lo) * i overflows would put inf on the grid
    (["regimes", "--mu-hi", ".8", "--mu-lo", ".6", "--lambda-range", "0.1", "1e308", "--lambda-steps", "4"],
     GRID_OVERFLOW),
    (["variants", "--which", "continuous", "--lambda-range", "0.1", "1e308", "--lambda-steps", "3"], GRID_OVERFLOW),
    # a finite (hi - lo) * (steps - 1) whose last point still rounds up to inf
    (["regimes", "--mu-hi", ".8", "--mu-lo", ".6", "--lambda-range", "6.835372912641875e+307", "1.7976931348623157e+308",
      "--lambda-steps", "2"], GRID_OVERFLOW),
    (["variants", "--which", "continuous", "--lambda-range", "6.835372912641875e+307", "1.7976931348623157e+308",
      "--lambda-steps", "2"], GRID_OVERFLOW),
    # a step count past the float range
    (["regimes", "--mu-hi", ".8", "--mu-lo", ".6", "--lambda-steps", "1" + "0" * 400], GRID_OVERFLOW),
    (["variants", "--which", "continuous", "--lambda-steps", "1" + "0" * 400], GRID_OVERFLOW),
    (["equilibria", *GAME, "--out", "{tmp}/missing/x"], "cannot write '{tmp}/missing/x': "),
    (["--config", "{tmp}/list.json", "equilibria"], "config '{tmp}/list.json' must hold a JSON object"),
    (["--config", "{tmp}/bytes.json", "equilibria"], "cannot read config '{tmp}/bytes.json': "),
    # a config value is its flag's text: these the flag accepts, and the model refuses
    (["--config", "{tmp}/profile.json", "signal", *GAME], "profile must look like 'hi,lo', got '5'"),
    (["--config", "{tmp}/task.json", "multitask", *GAME, *TASK], "expected three comma-separated numbers, got '5'"),
], ids=["profile", "task-triple", "task-cost", "task-beta", "du-m", "tiny-cost-order", "ref-prior", "kappa",
        "continuous-lam", "regimes-lam-inf", "regimes-grid-overflow", "continuous-grid-overflow",
        "regimes-last-point-inf", "continuous-last-point-inf", "regimes-steps-overflow", "continuous-steps-overflow",
        "out-dir", "config-list", "config-bytes", "config-profile", "config-task"])
def test_a_bad_cli_input_exits_2_with_one_error_line(argv, message, tmp_path, capsys):
    for name, data in CONFIGS.items():
        (tmp_path / name).write_bytes(data)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: " + message.format(tmp=tmp_path))
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("cfg, argv, message", [
    ({"lambda_steps": 2.5}, ["regimes"], "argument --lambda-steps: invalid int value: '2.5'"),
    ({"lambda_range": [0.1, "x"]}, ["regimes"], "argument --lambda-range: invalid float value: 'x'"),
    # a list longer than the option's count stays one value, so no item is read as a flag
    ({"lambda_range": [0.1, 2, "--lambda-steps", "3"]}, ["regimes"], "argument --lambda-range: expected 2 arguments"),
    ({"analysis": 5}, ["regimes"], "argument --analysis: invalid choice: '5'"),
    ({"format": "xml"}, ["regimes"], "argument --format: invalid choice: 'xml'"),
    ({"oracle": "no"}, ["signal", "--lambda", ".3"], "argument --oracle: ignored explicit argument 'no'"),
    ({"mu_hi": None}, ["equilibria", "--lambda", ".3"], "the following arguments are required: --mu-hi"),
    # the config's text is parsed before the typed flag that overrides it
    ({"lambda_steps": "x"}, ["regimes", "--lambda-steps", "3"], "argument --lambda-steps: invalid int value: 'x'"),
], ids=["steps", "range", "long-range", "analysis", "format", "oracle", "null", "overridden-steps"])
def test_a_config_value_its_flag_refuses_gets_the_usage_error(cfg, argv, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mu_hi": 0.8, "mu_lo": 0.6, **cfg}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(path), *argv])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.startswith(f"usage: riscreen {argv[0]} ") and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].startswith(f"riscreen {argv[0]}: error: {message}")


@pytest.mark.parametrize("build, message", [
    (lambda: BinaryRIProblem(["s"], [1.0], [0.5], 0.3), "need at least two states"),
    (lambda: BinaryRIProblem(["a", "b"], [0.5, 0.5], [0.1, 0.2, 0.3], 0.3),
     "states, prior and advantage must have equal length"),
    (lambda: ChoiceRule([0.2, 1.5], 0.5, False, 0.1), "conditional outside [0, 1]: 1.5"),
    (lambda: ChoiceRule([0.2, 0.8], 0.5, False, -0.1), "info_cost must be nonnegative"),
    (lambda: mutual_information([0.5, 0.5], [0.2, 0.4, 0.8]), "prior and conditional must have equal length"),
    (lambda: ReferencePriorProblem([0.5, 0.5], [0.2, 0.5, 0.3], 0.3), "priors live on the three differences (-1, 0, 1)"),
    (lambda: GameParams(0.6, 0.8, 0.07, 0.3), "need 0 < mu_lo < mu_hi < 1, got mu_lo=0.8, mu_hi=0.6"),
    (lambda: GameParams(0.8, 0.6, 0.07, math.inf), "lam must be positive and finite, got inf"),
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
    (lambda: multitask_equilibrium_set(GameParams(0.75, 0.25, 0.07, 0.3), (TaskParams(0.5, 1.0, 0.03),) * 3),
     "exactly two tasks are supported"),
], ids=["one-state", "unequal-lengths", "conditional", "info-cost", "mi-lengths", "two-entry-prior",
        "mu-order", "game-lam-inf", "task-cost-inf", "cost-w-nan", "tiny-cost-order", "tiny-task-order",
        "continuous-lam-zero", "cost-c-nan", "cost-c-zero", "kappa-minus-zero", "du-m-inf", "three-tasks"])
def test_a_bad_library_input_raises_value_error(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
