"""The package namespace: its public names, and the deferred submodules behind them.

``import riscreen`` registers each submodule in ``sys.modules`` and runs its
body on the first attribute access. The public names are served from the
submodules, and the first loads are safe when threads race for them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riscreen

#: the names riscreen exported when every submodule was imported eagerly, by module
EXPORTS = {
    "ri_core": ["ALWAYS_ACT0", "ALWAYS_ACT1", "INTERIOR", "BinaryRIProblem", "ChoiceRule", "ConvergenceError",
                "mutual_information", "neg_entropy", "solve_binary_ri"],
    "baseline_game": ["AGENT_M", "AGENT_W", "DISCRIMINATORY", "HI", "IMPARTIAL", "LO", "PROFILES", "BracketError",
                      "EquilibriumRecord", "GameParams", "ProfitBreakdown", "PromotionSignal", "StateDistribution",
                      "ThresholdSet", "equilibrium_set", "evaluate", "f_func", "f_inverse", "g_func", "g_inverse",
                      "incentive_gain", "most_profitable", "optimal_signal", "profit", "state_distribution",
                      "thresholds", "welfare_ordering"],
    "quota_policy": ["QuotaSolution", "find_multiplier", "quota_equilibrium_set", "subsidized_signal"],
    "multitask": ["HYBRID", "NON_SPECIALIZED", "SPECIALIZED", "MultitaskRecord", "TaskParams",
                  "multitask_equilibrium_set", "multitask_most_profitable"],
    "variants": ["BindingHighSolution", "CommitmentSolution", "EffortGridResult", "HeterogeneousParams",
                 "MixedEquilibrium", "MixedProfile", "PriorInvariantResult", "ReferencePriorProblem",
                 "bind_high_effort", "commitment_solve", "continuous_effort_equilibria",
                 "heterogeneous_equilibrium_set", "mixed_equilibria", "prior_invariant_signal"],
}


def test_all_is_the_61_exported_names():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 61
    assert riscreen.__all__ == names
    assert set(names) <= set(dir(riscreen))


@pytest.mark.parametrize("module", list(EXPORTS))
def test_each_name_is_its_module_attribute(module):
    for name in EXPORTS[module]:
        assert getattr(riscreen, name) is getattr(getattr(riscreen, module), name), name


def test_star_import_binds_every_name():
    scope = {}
    exec("from riscreen import *", scope)
    assert {name for name in scope if name != "__builtins__"} == set(riscreen.__all__)
    for name in riscreen.__all__:
        assert scope[name] is getattr(riscreen, name), name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'riscreen' has no attribute 'no_such_name'"):
        riscreen.no_such_name
    assert not hasattr(riscreen, "solve")


def test_the_error_types_are_one_object_in_every_module():
    # ri_core and baseline_game re-export the errors of the leaf riscreen._primitives
    from riscreen import _primitives

    for name in ("BracketError", "ConvergenceError"):
        assert getattr(riscreen, name) is getattr(riscreen.baseline_game, name) is getattr(riscreen.ri_core, name), name
        assert getattr(riscreen, name) is getattr(_primitives, name), name


def test_only_the_package_defines_a_module_getattr():
    # CPython does not specialize attribute loads from a module that has a __getattr__
    for path in sorted(Path(riscreen.__file__).parent.glob("*.py")):
        defined = {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
                   if isinstance(node, ast.FunctionDef)}
        assert ("__getattr__" in defined) == (path.name == "__init__.py"), path.name


def _env():
    src = str(Path(riscreen.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_a_reload_keeps_the_registered_modules_and_loads_them_later():
    # in a fresh interpreter, so that variants is still deferred when the package reloads
    script = (
        "import importlib, sys, riscreen\n"
        "before = sys.modules['riscreen.variants']\n"
        "importlib.reload(riscreen)\n"
        "assert sys.modules['riscreen.variants'] is before is riscreen.variants\n"
        "assert riscreen.mixed_equilibria is before.mixed_equilibria\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# run in a fresh interpreter: each round drops every riscreen module and imports
# the package again, so the first calls of the round load the deferred bodies
RACE = r"""
import sys, threading
sys.setswitchinterval(1e-6)
ROUNDS, OUT = int(sys.argv[1]), sys.argv[2]
GAME = ["--mu-hi", ".8", "--mu-lo", ".6", "--cost", ".07", "--lambda", ".3"]
TASKS = ["--task1", "0.5,1.0,0.028", "--task2", "0.5,1.0,0.03"]
COMMANDS = [["variants", "--which", "mixed", *GAME], ["variants", "--which", "commitment", *GAME],
            ["quota", *GAME], ["multitask", *GAME, *TASKS],
            ["regimes", "--analysis", "quota", "--mu-hi", ".8", "--mu-lo", ".6", "--lambda-steps", "4"]]


def fresh():
    for name in [n for n in sys.modules if n == "riscreen" or n.startswith("riscreen.")]:
        del sys.modules[name]
    import riscreen
    return riscreen


def outcome(call):
    try:
        return repr(call())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def race(calls):
    barrier, results = threading.Barrier(len(calls)), [None] * len(calls)

    def run(i):
        barrier.wait()
        results[i] = outcome(calls[i])

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(len(calls))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    if any(t.is_alive() for t in threads):
        sys.exit("a racing call did not finish within 120 s")
    return results


def cli_calls():
    fresh()
    import riscreen.cli as cli

    def call(i):
        path = f"{OUT}.{i}"

        def run():
            code = cli.main([*COMMANDS[i], "--out", path])
            with open(path) as fh:
                return code, fh.read()

        return run

    return [call(i) for i in range(len(COMMANDS))]


def library_calls():
    riscreen = fresh()

    def variants(fn, *args):
        import riscreen.variants as va
        return getattr(va, fn)(riscreen.GameParams(.8, .6, .07, .3), *args)

    game = lambda: riscreen.GameParams(.8, .6, .07, .3)
    return [
        lambda: riscreen.mixed_equilibria(game()),
        lambda: variants("commitment_solve"),
        lambda: variants("heterogeneous_equilibrium_set", riscreen.HeterogeneousParams(.06, .08, 1.0, 1.0)),
        lambda: riscreen.quota_equilibrium_set(game()),
        lambda: riscreen.multitask_equilibrium_set(game(), (riscreen.TaskParams(.5, 1.0, .028),
                                                             riscreen.TaskParams(.5, 1.0, .03))),
        lambda: riscreen.solve_binary_ri(riscreen.BinaryRIProblem((-1, 0, 1), (.2, .5, .3), (-1.0, 0.0, 1.0), .3)),
    ]


failures = []
for round_ in range(ROUNDS):
    for path, make in (("cli", cli_calls), ("library", library_calls)):
        calls = make()
        raced = race(calls)
        serial = [outcome(call) for call in calls]
        failures += [f"round {round_} {path} call {i}: {r} != {s}"
                     for i, (r, s) in enumerate(zip(raced, serial)) if r != s]
print("\n".join(failures[:10]))
sys.exit(1 if failures else 0)
"""


def test_racing_first_calls_return_their_serial_results(tmp_path):
    done = subprocess.run([sys.executable, "-c", RACE, "20", str(tmp_path / "out")],
                          env=_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
