"""riscreen: promotion tournaments under mutual-information attention costs.

Solves a two-agent promotion game in which a principal screens contestants
through an endogenously chosen, costly signal: optimal signals, equilibrium
enumeration with closed-form regime cutpoints, profit and welfare ranking,
an equal-promotion quota, a two-task extension, and several model variants.

``import riscreen`` runs no submodule. It registers each public one in
``sys.modules`` as a deferred module whose body runs on its first attribute
access, so a CLI command compiles only the modules it runs. The public names
below are served from their submodules on first use (PEP 562).
"""

import _thread
import sys
from importlib.util import find_spec, module_from_spec
from types import ModuleType

#: the public names, by the submodule that defines them
_PUBLIC = {
    "ri_core": ("ALWAYS_ACT0", "ALWAYS_ACT1", "INTERIOR", "BinaryRIProblem", "ChoiceRule", "ConvergenceError",
                "mutual_information", "neg_entropy", "solve_binary_ri"),
    "baseline_game": ("AGENT_M", "AGENT_W", "DISCRIMINATORY", "HI", "IMPARTIAL", "LO", "PROFILES", "BracketError",
                      "EquilibriumRecord", "GameParams", "ProfitBreakdown", "PromotionSignal", "StateDistribution",
                      "ThresholdSet", "equilibrium_set", "evaluate", "incentive_gain", "most_profitable",
                      "optimal_signal", "profit", "state_distribution", "thresholds", "welfare_ordering"),
    "quota_policy": ("QuotaSolution", "find_multiplier", "quota_equilibrium_set", "subsidized_signal"),
    "multitask": ("HYBRID", "NON_SPECIALIZED", "SPECIALIZED", "MultitaskRecord", "TaskParams",
                  "multitask_equilibrium_set", "multitask_most_profitable"),
    "variants": ("BindingHighSolution", "CommitmentSolution", "EffortGridResult", "HeterogeneousParams",
                 "MixedEquilibrium", "MixedProfile", "PriorInvariantResult", "ReferencePriorProblem",
                 "bind_high_effort", "commitment_solve", "continuous_effort_equilibria",
                 "heterogeneous_equilibrium_set", "mixed_equilibria", "prior_invariant_signal"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"

#: held while a deferred body runs; reentrant, as a body loads the modules it imports.
#: (``_thread``: ``threading`` is not loaded at start-up under ``python -S``)
_LOCK = _thread.RLock()
_RUNNING = set()


class _Deferred(ModuleType):
    """A registered submodule whose body has not run yet.

    The first attribute access runs the body once, under ``_LOCK``; meanwhile
    the thread that runs it reads the module without running it again. The
    class goes back to ``ModuleType`` only after the body has run, so no
    other thread sees a module that is plain but not yet filled.
    """

    def __getattribute__(self, attr):
        with _LOCK:
            spec = ModuleType.__getattribute__(self, "__spec__")
            if type(self) is not ModuleType and spec.name not in _RUNNING:  # not loaded, not loading
                _RUNNING.add(spec.name)
                try:
                    spec.loader.exec_module(self)
                finally:
                    _RUNNING.discard(spec.name)
                self.__class__ = ModuleType
        return ModuleType.__getattribute__(self, attr)


for _name in _PUBLIC:
    _module = sys.modules.get(f"{__name__}.{_name}")
    if _module is None:  # a reload keeps the modules already registered
        _module = sys.modules[f"{__name__}.{_name}"] = module_from_spec(find_spec(f"{__name__}.{_name}"))
        _module.__class__ = _Deferred
    globals()[_name] = _module
del _name, _module


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
